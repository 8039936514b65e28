"""Brute-force reference implementations, independent of the library code.

Each oracle recomputes a result from first principles (transitive closure,
cycle enumeration, progression scanning) so the library's graph-based
algorithms are checked against a second route.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from itertools import combinations, product


def indented(doc) -> str:
    """The indented layout of reports v1-v4: ``json.dumps`` with an indent of
    two and sorted keys, and a newline.  A report is written as one compact
    line, and this re-indents its document for the digest locks."""
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def closure_components(nodes, succ):
    """Chain components via boolean transitive closure (paths of length >= 1)."""
    order = sorted(nodes)
    idx = {u: i for i, u in enumerate(order)}
    k = len(order)
    reach = [0] * k
    for u in order:
        for v in succ[u]:
            reach[idx[u]] |= 1 << idx[v]
    for m in range(k):
        for i in range(k):
            if reach[i] >> m & 1:
                reach[i] |= reach[m]
    recurrent = [i for i in range(k) if reach[i] >> i & 1]
    comps = []
    seen = set()
    for i in recurrent:
        if i in seen:
            continue
        comp = {order[i]}
        seen.add(i)
        for j in recurrent:
            if j != i and reach[i] >> j & 1 and reach[j] >> i & 1:
                comp.add(order[j])
                seen.add(j)
        comps.append(frozenset(comp))
    return set(comps), {order[i] for i in recurrent}


def simple_cycle_lengths(nodes, succ, max_len=12):
    """Lengths of simple directed cycles up to max_len (DFS enumeration)."""
    order = sorted(nodes)
    lengths = set()

    def walk(start, current, path_set, depth):
        if depth > max_len:
            return
        for w in succ[current]:
            if w == start:
                lengths.add(depth)
            elif w not in path_set and w > start:
                walk(start, w, path_set | {w}, depth + 1)

    for s in order:
        walk(s, s, {s}, 1)
    return lengths


def cycle_gcd(nodes, succ, max_len=12):
    lengths = simple_cycle_lengths(nodes, succ, max_len)
    return math.gcd(*lengths) if lengths else 0


def path_length_sets(nodes, succ, within, max_len):
    """lengths[u][v] = set of path lengths 1..max_len from u to v inside ``within``."""
    order = sorted(within)
    reach = {u: {0: {u}} for u in order}
    for L in range(1, max_len + 1):
        for u in order:
            prev = reach[u].get(L - 1, set())
            cur = set()
            for w in prev:
                cur.update(v for v in succ[w] if v in within)
            reach[u][L] = cur
    out = {u: {v: set() for v in order} for u in order}
    for u in order:
        for L in range(1, max_len + 1):
            for v in reach[u][L]:
                out[u][v].add(L)
    return out


# -- injected digraphs -----------------------------------------------------------------

def digraph_from_edges(sys, delta, edges):
    """Wrap an explicit edge set as a ChainDigraph of ``sys`` at ``delta``,
    to inject a digraph that no resolution of ``sys`` builds."""
    from chainscope.chains import _finalize

    delta = Fraction(delta)
    succ = {u: set() for u in sys.points}
    for u, v in edges:
        succ[u].add(v)
    return _finalize(sys, delta, sys.ranks.cut(delta),
                     {u: tuple(sorted(s)) for u, s in succ.items()})


def reaches(dg, x, y):
    """True iff a directed path of length >= 1 runs from x to y in ``dg``."""
    frontier = list(dg.succ[x])
    seen = set(frontier)
    while frontier:
        u = frontier.pop()
        if u == y:
            return True
        for w in dg.succ[u]:
            if w not in seen:
                seen.add(w)
                frontier.append(w)
    return False


def brute_proximal(nodes, succ, comp, x, y):
    """Product-graph reachability to the diagonal, written independently."""
    if x == y:
        return True
    comp = set(comp)
    frontier = {(x, y)}
    seen = set(frontier)
    while frontier:
        nxt = set()
        for (u, v) in frontier:
            for uu in succ[u]:
                if uu not in comp:
                    continue
                for vv in succ[v]:
                    if vv not in comp:
                        continue
                    if uu == vv:
                        return True
                    if (uu, vv) not in seen:
                        seen.add((uu, vv))
                        nxt.add((uu, vv))
        frontier = nxt
    return False


def brute_iapstar(preperiod, pattern):
    """Scan progressions <p, m> for m <= 2P, p < m + P over a bounded window,
    requiring a hit at an index past the preperiod (preperiod-only hits die
    out under progression shifts, so only tail hits certify membership)."""
    L, P = len(preperiod), len(pattern)

    def member(i):
        return preperiod[i] if i < L else pattern[(i - L) % P]

    for m in range(1, 2 * P + 1):
        horizon = L + P * (m + 2)
        for p in range(m + P):
            if not any(member(i) for i in range(p, horizon, m) if i >= L):
                return False, (p, m)
    return True, None


def brute_thick(preperiod, pattern):
    """Arbitrarily long runs iff a tail run covers two full periods."""
    L, P = len(preperiod), len(pattern)
    window = [preperiod[i] if i < L else pattern[(i - L) % P]
              for i in range(L + 6 * P)]
    run = 0
    for i in range(L, len(window)):
        run = run + 1 if window[i] else 0
        if run >= 2 * P:
            return True
    return False


def omega(sys, x):
    """The cycle the forward orbit of x enters: the points after the first
    repeat of the orbit."""
    orbit = [x]
    while orbit.count(orbit[-1]) < 2:
        orbit.append(sys.apply(orbit[-1]))
    return frozenset(orbit[orbit.index(orbit[-1]):-1])


def orbit_min_separation(sys, pts):
    state = tuple(pts)
    seen = set()
    best = None
    while state not in seen:
        seen.add(state)
        cur = min(sys.distance(a, b) for a, b in combinations(state, 2))
        best = cur if best is None else min(best, cur)
        state = tuple(sys.apply(u) for u in state)
    return best


def orbit_floor_bruteforce(sys):
    """``FiniteSystem.orbit_floor`` by walking the orbit of each pair (u, v)
    until a pair repeats: the least rank, among ``fraction_levels``, of the
    distances of the pairs seen; rows and entries in sorted name order."""
    rank = {d: r for r, d in enumerate(fraction_levels(sys))}
    dist = fraction_table(sys)
    names = sorted(sys.points)
    floors = {}
    for u in names:
        row = []
        for v in names:
            seen = set()
            pair = (u, v)
            while pair not in seen:
                seen.add(pair)
                pair = (sys.apply(pair[0]), sys.apply(pair[1]))
            row.append(min(rank[dist[p]] for p in seen))
        floors[u] = tuple(row)
    return floors


def fraction_table(sys):
    """Every d(u, v) of a finite system as a Fraction, keyed (u, v), read from
    its validated scaled rows: not from its ranks or ``distance``."""
    return {(u, v): Fraction(x, sys.scale)
            for u, row in zip(sys.points, sys.rows) for v, x in zip(sys.points, row)}


def fraction_levels(sys):
    """The distinct pairwise distances of a finite system as ascending
    Fractions, every one built eagerly from the validated scaled rows:
    ``fraction_levels(sys)[r]`` is the distance of rank r."""
    return tuple(Fraction(x, sys.scale) for x in sorted({x for row in sys.rows for x in row}))


def cycle_ranks_bruteforce(sys, cut, top):
    """The ranks r in (cut, top] at which the chain components change:
    ``closure_components`` of the digraph u -> v iff d(f(u), v) is at most
    the distance of rank r, at every rank cut, against those at the cut
    before.  Distances come from ``fraction_table``; the closure is taken
    again wherever the edge set grows."""
    table, levels = fraction_table(sys), fraction_levels(sys)

    def edges(r):
        return {(u, v) for u in sys.points for v in sys.points
                if table[sys.apply(u), v] <= levels[r]}

    def components(es):
        succ = {u: [v for v in sys.points if (u, v) in es] for u in sys.points}
        return closure_components(sys.points, succ)[0]

    out = []
    es = edges(cut)
    comps = components(es)
    for r in range(cut + 1, top + 1):
        grown = edges(r)
        if grown != es:
            es, before, comps = grown, comps, components(grown)
            if comps != before:
                out.append(r)
    return out


def arrival_rungs(sys, comp, cuts, first, last):
    """The rungs in (first, last] at which an edge inside ``comp`` arrives,
    found edge by edge: each u -> v of comp whose rank lies in
    (cuts[first], cuts[last]] arrives at the first rung whose cut holds it.
    This is the set ``LadderWalk._track`` once built by one bisection per
    internal rank."""
    from bisect import bisect_left

    ranks = sys.ranks
    return sorted({bisect_left(cuts, r, first + 1, last + 1)
                   for u in comp for v in comp
                   for r in [ranks.rank[sys.apply(u)][ranks.index[v]]]
                   if cuts[first] < r <= cuts[last]})


def fraction_lyapunov(dg):
    """``complete_lyapunov`` on the Fraction path: the same reverse
    topological order of the condensation, each recurrent component the next
    int as a Fraction and each transient one the largest value below it plus
    1 - 2^-rank, in Fraction arithmetic."""
    import heapq

    pending = [set(s) for s in dg.cond_succ]
    users = [[] for _ in dg.sccs]
    for i, succs in enumerate(dg.cond_succ):
        for j in succs:
            users[j].append(i)
    ready = [(comp[0], i) for i, comp in enumerate(dg.sccs) if not pending[i]]
    heapq.heapify(ready)
    value, next_int, rank = {}, 0, 0
    while ready:
        _, i = heapq.heappop(ready)
        comp = dg.sccs[i]
        if len(comp) > 1 or comp[0] in dg.succ[comp[0]]:
            val = Fraction(next_int)
            next_int += 1
        else:
            below = max((value[v] for v in dg.succ[comp[0]]), default=Fraction(0))
            rank += 1
            val = below + 1 - Fraction(1, 2**rank)
        for u in comp:
            value[u] = val
        for j in users[i]:
            pending[j].discard(i)
            if not pending[j]:
                heapq.heappush(ready, (dg.sccs[j][0], j))
    return value


def fraction_pseudo_orbit(sys, states, delta):
    """(errors, maximum) of a finite delta-pseudo-orbit on the Fraction path:
    each step error read from ``fraction_table`` and compared with delta as
    a Fraction, ``StepViolation(i, e)`` raised at the first step that
    exceeds it, and the maximum a Fraction max, 0 for no step."""
    from chainscope.errors import StepViolation

    table = fraction_table(sys)
    errors = []
    for i, (x, y) in enumerate(zip(states, states[1:])):
        e = table[(sys.apply(x), y)]
        if e > delta:
            raise StepViolation(i, e)
        errors.append(e)
    return tuple(errors), max(errors, default=Fraction(0))


def fraction_shadow(sys, states, epsilon):
    """``find_shadowing_point`` on the Fraction path: the least z by name
    whose orbit keeps every Fraction distance to the states at most
    epsilon, stopping a candidate at its first larger one, as (z, max
    error, suffix maxima of its errors); (None, None, ()) when none does."""
    table = fraction_table(sys)
    for z in sorted(sys.points):
        u, track = z, []
        for s in states:
            d = table[(u, s)]
            if d > epsilon:
                break
            track.append(d)
            u = sys.apply(u)
        else:
            return z, max(track), tuple(max(track[i:]) for i in range(len(track)))
    return None, None, ()


def fraction_scaled_rows(points, metric, default=None):
    """(scale, rows) of a finite-system load on the Fraction path: each
    distance read by ``as_fraction`` (checked against ``Fraction(str)`` on
    its own), ``default`` first and then the entries in order, a pair given
    again with another value refused as a symmetry violation, and the table
    times the lcm of its denominators.  Every distinct pair is given or
    ``default`` is; no axiom is checked."""
    from chainscope.errors import MetricViolation
    from chainscope.systems import as_fraction

    fill = None if default is None else as_fraction(default)
    index = {u: i for i, u in enumerate(points)}
    table = [[fill] * len(points) for _ in points]
    for i in range(len(points)):
        table[i][i] = Fraction(0)
    given = set()
    for (u, v), d in metric.items() if isinstance(metric, dict) else metric:
        d = as_fraction(d)
        i, j = index[u], index[v]
        if (i, j) in given and table[i][j] != d:
            raise MetricViolation("symmetry", (u, v))
        given |= {(i, j), (j, i)}
        table[i][j] = table[j][i] = d
    scale = math.lcm(*(d.denominator for row in table for d in row))
    return scale, tuple(tuple(int(d * scale) for d in row) for row in table)


def metric_violation(points, metric):
    """First failed metric axiom as (axiom, witness), or None: the plain
    Fraction sweep over the diagonal, the pairs u before v, then every
    ordered triple (u, v, w) in point order."""
    for u in points:
        if metric[(u, u)] != 0:
            return "definiteness", (u, u)
    for i, u in enumerate(points):
        for v in points[i + 1:]:
            if metric[(u, v)] <= 0:
                return "definiteness", (u, v)
            if metric[(u, v)] != metric[(v, u)]:
                return "symmetry", (u, v)
    for u in points:
        for v in points:
            for w in points:
                if metric[(u, v)] > metric[(u, w)] + metric[(w, v)]:
                    return "triangle", (u, v, w)
    return None


def best_spread(sys, members, n):
    """max over n-subsets of ``members`` of their least pairwise distance
    (0 when there is no n-subset)."""
    return max((min(sys.distance(a, b) for a, b in combinations(c, 2))
                for c in combinations(sorted(members), n)), default=0)


def widest_bruteforce(table, index, members, n):
    """The first n-subset of ``members``, in ``combinations`` order, whose
    least pairwise entry ``table[a][index[b]]`` is largest, with that entry;
    (0, None) without an n-subset."""
    def spread(combo):
        return min(table[a][index[b]] for a, b in combinations(combo, 2))

    best = max(combinations(members, n), key=spread, default=None)
    return (0, None) if best is None else (spread(best), best)


def eager_distal_cycle(adjacency, classes, n, t):
    """First cycle of the window product graph of a vertex shift, or None.

    The search before the lazy one: every valid state (n pairwise distinct
    admissible (t+1)-windows whose first symbols share a class in
    ``classes``) is listed up front in ``product`` order, and a DFS from
    each unvisited root in that order, with successors in ``product``
    order, stops at the first gray state it meets.
    """
    size = len(adjacency)
    succ = [tuple(b for b in range(size) if adjacency[a][b]) for a in range(size)]
    words = [(v,) for v in range(size)]
    for _ in range(t):
        words = [w + (a,) for w in words for a in succ[w[-1]]]
    words.sort()
    word_succ = {w: tuple(sorted(w[1:] + (a,) for a in succ[w[-1]])) for w in words}

    def valid(state):
        if any(a == b for a, b in combinations(state, 2)):
            return False
        return len({classes[w[0]] for w in state}) == 1

    def successors(state):
        return iter(tuple(s for s in product(*(word_succ[w] for w in state))
                          if s in color))

    states = [s for s in product(words, repeat=n) if valid(s)]
    color = {s: 0 for s in states}  # 0 white, 1 gray, 2 black
    for root in states:
        if color[root]:
            continue
        stack = [(root, successors(root))]
        color[root] = 1
        path = [root]
        while stack:
            state, it = stack[-1]
            advanced = False
            for nxt in it:
                if color[nxt] == 1:
                    return path[path.index(nxt):]
                if color[nxt] == 0:
                    color[nxt] = 1
                    path.append(nxt)
                    stack.append((nxt, successors(nxt)))
                    advanced = True
                    break
            if not advanced:
                color[state] = 2
                path.pop()
                stack.pop()
    return None


def dense_radius_bracket(adjacency, nodes, tol, max_iter):
    """Power-iteration bracket of the spectral radius of the block of
    ``adjacency`` on ``nodes``, with the dense mat-vec of (block + identity);
    None when it does not close in ``max_iter`` steps."""
    size = len(nodes)
    rows = [[adjacency[u][v] + (1 if u == v else 0) for v in nodes] for u in nodes]
    vec = [1.0] * size
    lo, hi = 0.0, float("inf")
    for _ in range(max_iter):
        nxt = [sum(rows[i][j] * vec[j] for j in range(size)) for i in range(size)]
        ratios = [nxt[i] / vec[i] for i in range(size)]
        lo = max(lo, min(ratios))
        hi = min(hi, max(ratios))
        if lo > 1.0 and math.log(hi - 1.0) - math.log(lo - 1.0) <= tol:
            return lo - 1.0, hi - 1.0
        top = max(nxt)
        vec = [x / top for x in nxt]
    return None


def sparse_radius_bracket(rows, tol, max_iter):
    """The same bracket from the sparse rows of (block + identity)
    (``sft._block_rows``), one Python row sum at a time: each row adds its
    nonzero terms in column order.  None when it does not close in
    ``max_iter`` steps."""
    size = len(rows)
    vec = [1.0] * size
    lo, hi = 0.0, float("inf")
    for _ in range(max_iter):
        nxt = [sum([w * vec[j] for j, w in row]) for row in rows]
        ratios = [nxt[i] / vec[i] for i in range(size)]
        lo = max(lo, min(ratios))
        hi = min(hi, max(ratios))
        if lo > 1.0 and math.log(hi - 1.0) - math.log(lo - 1.0) <= tol:
            return lo - 1.0, hi - 1.0
        top = max(nxt)
        vec = [x / top for x in nxt]
    return None


def exact_path(adjacency, a, b, length):
    """Lexicographically smallest path a -> b of exactly ``length`` edges,
    read from backward layers built afresh; None when there is none."""
    if length == 0:
        return [a] if a == b else None
    n = len(adjacency)
    blayer = [set() for _ in range(length + 1)]
    blayer[0].add(b)
    for j in range(1, length + 1):
        blayer[j] = {u for u in range(n) if any(adjacency[u][v] for v in blayer[j - 1])}
    if a not in blayer[length]:
        return None
    path = [a]
    for j in range(length, 0, -1):
        path.append(min(w for w in range(n) if adjacency[path[-1]][w] and w in blayer[j - 1]))
    return path


def connector_loop(g, currents, targets):
    """The per-length search that ``connecting_paths`` replaces: start from
    the longest of the shortest positive connecting lengths and step by the
    graph period, rebuilding every coordinate's exact path at each length.
    Returns the full paths; raises SpecError when the class offsets differ."""
    from chainscope.errors import SpecError
    from chainscope.sft import graph_period, vertex_classes

    adjacency, n = g.adjacency, g.vertex_count
    period, classes = graph_period(g), vertex_classes(g)
    if len({(classes[t] - classes[c]) % period for c, t in zip(currents, targets)}) > 1:
        raise SpecError("connector targets sit at incompatible phases")

    def shortest(a, b):
        reach, length = {w for w in range(n) if adjacency[a][w]}, 1
        while b not in reach:
            reach, length = {w for v in reach for w in range(n) if adjacency[v][w]}, length + 1
        return length

    length = max(shortest(c, t) for c, t in zip(currents, targets))
    while True:
        paths = [exact_path(adjacency, c, t, length) for c, t in zip(currents, targets)]
        if all(p is not None for p in paths):
            return paths
        length += period


def proximal_loop(sys, comp, ladder):
    """The per-resolution proximal refinement that the ladder sweep replaces:
    build the digraph and label the classes afresh at each resolution of a
    descending ladder, stopping where comp is no longer a chain component.
    It labels with the library's ``cyclic_classes``, so it checks what the
    sweep shares across resolutions, not the labelling itself.  Returns
    (resolutions used, classes, split_at)."""
    from chainscope import build_chain_digraph, chain_components, cyclic_classes

    comp = frozenset(comp)
    used, labels, split_at = [], [], None
    for d in ladder:
        dg = build_chain_digraph(sys, d)
        if comp not in set(chain_components(dg)):
            split_at = d
            break
        used.append(d)
        labels.append(cyclic_classes(dg, comp).class_of)
    buckets = {}
    for u in sorted(comp):
        buckets.setdefault(tuple(lab[u] for lab in labels), []).append(u)
    return tuple(used), tuple(tuple(b) for _, b in sorted(buckets.items())), split_at


def basin_section_v3(ba):
    """A v3 ``basins`` section: the v4 one with the partition-law audit that
    v4 dropped put back, as ``verify_partition_laws`` computes it."""
    from chainscope.basins import verify_partition_laws
    from chainscope.report import basin_section

    laws = verify_partition_laws(ba)
    return dict(basin_section(ba), partition_laws_ok=laws.ok, violations=list(laws.violations))


def report_v3(config):
    """The ``chainscope-report-v3`` form of an ``analyze`` report: the v4
    report with the keys v4 dropped put back.  A chain entry gets the
    ``edges`` of the digraph built afresh from ``system.spec`` at the entry's
    delta and ``recurrent``, the sorted union of its components.  A basin
    section is checked against the one of the basins assigned afresh at its
    delta and gets their partition-law audit."""
    from chainscope import LadderWalk, assign_basins, build_chain_digraph, verify_partition_laws
    from chainscope.report import basin_section, cmd_analyze
    from chainscope.specio import system_from_desc

    doc = cmd_analyze(config)
    doc["schema"] = "chainscope-report-v3"
    if "ladder" in doc:
        model = system_from_desc(doc["system"]["spec"])
        for entry in doc["chain_analyses"]:
            dg = build_chain_digraph(model, Fraction(entry["delta"]))
            entry["edges"] = {u: list(dg.succ[u]) for u in sorted(dg.succ)}
            entry["recurrent"] = sorted(set().union(*entry["components"]))
        for b in doc["basins"]:
            walk = LadderWalk(model, [Fraction(b["delta"])])
            ba = assign_basins(model, walk.decompositions(0))
            assert basin_section(ba) == b, b["delta"]
            laws = verify_partition_laws(ba)
            b.update(partition_laws_ok=laws.ok, violations=list(laws.violations))
    return doc


def report_v2(config):
    """The ``chainscope-report-v2`` form of an ``analyze`` report: the v3
    report (``report_v3``) with the keys v3 dropped put back.  Those keys
    could not vary or echoed settings no run read: the seed (0, its default,
    in every recorded v2 report), every config field with the window
    constants ``run_req`` (None) and ``theta`` (1/100), a shift's
    ``irreducible`` (True, as a reducible graph is refused), and a cyclic
    row's ``saturation_failed`` (False, by Wielandt's bound)."""
    from dataclasses import asdict

    doc = report_v3(config)
    doc["schema"] = "chainscope-report-v2"
    doc["provenance"]["seed"] = 0
    doc["provenance"]["config"] = dict(asdict(config), ladder=list(config.ladder), seed=0,
                                       run_req=None, theta="1/100")
    if doc["system"]["kind"] == "sft":
        doc["system"]["irreducible"] = True
    for row in doc.get("cyclic", ()):
        row["saturation_failed"] = False
    return doc


def report_v1(config):
    """The ``chainscope-report-v1`` form of an ``analyze`` report: the v2
    report with the per-step ``chain_analyses`` and ``cyclic`` lists put back
    for every ladder step, each from its own digraph built afresh from
    ``system.spec`` (as ``chains --delta`` writes them)."""
    from chainscope import build_chain_digraph
    from chainscope.report import step_section
    from chainscope.specio import system_from_desc

    doc = report_v2(config)
    doc["schema"] = "chainscope-report-v1"
    if "ladder" in doc:
        model = system_from_desc(doc["system"]["spec"])
        steps = [build_chain_digraph(model, Fraction(d)) for d in doc["ladder"]]
        doc["chain_analyses"] = [step_section(dg) for dg in steps]
        doc["cyclic"] = [dict(row, saturation_failed=False) for dg in steps
                         for row in step_cyclic_rows(CyclicSweep([dg]), [dg.delta])]
    return doc


def recover_step(doc, i):
    """Ladder step i of a v2, v3 or v4 report by its recovery rule: the
    edges d(f(u), v) <= delta from ``system.spec`` by Fraction comparison,
    the components of the latest chain entry at or below the step and their
    union as the recurrent set, and each component's latest cyclic row at or
    below it.  Returns the chain entry without its Lyapunov values and
    condensation, and the cyclic rows of the step."""
    text = doc["ladder"][i]
    delta = Fraction(text)
    spec = doc["system"]["spec"]
    dist = {}
    for u, v, d in spec["metric"]:
        dist[(u, v)] = dist[(v, u)] = Fraction(d)
    points = sorted(spec["points"])
    image = spec["map"]
    edges = {u: [v for v in points if v == image[u] or dist[(image[u], v)] <= delta]
             for u in points}
    entry = [e for e in doc["chain_analyses"] if Fraction(e["delta"]) <= delta][-1]
    rows = []
    for comp in entry["components"]:
        row = [r for r in doc["cyclic"]
               if r["component"] == comp and Fraction(r["delta"]) <= delta][-1]
        rows.append(dict(row, delta=text))
    chain = {"delta": text, "edges": edges,
             "recurrent": sorted(set().union(*entry["components"])),
             "components": entry["components"]}
    return chain, rows


# -- Fraction distance profiles, windows and prefix densities -------------------------
#
# The vertex-shift path once built one Fraction per time step; these are those
# Fraction versions, kept to check the int keys and cuts that replaced them.

def fraction_pair_profile(x, y, horizon):
    """d(shift^i x, shift^i y) for i in [0, horizon) as Fractions, computed
    on one fundamental window (the longer head plus the lcm of the cycles)
    and tiled."""
    M = max(len(x.head), len(y.head))
    Q = math.lcm(len(x.cycle), len(y.cycle))
    N = M + 2 * Q
    xs = [x.symbol(i) for i in range(N)]
    ys = [y.symbol(i) for i in range(N)]
    nxt_diff = [None] * (N + 1)
    for j in range(N - 1, -1, -1):
        nxt_diff[j] = j if xs[j] != ys[j] else nxt_diff[j + 1]
    base = []
    for i in range(min(horizon, M + Q)):
        j = nxt_diff[i]
        base.append(Fraction(0) if j is None else Fraction(1, 2 ** (j - i)))
    if horizon <= M + Q:
        return base[:horizon]
    return base + [base[M + (i - M) % Q] for i in range(M + Q, horizon)]


def fraction_profile_extremes(points, horizon):
    """Per-time min and max pairwise distance, compared as Fractions."""
    profiles = [fraction_pair_profile(a, b, horizon)
                for a, b in combinations(points, 2)]
    return ([min(p[i] for p in profiles) for i in range(horizon)],
            [max(p[i] for p in profiles) for i in range(horizon)])


def fraction_windows(points, r_list, eps_list, horizon):
    """({r: S(r) bits}, {eps: T(eps) bits}), each bit a Fraction comparison:
    min pairwise distance > r, max pairwise distance < eps."""
    mins, maxs = fraction_profile_extremes(points, horizon)
    return ({r: tuple(int(m > r) for m in mins) for r in map(Fraction, r_list)},
            {e: tuple(int(m < e) for m in maxs) for e in map(Fraction, eps_list)})


def fraction_best_prefix(bits):
    """(best prefix density, its prefix length) over the prefixes of length
    H // 2 .. H of a window, one Fraction per prefix; the first prefix of the
    largest density wins, and (0, 0) when no prefix is nonempty."""
    H = len(bits)
    best, best_n = Fraction(0), 0
    count = sum(bits[: H // 2])
    for n in range(H // 2, H + 1):
        if n > H // 2:
            count += bits[n - 1]
        if n and Fraction(count, n) > best:
            best, best_n = Fraction(count, n), n
    return best, best_n


def shadow_bruteforce(sys, states, epsilon):
    """(z, max error, suffix maxima of the errors) for the least z whose
    orbit stays within epsilon of every state, or None: every z is tried,
    its whole track is measured, and each suffix maximum is taken anew."""
    for z in sorted(sys.points):
        track, u = [], z
        for s in states:
            track.append(sys.distance(u, s))
            u = sys.apply(u)
        if all(d <= epsilon for d in track):
            return z, max(track), tuple(max(track[i:]) for i in range(len(track)))
    return None


def limit_shadowed_by(sys, states, epsilon, z) -> bool:
    """Does z epsilon-track the pseudo-orbit and merge with its true tail?

    The pseudo-orbit is extended beyond its last state by the true map; the
    pair (orbit of z, extended orbit) is eventually periodic, so the check
    is exact: all pairwise distances <= epsilon and distance zero on the
    repeating part.
    """
    rank, index, cut = sys.ranks.rank, sys.ranks.index, sys.ranks.cut(epsilon)
    u = z
    for s in states[:-1]:
        if rank[u][index[s]] > cut:
            return False
        u = sys.apply(u)
    pair = (u, states[-1])
    seen = set()
    while pair not in seen:
        seen.add(pair)
        if rank[pair[0]][index[pair[1]]] > cut:
            return False
        pair = (sys.apply(pair[0]), sys.apply(pair[1]))
    # walk the repeating part: distances there must vanish
    start = pair
    while True:
        if pair[0] != pair[1]:
            return False
        pair = (sys.apply(pair[0]), sys.apply(pair[1]))
        if pair == start:
            return True


def pair_orbit_top(sys, u, v):
    """The greatest d(f^t u, f^t v) over t >= 0 as a Fraction if the pair
    orbit ends on the diagonal, else None: n^2 steps of the pair map reach
    its cycle, so the orbit is measured up to there and tested at its end."""
    top = Fraction(0)
    for _ in range(len(sys.points) ** 2 + 1):
        top = max(top, sys.distance(u, v))
        u, v = sys.apply(u), sys.apply(v)
    return top if u == v else None


def failing_chains(sys, delta, epsilon, max_len):
    """The delta-chains of 2 to max_len states that no z limit-shadows
    within epsilon, each followed by the true orbit of its last state, in
    depth-first order.  Every chain is listed, with a free step anywhere,
    and every z is tried on it with ``limit_shadowed_by``."""
    points = sorted(sys.points)

    def extend(chain):
        if len(chain) > 1 and not any(limit_shadowed_by(sys, chain, epsilon, z)
                                      for z in points):
            yield tuple(chain)
        if len(chain) < max_len:
            for t in points:
                if sys.distance(sys.apply(chain[-1]), t) <= delta:
                    yield from extend(chain + [t])

    for s in points:
        yield from extend([s])


def windowed_iapstar_bruteforce(bits, m_max, tail_start):
    """None when every progression p mod m, m <= m_max, meets the window's
    members at or after ``tail_start``; else the first (p, m) that does not,
    in order of m and then p."""
    for m in range(1, m_max + 1):
        for p in range(m):
            if not any(bits[i] for i in range(tail_start, len(bits)) if i % m == p):
                return p, m
    return None


# -- the per-step ladder path ----------------------------------------------------------
#
# ``analyze`` once built every rung of its ladder, each from the rung before, and
# decomposed every component at every rung into a sweep; ``chainscope.LadderWalk``
# replaced both with work at the rungs where something changes.  The per-step path is
# kept here as the oracle the walk is checked against.

def _reach(masks, start):
    """Bitmask of the points reachable from point ``start`` (itself
    included), given each point's successor mask."""
    seen = 0
    frontier = 1 << start
    while frontier:
        seen |= frontier
        nxt = 0
        while frontier:
            low = frontier & -frontier
            nxt |= masks[low.bit_length() - 1]
            frontier ^= low
        frontier = nxt & ~seen
    return seen


def ladder_digraphs(sys, deltas):
    """``build_chain_digraph(sys, delta)`` for each of the ascending
    ``deltas``, each built from the previous step and the pairs it adds.  The
    SCC partition changes iff an added edge u -> v joins two old SCCs and v
    reaches u once all of the step's edges are in; one Tarjan runs at the
    first step and at each step whose partition changes."""
    from chainscope.chains import ChainDigraph, _finalize, _resolution, _row, build_chain_digraph
    from chainscope.errors import InvariantViolation

    ranks = sys.ranks
    names, index = ranks.names, ranks.index
    preimages = {}
    for u in sys.points:
        preimages.setdefault(sys.apply(u), []).append(u)
    pairs = sorted((r, image, v) for image in preimages
                   for v, r in zip(names, ranks.rank[image]))
    masks = [0] * len(names)
    taken = 0
    dg = None
    for delta in deltas:
        delta, cut = _resolution(sys, delta)
        if dg is not None and cut < dg.cut:
            raise InvariantViolation("ladder resolutions must ascend")
        added, grown = [], set()
        while taken < len(pairs) and pairs[taken][0] <= cut:
            _, image, v = pairs[taken]
            taken += 1
            grown.add(image)
            for u in preimages[image]:
                masks[index[u]] |= 1 << index[v]
                added.append((u, v))
        if dg is None:
            dg = build_chain_digraph(sys, delta)
            yield dg
            continue
        succ = dict(dg.succ)
        for image in grown:
            row = _row(sys, image, cut)
            for u in preimages[image]:
                succ[u] = row
        scc_of = dg.scc_of
        tails = {}
        for u, v in added:
            if scc_of[u] != scc_of[v]:
                tails[v] = tails.get(v, 0) | 1 << index[u]
        if any(_reach(masks, index[v]) & us for v, us in tails.items()):
            dg = _finalize(sys, delta, cut, succ)
        else:
            dg = ChainDigraph(sys, delta, succ, dg.sccs, scc_of, cut)
        yield dg


def _labels(dg, comp):
    """Class labels and period of a component of ``dg`` (``graph.classes``)."""
    from chainscope.graph import classes

    return classes(dg.succ, min(comp), comp)


class _StepSegment:
    """One component over a run of sweep steps with a fixed vertex set and
    period, with the internal adjacency of every step as a tuple of rows."""

    def __init__(self, dg, comp, first):
        from chainscope.cyclic import _cross_pairs

        self.system = dg.system
        self.component = comp
        self.nodes = sorted(comp)
        self.bit = dict.fromkeys(dg.succ, 0)
        self.bit.update((u, 1 << j) for j, u in enumerate(self.nodes))
        self.class_of, self.period = _labels(dg, comp)
        self.cls = [self.class_of[u] for u in self.nodes]
        members = [0] * self.period
        for i, c in enumerate(self.cls):
            members[c] |= 1 << i
        self.next_class = [members[(c + 1) % self.period] for c in self.cls]
        self.cross = _cross_pairs(dg.system, self.nodes, self.class_of)
        self.first = first
        self.adjacency = [self._rows(dg)]
        self._transient = None

    def _rows(self, dg):
        return tuple(sum(map(self.bit.__getitem__, dg.succ[u])) for u in self.nodes)

    def extend(self, dg):
        from chainscope.errors import InvariantViolation

        rows = self._rows(dg)
        if any(a & ~b for a, b in zip(self.adjacency[-1], rows)):
            raise InvariantViolation("a sweep must only add edges from step to step")
        if any(r & ~n for r, n in zip(rows, self.next_class)):
            return False
        self.adjacency.append(rows)
        return True

    def transient(self, i):
        from chainscope.cyclic import _transient_index

        if self._transient is None:
            vals = [None] * len(self.adjacency)

            def at(j):
                if vals[j] is None:
                    vals[j] = _transient_index(self.adjacency[j], self.cls, self.period)
                return vals[j]

            runs = [(0, len(self.adjacency) - 1)]
            while runs:
                lo, hi = runs.pop()
                if at(lo) == at(hi):
                    vals[lo:hi + 1] = [vals[lo]] * (hi - lo + 1)
                elif hi - lo > 1:
                    mid = (lo + hi) // 2
                    runs += [(lo, mid), (mid, hi)]
            self._transient = vals
        return self._transient[i]

    def decomposition(self, i, cut, delta):
        from chainscope import CyclicDecomposition

        return CyclicDecomposition(self.system, self.component, delta, self.period,
                                   self.class_of, self.transient(i - self.first),
                                   tuple((u, v) for r, u, v in self.cross if r <= cut))


class CyclicSweep:
    """Cyclic decompositions of every chain component along an ascending
    sequence of step digraphs of one system, one segment per run of steps
    at which a component keeps its vertex set and period.  Feed the steps
    in ascending order with ``add``; read them after the last step."""

    def __init__(self, digraphs=()):
        self._steps = {}
        self._open = {}
        self._last = None
        self._read = False
        for dg in digraphs:
            self.add(dg)

    def add(self, dg):
        from chainscope import chain_components
        from chainscope.errors import InvariantViolation

        if self._read:
            raise InvariantViolation("a sweep takes no step after it has been read")
        if self._last is not None and dg.delta <= self._last:
            raise InvariantViolation("sweep resolutions must ascend")
        i = len(self._steps)
        here = {}
        for comp in chain_components(dg):
            seg = self._open.get(comp)
            if seg is None or not seg.extend(dg):
                seg = _StepSegment(dg, comp, i)
            here[seg.component] = seg
        self._open = here
        self._last = dg.delta
        self._steps[dg.delta] = (i, dg.cut, here)

    def components(self, delta):
        return self._steps[delta][2].keys()

    def decomposition(self, delta, comp):
        self._read = True
        i, cut, here = self._steps[delta]
        seg = here.get(comp)
        return None if seg is None else seg.decomposition(i, cut, delta)

    def decompositions(self, delta):
        return tuple(self.decomposition(delta, comp) for comp in self.components(delta))

    def proximal(self, C, ladder):
        """Meet of the class partitions of C down the strictly descending
        swept ``ladder``, while C stays a chain component."""
        from chainscope.cyclic import ProximalPartition, _descending
        from chainscope.errors import NotAComponent

        comp = frozenset(C)
        decomps, split_at = [], None
        for d in _descending(ladder):
            dec = self.decomposition(d, comp)
            if dec is None:
                if not decomps:
                    raise NotAComponent(
                        f"{sorted(comp)} is not a chain component at the coarsest delta")
                split_at = d
                break
            decomps.append(dec)
        buckets = {}
        for u in sorted(comp):
            buckets.setdefault(tuple(dec.class_of[u] for dec in decomps), []).append(u)
        return ProximalPartition(comp, tuple(dec.delta for dec in decomps),
                                 tuple(tuple(b) for _, b in sorted(buckets.items())),
                                 tuple(decomps), split_at)


def step_cyclic_rows(sweep, ladder, dense=False):
    """The cyclic rows of the swept ascending ``ladder`` that a component has
    new at a step or that differ from its row at the previous step in any
    field but ``delta``; every row of every step when ``dense``."""
    from chainscope.report import _cyclic_row

    rows, last = [], {}
    for d in ladder:
        here = {}
        for dec in sweep.decompositions(d):
            state = (dec.period, dec.transient_index, dec.p2_violations)
            if dense or last.get(dec.component) != state:
                rows.append(_cyclic_row(dec))
            here[dec.component] = state
        last = here
    return rows


def step_analyze(config, dense=False):
    """The ladder sections of the v3 ``analyze`` report of a finite system
    (``chain_analyses``, ``cyclic``, ``basins``, ``proximal``, ``chaos``) by
    the per-step path: every ladder step walked and swept, an entry written
    at step 0 and where the components change, a row where a component's row
    changes, or both at every step when ``dense``.  Also returns the walk's
    steps and the sweep."""
    from bisect import bisect_left

    from chainscope.basins import assign_basins
    from chainscope.chaos import classify_finite_component
    from chainscope.report import _frac, _ladder_for, chaos_section, resolve_model, step_section
    from chainscope.systems import as_fraction

    model = resolve_model(config.spec)
    ladder = _ladder_for(model, config)
    delta = as_fraction(config.delta) if config.delta is not None else ladder[0]
    at = bisect_left(ladder, delta)
    on = ladder[at:at + 1] == [delta]
    walk = ladder if on else [*ladder[:at], delta, *ladder[at:]]
    sweep = CyclicSweep()
    steps, chains, comps = [], [], None
    for j, step in enumerate(ladder_digraphs(model, walk)):
        sweep.add(step)
        steps.append(step)
        if on or j != at:
            last, comps = comps, set(sweep.components(step.delta))
            if dense or last != comps:
                chains.append(step_section(step))
    decomps = sweep.decompositions(delta)
    proximal = []
    for dec in decomps:
        comp = dec.component
        top = next((i for i in range(len(ladder) - 1, at - 1, -1)
                    if comp in sweep.components(ladder[i])), None)
        pp = sweep.proximal(comp, ladder[top::-1] if top is not None else [delta])
        proximal.append({
            "component": sorted(comp),
            "ladder": [_frac(x) for x in pp.ladder],
            "classes": [list(c) for c in pp.classes],
            "split_at": _frac(pp.split_at) if pp.split_at is not None else None,
        })
    params = config.classify_params()
    return {
        "chain_analyses": chains,
        "cyclic": step_cyclic_rows(sweep, ladder, dense),
        "basins": [basin_section_v3(assign_basins(model, decomps))],
        "proximal": proximal,
        "chaos": [chaos_section(classify_finite_component(dec, config.n_max, params))
                  for dec in decomps],
    }, steps, sweep


def per_entry_shift_refusal(rows):
    """The message that refuses an adjacency spec when each entry is checked
    on its own, as vertex-shift loads once did (None when the spec loads):
    every entry must be an int, row by row, then the matrix square, the
    entries 0 or 1, and each vertex in turn given an outgoing and then an
    incoming edge."""
    adjacency = []
    for row in rows:
        for x in row:
            if type(x) is not int:
                return f"an adjacency entry must be an integer, got {x!r}"
        adjacency.append(list(row))
    n = len(adjacency)
    if n == 0 or any(len(row) != n for row in adjacency):
        return "adjacency must be a nonempty square matrix"
    if any(x not in (0, 1) for row in adjacency for x in row):
        return "adjacency entries must be 0 or 1"
    for v in range(n):
        if not any(adjacency[v]):
            return f"vertex {v} has no outgoing edge"
        if not any(row[v] for row in adjacency):
            return f"vertex {v} has no incoming edge"
    return None
