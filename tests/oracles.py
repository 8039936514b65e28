"""Brute-force reference implementations, independent of the library code.

Each oracle recomputes a result from first principles (transitive closure,
cycle enumeration, progression scanning) so the library's graph-based
algorithms are checked against a second route.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations, product


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
        labels.append(cyclic_classes(dg, comp, compute_transient=False, p2="record").class_of)
    buckets = {}
    for u in sorted(comp):
        buckets.setdefault(tuple(lab[u] for lab in labels), []).append(u)
    return tuple(used), tuple(tuple(b) for _, b in sorted(buckets.items())), split_at


def report_v1(config):
    """The ``chainscope-report-v1`` form of an ``analyze`` report: the v2
    report with the per-step ``chain_analyses`` and ``cyclic`` lists put back
    for every ladder step, each from its own digraph built afresh from
    ``system.spec`` (as ``chains --delta`` writes them)."""
    from chainscope import CyclicSweep, build_chain_digraph
    from chainscope.report import chain_section, cmd_analyze, cyclic_section
    from chainscope.specio import system_from_desc

    doc = cmd_analyze(config)
    doc["schema"] = "chainscope-report-v1"
    if "ladder" in doc:
        model = system_from_desc(doc["system"]["spec"])
        steps = [build_chain_digraph(model, Fraction(d)) for d in doc["ladder"]]
        doc["chain_analyses"] = [chain_section(dg) for dg in steps]
        doc["cyclic"] = [row for dg in steps
                         for row in cyclic_section(CyclicSweep([dg]), dg.delta)]
    return doc


def recover_step(doc, i):
    """Ladder step i of a v2 report by its recovery rule: the edges
    d(f(u), v) <= delta from ``system.spec`` by Fraction comparison, the
    components and recurrent set of the latest chain entry at or below the
    step, and each component's latest cyclic row at or below it.  Returns
    the chain entry without its Lyapunov values and condensation, and the
    cyclic rows of the step."""
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
    chain = {"delta": text, "edges": edges, "recurrent": entry["recurrent"],
             "components": entry["components"]}
    return chain, rows
