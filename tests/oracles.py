"""Brute-force reference implementations, independent of the library code.

Each oracle recomputes a result from first principles (transitive closure,
cycle enumeration, progression scanning) so the library's graph-based
algorithms are checked against a second route.
"""

from __future__ import annotations

import math
from itertools import combinations


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
