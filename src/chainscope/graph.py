"""Graph kernel shared by both model kinds: strong components, the order
of a condensation, BFS levels, the period and cyclic classes of a strongly
connected digraph, and the walk of a map to its first repeat.

Vertices are any sortable hashable labels and ``succ[u]`` lists the
successors of u.  Finite systems use it on chain step digraphs, vertex
shifts on symbol graphs.

Period and cyclic classes follow Denardo (Periods of connected networks and
powers of nonnegative matrices, Math. Oper. Res. 1977): take BFS levels
from any root of a strongly connected digraph; the gcd over all edges
u -> v of |lvl(u) + 1 - lvl(v)| is the gcd of the cycle lengths, and
lvl(v) mod that period is the cyclic class of v.
"""

from __future__ import annotations

import heapq
import math
from typing import Callable, Collection, Hashable, Mapping, Sequence


def strongly_connected_components(succ: Mapping[Hashable, Sequence]) -> list[tuple]:
    """Iterative Tarjan over the keys of ``succ``; components are emitted
    sinks-first, each as a sorted tuple."""
    index: dict = {}
    low: dict = {}
    onstack: set = set()
    stack: list = []
    sccs: list[tuple] = []
    counter = 0
    for root in sorted(succ):
        if root in index:
            continue
        work = [(root, iter(succ[root]))]
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        onstack.add(root)
        while work:
            v, it = work[-1]
            advanced = False
            for w in it:
                if w not in index:
                    index[w] = low[w] = counter
                    counter += 1
                    stack.append(w)
                    onstack.add(w)
                    work.append((w, iter(succ[w])))
                    advanced = True
                    break
                if w in onstack and index[w] < low[v]:
                    low[v] = index[w]
            if advanced:
                continue
            work.pop()
            if work:
                pv = work[-1][0]
                if low[v] < low[pv]:
                    low[pv] = low[v]
            if low[v] == index[v]:
                comp = []
                while True:
                    w = stack.pop()
                    onstack.remove(w)
                    comp.append(w)
                    if w == v:
                        break
                sccs.append(tuple(sorted(comp)))
    return sccs


def sinks_first(cond: Sequence[Sequence[int]], least: Sequence) -> list[int] | None:
    """The nodes 0..n-1 of ``cond`` (``cond[i]`` lists the successors of i),
    each after all of its successors and the ready node of least key
    ``least[i]`` first; None if ``cond`` has a cycle."""
    users: list[list[int]] = [[] for _ in cond]
    for i, succs in enumerate(cond):
        for j in succs:
            users[j].append(i)
    pending = list(map(len, cond))
    ready = [(least[i], i) for i, n in enumerate(pending) if not n]
    heapq.heapify(ready)
    order = []
    while ready:
        i = heapq.heappop(ready)[1]
        order.append(i)
        for h in users[i]:
            pending[h] -= 1
            if not pending[h]:
                heapq.heappush(ready, (least[h], h))
    return order if len(order) == len(cond) else None


def rho(step: Callable[[Hashable], Hashable], x) -> tuple[list, int]:
    """The walk x, step(x), step(step(x)), ... up to its first repeat, and
    the index in it where the cycle starts: on a finite set every forward
    orbit is a transient followed by a cycle."""
    seen: dict = {}
    while x not in seen:
        seen[x] = len(seen)
        x = step(x)
    return list(seen), seen[x]


def bfs_levels(succ: Mapping[Hashable, Sequence], root,
               inside: Collection | None = None) -> dict:
    """Edge distance from ``root`` of every vertex it reaches, walking only
    through vertices of ``inside`` when that is given."""
    lvl = {root: 0}
    frontier = [root]
    while frontier:
        nxt = []
        for u in frontier:
            for w in succ[u]:
                if w not in lvl and (inside is None or w in inside):
                    lvl[w] = lvl[u] + 1
                    nxt.append(w)
        frontier = nxt
    return lvl


def period(succ: Mapping[Hashable, Sequence], lvl: Mapping) -> int:
    """gcd of |lvl(u) + 1 - lvl(v)| over the edges u -> v whose endpoints
    both have a level.  On one strong component this is the gcd of its cycle
    lengths, and 0 for a single vertex without a loop."""
    m = 0
    for u, lu in lvl.items():
        for w in succ[u]:
            lw = lvl.get(w)
            if lw is not None:
                m = math.gcd(m, abs(lu + 1 - lw))
    return m


def classes(succ: Mapping[Hashable, Sequence], root,
            inside: Collection | None = None) -> tuple[dict, int]:
    """Cyclic class (BFS level mod period) of every vertex that ``root``
    reaches, through ``inside`` when that is given, and the period m.  With
    no cycle among those vertices m is 0 and the labels are the levels.

    On a strongly connected digraph with a cycle every label 0..m-1 occurs.
    The levels are contiguous, 0 up to some top level t, so a label could
    be missing only if t < m - 1.  Then every term |lvl(u) + 1 - lvl(v)| of
    ``period`` lies below m, and m divides it, so it is 0: every inner edge
    raises the level by exactly one, no cycle could close, and m would be 0.
    """
    lvl = bfs_levels(succ, root, inside)
    m = period(succ, lvl)
    return ({u: level % m for u, level in lvl.items()} if m else lvl), m
