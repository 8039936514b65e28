"""Chain structure of a finite system at a fixed resolution.

At resolution delta, an admissible chain step goes from u to any v whose
distance from the image of u is at most delta (closed inequality).  Chains
are exactly the directed paths of the resulting digraph, so chain
recurrence, chain components and chain order become cycle and reachability
questions on that digraph.

Edges are decided exactly by integer comparison.  Every step value
d(f(u), v) is itself a pairwise distance, hence one of the system's
ascending distinct distance levels (``FiniteSystem.ranks``).  For a rational
delta >= 0, let K be the index of the largest level <= delta; because the
levels strictly ascend, d(f(u), v) <= delta iff rank(f(u), v) <= K.  One
bisection per resolution then decides every edge, on or off the critical
ladder, with no floats and no sampling.  The critical resolutions are the
levels at the distinct step ranks.

Chain recurrence here is the fixed-resolution notion: a node lies on a
directed cycle.  The all-resolution notion is recovered by intersecting over
the critical resolution ladder; see the basin and proximal modules.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from fractions import Fraction
from itertools import compress
from typing import Iterable, Mapping

from .errors import InvariantViolation, SpecError
from .graph import strongly_connected_components
from .systems import FiniteSystem


@dataclass(frozen=True)
class ChainDigraph:
    """Step digraph of a system at one resolution, with its SCC structure.

    ``sccs`` is ordered deterministically (by smallest member node);
    ``cond_succ[i]`` lists condensation successors of the i-th SCC.
    """

    system: FiniteSystem
    delta: Fraction
    succ: Mapping[str, tuple[str, ...]]
    sccs: tuple[tuple[str, ...], ...]
    scc_of: Mapping[str, int]
    cond_succ: tuple[tuple[int, ...], ...]

    def is_edge(self, u: str, v: str) -> bool:
        return v in set(self.succ[u])


def _finalize(system: FiniteSystem, delta: Fraction,
              succ: dict[str, tuple[str, ...]]) -> ChainDigraph:
    comps = sorted(strongly_connected_components(succ), key=lambda c: c[0])
    scc_of = {u: i for i, comp in enumerate(comps) for u in comp}
    cond: list[set[int]] = [set() for _ in comps]
    for u, succs in succ.items():
        cond[scc_of[u]].update(map(scc_of.__getitem__, succs))
    for i, s in enumerate(cond):
        s.discard(i)
    return ChainDigraph(system, delta, succ, tuple(comps), scc_of,
                        tuple(tuple(sorted(s)) for s in cond))


def build_chain_digraph(sys: FiniteSystem, delta) -> ChainDigraph:
    """Digraph with an edge u -> v iff d(f(u), v) <= delta."""
    delta = Fraction(delta)
    if delta < 0:
        raise SpecError("delta must be nonnegative")
    ranks = sys.ranks
    cut = ranks.cut(delta)
    # compress keeps the names whose rank r has cut >= r, in point order
    succ = {u: tuple(compress(ranks.names, map(cut.__ge__, ranks.rank[sys.apply(u)])))
            for u in sys.points}
    return _finalize(sys, delta, succ)


def digraph_from_edges(sys: FiniteSystem, delta, edges: Iterable[tuple[str, str]]) -> ChainDigraph:
    """Wrap an explicit edge set as a ChainDigraph (for injected test graphs)."""
    delta = Fraction(delta)
    succ: dict[str, set[str]] = {u: set() for u in sys.points}
    for u, v in edges:
        succ[u].add(v)
    return _finalize(sys, delta, {u: tuple(sorted(s)) for u, s in succ.items()})


def _is_recurrent_scc(dg: ChainDigraph, comp: tuple[str, ...]) -> bool:
    if len(comp) > 1:
        return True
    u = comp[0]
    return u in dg.succ[u]


def chain_recurrent_set(dg: ChainDigraph) -> frozenset[str]:
    """Nodes lying on a directed cycle."""
    out: set[str] = set()
    for comp in dg.sccs:
        if _is_recurrent_scc(dg, comp):
            out.update(comp)
    return frozenset(out)


def chain_components(dg: ChainDigraph) -> tuple[frozenset[str], ...]:
    """Chain components: the SCCs restricted to the chain recurrent set.

    Any path between two nodes of one SCC stays inside it, so these are
    simply the SCCs that contain a cycle, in deterministic order.
    """
    return tuple(frozenset(comp) for comp in dg.sccs if _is_recurrent_scc(dg, comp))


def reaches(dg: ChainDigraph, x: str, y: str) -> bool:
    """True iff a directed path of length >= 1 runs from x to y."""
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


def critical_deltas(sys: FiniteSystem) -> list[Fraction]:
    """Ascending distinct values of d(f(u), v); the digraph is constant
    between consecutive values."""
    ranks = sys.ranks
    steps = {r for img in set(sys.map.values()) for r in ranks.rank[img]}
    return [ranks.levels[r] for r in sorted(steps)]


def complete_lyapunov(dg: ChainDigraph) -> dict[str, Fraction]:
    """Constructive complete Lyapunov assignment at this resolution.

    Guarantees, writing R for the chain recurrent set:
      (i)   value(f(x)) < value(x) for every x outside R;
      (ii)  on R, equal values exactly on equal chain components;
      (iii) if x reaches y across distinct components, value(x) > value(y).

    Components receive integers 0, 1, 2, ... in reverse topological order of
    the condensation (sinks first, ties broken by smallest node id);
    transient nodes receive strictly-larger non-integer values built from
    dyadic increments 1/2, 3/4, 7/8, ...  Integer versus non-integer values
    keep the image of the recurrent set separated from the transient values.
    """
    n_comp = len(dg.sccs)
    # reverse topological order over the condensation: repeatedly emit a
    # node all of whose successors were emitted, smallest member id first
    pending_succ = [set(s) for s in dg.cond_succ]
    users: list[list[int]] = [[] for _ in range(n_comp)]
    for i, succs in enumerate(dg.cond_succ):
        for j in succs:
            users[j].append(i)
    ready = [(comp[0], i) for i, comp in enumerate(dg.sccs) if not pending_succ[i]]
    heapq.heapify(ready)
    value: dict[str, Fraction] = {}
    comp_value: dict[int, Fraction] = {}
    next_int = 0
    transient_rank = 0
    emitted = 0
    while ready:
        _, i = heapq.heappop(ready)
        comp = dg.sccs[i]
        if _is_recurrent_scc(dg, comp):
            val = Fraction(next_int)
            next_int += 1
        else:
            node = comp[0]
            # map(u) is always a successor for metric-built digraphs, which
            # is what makes the strict descent along the map hold
            below = max((value[v] for v in dg.succ[node]), default=Fraction(0))
            transient_rank += 1
            val = below + 1 - Fraction(1, 2**transient_rank)
        comp_value[i] = val
        for u in comp:
            value[u] = val
        emitted += 1
        for j in users[i]:
            pending_succ[j].discard(i)
            if not pending_succ[j]:
                heapq.heappush(ready, (dg.sccs[j][0], j))
    if emitted != n_comp:
        raise InvariantViolation("condensation order did not cover every SCC")
    return value


@dataclass(frozen=True)
class ChainAnalysis:
    """Bundle of the per-resolution chain facts used by reports."""

    digraph: ChainDigraph
    recurrent: frozenset[str]
    components: tuple[frozenset[str], ...]
    lyapunov: dict[str, Fraction]


def chain_analysis(dg: ChainDigraph) -> ChainAnalysis:
    return ChainAnalysis(dg, chain_recurrent_set(dg), chain_components(dg),
                         complete_lyapunov(dg))
