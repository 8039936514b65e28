"""Chain structure of a finite system at a fixed resolution.

At resolution delta, an admissible chain step goes from u to any v whose
distance from the image of u is at most delta (closed inequality).  Chains
are exactly the directed paths of the resulting digraph, so chain
recurrence, chain components and chain order become cycle and reachability
questions on that digraph.

Edges are decided exactly by integer comparison.  Every step value
d(f(u), v) is itself a pairwise distance, hence one of the system's
distinct distance levels, held as ascending scaled ints with an int rank
per pair (``FiniteSystem.ranks``).  For a rational delta >= 0, let K be the
rank of the largest level <= delta; as the levels strictly ascend,
d(f(u), v) <= delta iff rank(f(u), v) <= K.  One int bisection per
resolution decides every edge, on or off the critical ladder.  The critical
resolutions are the levels at the distinct step ranks.

Chain recurrence here is the fixed-resolution notion: a node lies on a
directed cycle.  The all-resolution notion is recovered by intersecting over
the critical resolution ladder; see the basin and proximal modules.

Along an ascending ladder, ``ladder_digraphs`` builds each step from the
previous one.  Going up from cut K to cut K' only adds edges: the pairs
(f(u), v) whose rank lies in (K, K'].  Only the rows of the preimages of
images that gained a pair change.  The SCC partition changes iff an added
edge u -> v joins two old SCCs and v reaches u in the new digraph.  If one
does, u and v now share an SCC.  If none does, no added edge between two
old SCCs lies on a cycle, as the cycle would lead from v back to u.  So
each edge of a cycle is old or added inside one old SCC; either way it
joins nodes that were mutually reachable before, and the whole cycle lies
in one old SCC.  The test runs once all of a step's edges are in, as two
added edges can close a cycle together.  When the partition stays, the
step keeps the old SCCs, and its condensation is built from the new rows
only where it is read (``ChainDigraph.cond_succ``).  A new self-loop changes
whether a singleton SCC is recurrent, which ``chain_components`` reads from
``succ``, but not the partition.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import compress
from typing import Iterable, Iterator, Mapping, NamedTuple

from .errors import InvariantViolation, SpecError
from .graph import strongly_connected_components
from .systems import FiniteSystem


@dataclass(frozen=True)
class ChainDigraph:
    """Step digraph of a system at one resolution, with its SCC structure.

    ``sccs`` is ordered deterministically (by smallest member node).
    ``cut`` is ``system.ranks.cut(delta)``, the rank bound of the edges.
    """

    system: FiniteSystem
    delta: Fraction
    succ: Mapping[str, tuple[str, ...]]
    sccs: tuple[tuple[str, ...], ...]
    scc_of: Mapping[str, int]
    cut: int

    @cached_property
    def cond_succ(self) -> tuple[tuple[int, ...], ...]:
        """``cond_succ[i]`` lists the condensation successors of the i-th SCC."""
        scc_of = self.scc_of
        cond: list[set[int]] = [set() for _ in self.sccs]
        for u, succs in self.succ.items():
            cond[scc_of[u]].update(map(scc_of.__getitem__, succs))
        for i, s in enumerate(cond):
            s.discard(i)
        return tuple(tuple(sorted(s)) for s in cond)


def _finalize(system: FiniteSystem, delta: Fraction, cut: int,
              succ: dict[str, tuple[str, ...]]) -> ChainDigraph:
    comps = sorted(strongly_connected_components(succ), key=lambda c: c[0])
    scc_of = {u: i for i, comp in enumerate(comps) for u in comp}
    return ChainDigraph(system, delta, succ, tuple(comps), scc_of, cut)


def _resolution(sys: FiniteSystem, delta) -> tuple[Fraction, int]:
    """(delta as a Fraction, its cut), refusing a negative delta."""
    if type(delta) is not Fraction:
        delta = Fraction(delta)
    if delta < 0:
        raise SpecError("delta must be nonnegative")
    return delta, sys.ranks.cut(delta)


def _row(sys: FiniteSystem, image: str, cut: int) -> tuple[str, ...]:
    """Successors of every preimage of ``image``: the names v with
    rank(image, v) <= cut, in point order."""
    ranks = sys.ranks
    # compress keeps the names whose rank r has cut >= r, in point order
    return tuple(compress(ranks.names, map(cut.__ge__, ranks.rank[image])))


def build_chain_digraph(sys: FiniteSystem, delta) -> ChainDigraph:
    """Digraph with an edge u -> v iff d(f(u), v) <= delta."""
    delta, cut = _resolution(sys, delta)
    succ = {u: _row(sys, sys.apply(u), cut) for u in sys.points}
    return _finalize(sys, delta, cut, succ)


def _reach(masks: list[int], start: int) -> int:
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


def ladder_digraphs(sys: FiniteSystem, deltas: Iterable) -> Iterator[ChainDigraph]:
    """``build_chain_digraph(sys, delta)`` for each of the ascending
    ``deltas``, each built from the previous step and the pairs it adds
    (argument in the module docstring).  One Tarjan runs at the first step
    and at each step whose SCC partition changes."""
    ranks = sys.ranks
    names, index = ranks.names, ranks.index
    preimages: dict[str, list[str]] = {}
    for u in sys.points:
        preimages.setdefault(sys.apply(u), []).append(u)
    # every (image, v) pair by rank, sorted once per walk
    pairs = sorted((r, image, v) for image in preimages
                   for v, r in zip(names, ranks.rank[image]))
    masks = [0] * len(names)  # successor mask of each point, bit index[v] for v
    taken = 0
    dg: ChainDigraph | None = None
    for delta in deltas:
        delta, cut = _resolution(sys, delta)
        if dg is not None and cut < dg.cut:
            raise InvariantViolation("ladder resolutions must ascend")
        added: list[tuple[str, str]] = []
        grown: set[str] = set()
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
        # the tails of the added cross edges into each head v
        tails: dict[str, int] = {}
        for u, v in added:
            if scc_of[u] != scc_of[v]:
                tails[v] = tails.get(v, 0) | 1 << index[u]
        if any(_reach(masks, index[v]) & us for v, us in tails.items()):
            dg = _finalize(sys, delta, cut, succ)
        else:
            dg = ChainDigraph(sys, delta, succ, dg.sccs, scc_of, cut)
        yield dg


def _is_recurrent_scc(dg: ChainDigraph, comp: tuple[str, ...]) -> bool:
    if len(comp) > 1:
        return True
    u = comp[0]
    return u in dg.succ[u]


def chain_recurrent_set(dg: ChainDigraph) -> frozenset[str]:
    """Nodes lying on a directed cycle: the union of the chain components."""
    return frozenset().union(*chain_components(dg))


def chain_components(dg: ChainDigraph) -> tuple[frozenset[str], ...]:
    """Chain components: the SCCs restricted to the chain recurrent set.

    Any path between two nodes of one SCC stays inside it, so these are
    simply the SCCs that contain a cycle, in deterministic order.
    """
    return tuple(frozenset(comp) for comp in dg.sccs if _is_recurrent_scc(dg, comp))


def critical_ranks(sys: FiniteSystem) -> list[int]:
    """Ascending distinct ranks of d(f(u), v), the ranks of ``critical_deltas``."""
    return sorted(set().union(*map(sys.ranks.rank.__getitem__, set(sys.map.values()))))


def critical_deltas(sys: FiniteSystem) -> list[Fraction]:
    """Ascending distinct values of d(f(u), v); the digraph is constant
    between consecutive values."""
    return list(map(sys.ranks.level, critical_ranks(sys)))


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
    The values are int numerators over one = 2^(number of SCCs), as no
    increment has a larger denominator; a Fraction is built once per SCC.
    """
    n_comp = len(dg.sccs)
    cond_succ = dg.cond_succ
    # reverse topological order over the condensation: repeatedly emit a
    # node all of whose successors were emitted, smallest member id first
    pending_succ = [set(s) for s in cond_succ]
    users: list[list[int]] = [[] for _ in range(n_comp)]
    for i, succs in enumerate(cond_succ):
        for j in succs:
            users[j].append(i)
    ready = [(comp[0], i) for i, comp in enumerate(dg.sccs) if not pending_succ[i]]
    heapq.heapify(ready)
    one = 1 << n_comp
    num = [0] * n_comp  # the value numerator of each SCC
    value: dict[str, Fraction] = {}
    next_int = 0
    transient_rank = 0
    emitted = 0
    while ready:
        _, i = heapq.heappop(ready)
        comp = dg.sccs[i]
        if _is_recurrent_scc(dg, comp):
            num[i] = next_int * one
            next_int += 1
        else:
            # map(u) is always a successor for metric-built digraphs, which
            # is what makes the strict descent along the map hold
            below = max((num[dg.scc_of[v]] for v in dg.succ[comp[0]]), default=0)
            transient_rank += 1
            num[i] = below + one - (one >> transient_rank)
        val = Fraction(num[i], one)
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


class ChainAnalysis(NamedTuple):
    """Bundle of the per-resolution chain facts used by reports."""

    recurrent: frozenset[str]
    components: tuple[frozenset[str], ...]
    lyapunov: dict[str, Fraction]


def chain_analysis(dg: ChainDigraph) -> ChainAnalysis:
    comps = chain_components(dg)
    return ChainAnalysis(frozenset().union(*comps), comps, complete_lyapunov(dg))
