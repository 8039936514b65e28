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

Along an ascending ladder edges only arrive: u -> v arrives at rank
(f(u), v), so reachability only grows.  ``cycle_ranks`` feeds the edges
above a first rung to an incremental transitive closure, in rank order, as
bitmasks R(u) of the points a path of length >= 1 leads to from u and P(v)
of those it leads to v from.  An arriving edge a -> b with b already in
R(a) adds no path and changes nothing.  Otherwise it changes the chain
components exactly when it closes a cycle, that is b = a or a in R(b).  The
components and the recurrent set are fixed by the relation "x and y lie on
a common cycle".  A cycle through the new edge, cut at its first use of
it, leads from b back to a on older edges; so without such a path no cycle
uses the edge and the relation stays.  With one, a and b now share a cycle,
which they did not while a could not reach b, so it grows.  As R counts
paths of length >= 1, a self-loop on a point not yet recurrent is such a
change.  A rung's digraph is then built (``build_chain_digraph``) only where
a caller reads it: at the rungs where the components change and at those it
writes.  The condensation order, sinks first, is one cached fact per
digraph (``ChainDigraph.cond_order``), which on the first rung both the
closure seed and the Lyapunov assignment read.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import compress
from typing import Iterator, Mapping, NamedTuple

from .errors import InvariantViolation, SpecError
from .graph import sinks_first, strongly_connected_components
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

    @cached_property
    def cond_order(self) -> list[int]:
        """The SCC indices, each after its condensation successors and the
        ready one with the smallest member first (``graph.sinks_first``)."""
        order = sinks_first(self.cond_succ, [comp[0] for comp in self.sccs])
        if order is None:
            raise InvariantViolation("condensation order did not cover every SCC")
        return order


def _finalize(system: FiniteSystem, delta: Fraction, cut: int,
              succ: dict[str, tuple[str, ...]]) -> ChainDigraph:
    comps = sorted(strongly_connected_components(succ), key=lambda c: c[0])
    scc_of = {u: i for i, comp in enumerate(comps) for u in comp}
    return ChainDigraph(system, delta, succ, tuple(comps), scc_of, cut)


def _resolution(sys: FiniteSystem, delta) -> tuple[Fraction, int]:
    """(delta as a Fraction, its cut), refusing a negative delta."""
    if type(delta) is not Fraction:
        delta = Fraction(delta)
    if delta.numerator < 0:
        raise SpecError("delta must be nonnegative")
    return delta, sys.ranks.cut(delta)


def _row(sys: FiniteSystem, image: str, cut: int) -> tuple[str, ...]:
    """Successors of every preimage of ``image``: the names v with
    rank(image, v) <= cut, in point order."""
    ranks = sys.ranks
    # compress keeps the names whose rank r has cut >= r, in point order
    return tuple(compress(ranks.names, map(cut.__ge__, ranks.rank[image])))


def build_chain_digraph(sys: FiniteSystem, delta, like: ChainDigraph | None = None) -> ChainDigraph:
    """Digraph with an edge u -> v iff d(f(u), v) <= delta.

    ``like``, when given, is a digraph of ``sys`` with the same chain
    components, whose SCCs are taken over without a Tarjan: the components
    and the points outside them, one SCC each, make up the SCC partition."""
    delta, cut = _resolution(sys, delta)
    row = {v: _row(sys, v, cut) for v in set(sys.map.values())}  # one per image, shared
    succ = {u: row[sys.map[u]] for u in sys.points}
    if like is not None:
        return ChainDigraph(sys, delta, succ, like.sccs, like.scc_of, cut)
    return _finalize(sys, delta, cut, succ)


def _set_bits(mask: int) -> Iterator[int]:
    """The indices of the set bits of ``mask``, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _reach_masks(dg: ChainDigraph) -> tuple[list[int], list[int]]:
    """(reach, back): ``reach[i]`` and ``back[i]`` are the bitmasks of the
    points that a path of length >= 1 leads to from, and to, the point
    ``ranks.names[i]`` (bit j for ``ranks.names[j]``).

    A point of SCC S reaches the members of every SCC below S in the
    condensation and, when S holds a cycle, those of S; so ``reach`` is read
    off the condensation sinks first, and ``back`` sources first."""
    index = dg.system.ranks.index
    sccs, cond, order = dg.sccs, dg.cond_succ, dg.cond_order
    members = [sum(1 << index[u] for u in comp) for comp in sccs]
    own = [m if _is_recurrent_scc(dg, comp) else 0 for m, comp in zip(members, sccs)]
    below, above = own[:], own[:]
    for i in order:
        for j in cond[i]:
            below[i] |= members[j] | below[j]
    for i in reversed(order):
        for j in cond[i]:
            above[j] |= members[i] | above[i]
    reach, back = [0] * len(index), [0] * len(index)
    for u, i in dg.scc_of.items():
        reach[index[u]], back[index[u]] = below[i], above[i]
    return reach, back


def cycle_ranks(dg: ChainDigraph, top: int) -> list[int]:
    """Ascending ranks r in (dg.cut, top] at which the chain components
    change: those at cut r differ from those at cut r - 1.

    The edges of rank in (dg.cut, top] go in rank order into a transitive
    closure of ``dg``, kept as bitmasks ``reach`` and ``back`` of the points
    reached from and reaching each point by a path of length >= 1 (argument
    in the module docstring)."""
    if top <= dg.cut:
        return []
    sys = dg.system
    ranks = sys.ranks
    index = ranks.index
    preimages: dict[str, list[int]] = {}
    for u in sys.points:
        preimages.setdefault(sys.apply(u), []).append(index[u])
    # the pairs (image, v) that enter the cut above dg's, by rank
    arriving: dict[int, list[tuple[list[int], int]]] = {}
    above = range(dg.cut + 1, top + 1)
    for image, us in preimages.items():
        row = ranks.rank[image]
        for v in compress(range(len(row)), map(above.__contains__, row)):
            arriving.setdefault(row[v], []).append((us, v))
    if not arriving:
        return []
    reach, back = _reach_masks(dg)
    out: list[int] = []
    for r in sorted(arriving):
        for us, v in arriving[r]:
            for a in us:
                if reach[a] >> v & 1:
                    continue  # the edge a -> v adds no path
                if (a == v or reach[v] >> a & 1) and (not out or out[-1] != r):
                    out.append(r)
                tails, heads = back[a] | 1 << a, reach[v] | 1 << v
                for x in _set_bits(tails):
                    reach[x] |= heads
                for y in _set_bits(heads):
                    back[y] |= tails
    return out


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

    Components receive integers 0, 1, 2, ... in ``cond_order`` (sinks first,
    ties broken by smallest node id);
    transient nodes receive strictly-larger non-integer values built from
    dyadic increments 1/2, 3/4, 7/8, ...  Integer versus non-integer values
    keep the image of the recurrent set separated from the transient values.
    The values are int numerators over one = 2^(number of SCCs), as no
    increment has a larger denominator; a Fraction is built once per SCC.
    """
    n_comp = len(dg.sccs)
    one = 1 << n_comp
    num = [0] * n_comp  # the value numerator of each SCC
    value: dict[str, Fraction] = {}
    next_int = 0
    transient_rank = 0
    for i in dg.cond_order:
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
    return value


class ChainAnalysis(NamedTuple):
    """Bundle of the per-resolution chain facts used by reports; the
    recurrent set is the union of the components."""

    components: tuple[frozenset[str], ...]
    lyapunov: dict[str, Fraction]


def chain_analysis(dg: ChainDigraph) -> ChainAnalysis:
    return ChainAnalysis(chain_components(dg), complete_lyapunov(dg))
