"""Cyclic decomposition of chain components and the chain-proximal relation.

Each chain component C at resolution delta splits into m cyclic classes,
where m is the gcd of the lengths of all directed cycles inside C.  Chain
steps advance the class index by one (mod m), so two nodes admit a
connecting chain of length divisible by m exactly when they share a class.

A pair (x, y) is chain proximal when synchronized chains of equal length
lead both to a common node.  For nodes of one component this is class
equality, so the relation is read from the class labels: a same-class pair
realizes a common length by the saturation law below, while synchronized
steps preserve the class difference forever.  The pair (x, x) is proximal
by the length-zero convention; loops of length m make this agree with the
positive-length convention for recurrent nodes.

Along an ascending walk of resolutions edges only arrive, so a
``LadderWalk`` does its work only where something changes.  The chain
components change exactly where an arriving edge closes a cycle
(``chains.cycle_ranks``), and a component's rungs form an interval.  Over
that interval the component splits into *segments*, runs of rungs at which
it keeps its period; the labels are fixed within one (argument in the
class docstring).  A segment's end, its merge-law pairs and its transient
index are read from the ranks: the period falls at the least rank of an
internal edge off the labelling, the merge-law pairs change at the ranks of
the cross-class pairs, and the transient index falls only where an internal
edge arrives.  ``cyclic_classes`` is the one-rung read of a segment built
from a digraph, and ``proximal_partition`` walks its ladder.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from fractions import Fraction
from functools import cached_property
from itertools import accumulate, compress, takewhile
from operator import or_
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple, Sequence

from .chains import (ChainDigraph, _resolution, build_chain_digraph, chain_components,
                     cycle_ranks)
from .errors import EmptyLadder, InvariantViolation, NotAComponent
from .graph import classes
from .systems import FiniteSystem


class CyclicDecomposition(NamedTuple):
    """Period, class labels and saturation index of one chain component."""

    system: FiniteSystem
    component: frozenset[str]
    delta: Fraction
    period: int
    class_of: Mapping[str, int]
    transient_index: int
    p2_violations: tuple[tuple[str, str], ...]

    def classes(self) -> tuple[tuple[str, ...], ...]:
        out: list[list[str]] = [[] for _ in range(self.period)]
        for u in sorted(self.component):
            out[self.class_of[u]].append(u)
        return tuple(tuple(c) for c in out)


def _require_component(dg: ChainDigraph, C) -> frozenset[str]:
    comp = frozenset(C)
    if comp not in set(chain_components(dg)):
        raise NotAComponent(f"{sorted(comp)} is not a chain component at delta={dg.delta}")
    return comp


def _members(cls: Sequence[int], m: int) -> list[int]:
    """Bitmask of the nodes of each class, given class ``cls[i]`` of node i."""
    out = [0] * m
    for i, c in enumerate(cls):
        out[c] |= 1 << i
    return out


def _cross_pairs(sys: FiniteSystem, nodes: Sequence[str],
                 class_of: Mapping[str, int]) -> list[tuple[int, str, str]]:
    """(rank of d(u, v), u, v) for every pair u < v in different classes, in
    node order; the merge law at a resolution forbids those within its cut.
    With one class (period 1) there is no such pair."""
    if not any(map(class_of.__getitem__, nodes)):  # every label is 0
        return []
    ranks = sys.ranks
    out = []
    for i, u in enumerate(nodes):
        row = ranks.rank[u]
        out.extend((row[ranks.index[v]], u, v) for v in nodes[i + 1:]
                   if class_of[u] != class_of[v])
    return out


def component_period(dg: ChainDigraph, C) -> int:
    """gcd of the lengths of all directed cycles inside the component."""
    comp = _require_component(dg, C)
    return classes(dg.succ, min(comp), comp)[1]


def transient_index(dg: ChainDigraph, C) -> int:
    """Smallest N such that every same-class pair is joined by internal
    chains of every length m*n with n >= N.

    Works on boolean powers of the m-th power of the internal adjacency.
    Once every same-class pair is reachable the property persists: every
    node has an in-class predecessor at distance m, so a saturated power
    stays saturated, and the first saturated power is the answer.  It comes
    by power (|C|-1)^2 + 1: the m-th power restricted to a class of s nodes
    is primitive, and Wielandt's bound puts its exponent at most (s-1)^2 + 1.
    """
    return _one_rung(dg, C).values[0]


def _transient_index(rows: Sequence[int], cls: Sequence[int], m: int) -> int:
    """Transient index of the component with adjacency ``rows``, class
    ``cls[i]`` for node i and period m.

    Row i of a product a*b depends on row i of a alone, so equal left-hand
    rows give equal product rows, and ``matmul`` computes each distinct one
    once.  Rows repeat often: the preimages of one image have the same
    successors, hence the same row in every power."""
    k = len(rows)

    def matmul(a: Sequence[int], b: Sequence[int]) -> list[int]:
        memo: dict[int, int] = {}
        out = []
        for bits in a:
            row = memo.get(bits)
            if row is None:
                row, rest = 0, bits
                while rest:
                    j = (rest & -rest).bit_length() - 1
                    rest &= rest - 1
                    row |= b[j]
                memo[bits] = row
            out.append(row)
        return out

    # powers commute, so each product takes the sparse rows on the left:
    # matmul ORs one right-hand row per set bit of a left-hand row
    step = rows
    for _ in range(m - 1):
        step = matmul(rows, step)
    members = _members(cls, m)
    want = [members[c] for c in cls]
    power = step
    for n in range(1, (k - 1) ** 2 + 2):
        # saturated when row i of the power covers the class of node i
        if all(p & w == w for p, w in zip(power, want)):
            return n
        power = matmul(step, power)
    raise InvariantViolation("no saturation by Wielandt's bound")  # pragma: no cover


def cyclic_classes(dg: ChainDigraph, C) -> CyclicDecomposition:
    """Cyclic class labels of a component (BFS level mod period): the
    one-rung read of a segment built from ``dg``.

    Records the pairs that break the merge law (nodes of one component
    within delta of each other must share a class) in ``p2_violations``;
    coincidences in an adversarial metric can genuinely produce such pairs.
    """
    return _one_rung(dg, C).decomposition(0, dg.delta, dg.cut)


def _one_rung(dg: ChainDigraph, C) -> _Segment:
    """The segment of component C of ``dg`` at that one digraph, rows read
    from its successor tuples (so an injected digraph is read as given)."""
    comp = _require_component(dg, C)
    seg = _Segment(dg.system, comp, dg.succ, 0)
    bit = dict.fromkeys(dg.succ, 0)
    bit.update((u, 1 << j) for j, u in enumerate(seg.nodes))
    # a successor tuple names each successor once, so the sum is the union
    rows = [sum(map(bit.__getitem__, dg.succ[u])) for u in seg.nodes]
    seg.settle([0], lambda j: _transient_index(rows, seg.cls, seg.period))
    return seg


class _Segment:
    """One component over the walk rungs ``first`` .. ``last``, at which it
    keeps its period: its labels, the cross-class pairs of the merge law,
    and the transient index as runs, value ``values[i]`` from rung
    ``starts[i]`` on."""

    def __init__(self, system: FiniteSystem, comp: frozenset[str],
                 succ: Mapping[str, Iterable[str]], first: int):
        self.system = system
        self.component = comp
        self.nodes = sorted(comp)
        self.class_of, self.period = classes(succ, self.nodes[0], comp)
        self.cls = [self.class_of[u] for u in self.nodes]
        self.cross = _cross_pairs(system, self.nodes, self.class_of)
        self.cross_ranks = sorted(r for r, _, _ in self.cross)
        # the violations at a cut, keyed by the number of cross ranks within it
        self._violations: dict[int, tuple[tuple[str, str], ...]] = {0: ()}
        self.first = self.last = first
        self.starts: list[int] = []
        self.values: list[int] = []

    def settle(self, rungs: Sequence[int], probe: Callable[[int], int]) -> None:
        """Runs of the transient index, given the ascending ``rungs`` at
        which the internal rows change (the segment's first, and each rung
        an internal edge arrives at) and ``probe(j)``, the index at rung j.
        Divide and conquer: the index never increases along the segment, so
        equal values at both ends of a stretch of those rungs fill it."""
        vals: dict[int, int] = {}

        def at(i: int) -> int:
            if i not in vals:
                vals[i] = probe(rungs[i])
            return vals[i]

        falls = []
        stretches = [(0, len(rungs) - 1)]
        while stretches:
            lo, hi = stretches.pop()
            if at(lo) == at(hi):
                continue
            if hi - lo == 1:
                falls.append(hi)
            else:
                mid = (lo + hi) // 2
                stretches += [(lo, mid), (mid, hi)]
        runs = [0, *sorted(falls)]
        self.starts = [rungs[i] for i in runs]
        self.values = [vals[i] for i in runs]

    def violations(self, cut: int) -> tuple[tuple[str, str], ...]:
        n = bisect_right(self.cross_ranks, cut)
        out = self._violations.get(n)
        if out is None:
            out = self._violations[n] = tuple((u, v) for r, u, v in self.cross if r <= cut)
        return out

    def decomposition(self, j: int, delta: Fraction, cut: int) -> CyclicDecomposition:
        """The decomposition at rung j, of resolution ``delta`` and cut ``cut``."""
        return CyclicDecomposition(self.system, self.component, delta, self.period,
                                   self.class_of, self.values[bisect_right(self.starts, j) - 1],
                                   self.violations(cut))


class LadderWalk:
    """Chain components and cyclic decompositions of one system along the
    strictly ascending resolutions ``deltas`` (rung j is ``deltas[j]``),
    worked out only at the rungs where they change.

    The walk builds its first rung and finds from it the ranks at which the
    chain components change (``chains.cycle_ranks``).  Digraphs are built at
    the rungs where the components change and at those a caller asks for
    (``digraphs``), once each, and none is kept.  Tarjan runs only where the
    components change: a rung without a change has the SCCs of the digraph
    built before it.

    Going up, edges are only added.  While a component keeps its vertex set
    and period m, its labels stay put: every old edge is still an edge and
    still advances the class by one, and a strongly connected digraph of
    period m has exactly one such labelling with min(C) in class 0.  An
    arriving internal edge off the labelling closes a cycle whose length m
    does not divide, so the period falls exactly at the least rank of such
    an edge: the segment's end, found in one pass over its ranks.  More
    edges give more paths of every length, so the transient index never
    increases within a segment, and it changes only at a rung where an
    internal edge arrives.  It is probed by divide and conquer over those
    rungs; a probe reads the rows at its cut from each image's ranks to the
    component, past a segment's first rung by one bisection per node in
    those ranks kept sorted with running ORs.  The merge-law pairs at a cut
    are the cross-class pairs within it.
    """

    def __init__(self, system: FiniteSystem, deltas: Iterable):
        resolved = [_resolution(system, d) for d in deltas]
        if not resolved:
            raise EmptyLadder("a walk needs at least one resolution")
        self.system = system
        self.deltas = [d for d, _ in resolved]
        self.cuts = [c for _, c in resolved]
        # cut_a < cut_b gives a < b, as level[cut_b] <= b and a < level[cut_a + 1],
        # so only the rungs whose cuts do not ascend are compared as Fractions
        cuts, deltas = self.cuts, self.deltas
        if any(deltas[j] >= deltas[j + 1]
               for j in compress(range(len(cuts) - 1), map(int.__ge__, cuts, cuts[1:]))):
            raise InvariantViolation("walk resolutions must ascend")
        self._first: ChainDigraph | None = build_chain_digraph(system, self.deltas[0])
        self._change_ranks = cycle_ranks(self._first, self.cuts[-1])
        # the rungs whose components differ from the rung before, and rung 0
        self.changes = self.component_changes(range(len(self.cuts)))
        self._epochs: list[tuple[frozenset[str], ...]] = []
        self._tracks: dict[frozenset[str], list[_Segment]] = {}

    def component_changes(self, rungs: Sequence[int]) -> list[int]:
        """The positions p of the ascending ``rungs`` at which the chain
        components differ from those at ``rungs[p - 1]``, and position 0."""
        cuts = [self.cuts[j] for j in rungs]
        return sorted({0, *(bisect_left(cuts, r) for r in self._change_ranks)} - {len(cuts)})

    def digraphs(self, rungs: Iterable[int]) -> Iterator[tuple[int, ChainDigraph]]:
        """(j, digraph of rung j) for each of the ``rungs``, in ascending
        order; the rungs where the components change are built on the way."""
        want = set(rungs)
        dg = None
        for j in sorted(want.union(self.changes[len(self._epochs):])):
            built = len(self._epochs)
            change = built < len(self.changes) and self.changes[built] == j
            if j == 0 and self._first is not None:
                dg, self._first = self._first, None
            else:
                # every change rung up to j is built by now, so a rung with
                # no change has the components of the digraph built before it
                dg = build_chain_digraph(self.system, self.deltas[j],
                                         None if change else dg)
            if change:
                self._epochs.append(chain_components(dg))
            if j in want:
                yield j, dg

    def components(self, j: int) -> tuple[frozenset[str], ...]:
        """The chain components at rung j, in ``chain_components`` order."""
        if len(self._epochs) < len(self.changes):
            for _ in self.digraphs(()):
                pass
        return self._epochs[bisect_right(self.changes, j) - 1]

    def span(self, comp: frozenset[str]) -> tuple[int, int] | None:
        """The first and last rung at which comp is a chain component, or
        None: the rungs form an interval, as the components only coarsen."""
        return self._spans.get(comp)

    @cached_property
    def _spans(self) -> dict[frozenset[str], tuple[int, int]]:
        ends = [*self.changes[1:], len(self.cuts)]
        spans: dict[frozenset[str], tuple[int, int]] = {}
        for start, end in zip(self.changes, ends):
            for comp in self.components(start):
                spans[comp] = (spans.get(comp, (start,))[0], end - 1)
        return spans

    def _track(self, comp: frozenset[str]) -> list[_Segment]:
        """The segments of comp over its span, each labelled from the ranks
        at its first rung and ended by the least rank of an internal edge off
        its labelling."""
        track = self._tracks.get(comp)
        if track is not None:
            return track
        sys, cuts = self.system, self.cuts
        ranks = sys.ranks
        nodes = sorted(comp)
        images = list(map(sys.apply, nodes))
        cols = [ranks.index[v] for v in nodes]
        # each image's ranks to the nodes, in node order
        lines = {w: list(map(ranks.rank[w].__getitem__, cols)) for w in set(images)}
        bits = [1 << i for i in range(len(nodes))]
        # each image's ranks ascending, with the running ORs of the bits of
        # their nodes: built once a probe past a segment's first rung needs them
        tables: dict[str, tuple[list[int], list[int]]] = {}

        def rows(cut: int, first: bool) -> list[int]:
            if first and not tables:
                # bits are distinct powers of two, so their sum is their union
                row = {w: sum(compress(bits, map(cut.__ge__, rs))) for w, rs in lines.items()}
            else:
                if not tables:
                    for w, rs in lines.items():
                        order = sorted(range(len(rs)), key=rs.__getitem__)
                        tables[w] = (list(map(rs.__getitem__, order)),
                                     list(accumulate(map(bits.__getitem__, order), or_)))
                row = {w: ors[bisect_right(up, cut) - 1] for w, (up, ors) in tables.items()}
            return list(map(row.__getitem__, images))

        track = self._tracks[comp] = []
        j, end = self.span(comp)
        while j <= end:
            cut = cuts[j]
            succ = {w: list(compress(nodes, map(cut.__ge__, rs))) for w, rs in lines.items()}
            seg = _Segment(sys, comp, dict(zip(nodes, map(succ.__getitem__, images))), j)
            arrive: set[int] = set()
            if j < end:
                # the preimages in C of one image share their successors,
                # hence their class; every edge within the cut keeps the
                # labelling, so the least rank to a node off the next class
                # lies past it
                nxt = dict(zip(images, [(c + 1) % seg.period for c in seg.cls]))
                off = min(min(compress(lines[w], map(t.__ne__, seg.cls)),
                              default=len(ranks.scaled)) for w, t in nxt.items())
                seg.last = last = min(end, bisect_left(cuts, off) - 1)
                # the rungs past the first at which an internal edge arrives
                window = range(cut + 1, cuts[last] + 1)
                arrive = {bisect_left(cuts, r, j + 1, last + 1) for rs in lines.values()
                          for r in filter(window.__contains__, rs)}
            seg.settle([j, *sorted(arrive)], lambda k: _transient_index(
                rows(cuts[k], k == seg.first), seg.cls, seg.period))
            track.append(seg)
            j = seg.last + 1
        return track

    def decomposition(self, j: int, comp: frozenset[str]) -> CyclicDecomposition | None:
        """What ``cyclic_classes`` returns for comp at rung j; None when comp
        is not a chain component there."""
        span = self.span(comp)
        if span is None or not span[0] <= j <= span[1]:
            return None
        track = self._track(comp)
        seg = track[bisect_right([s.first for s in track], j) - 1]
        return seg.decomposition(j, self.deltas[j], self.cuts[j])

    def decompositions(self, j: int) -> tuple[CyclicDecomposition, ...]:
        return tuple(self.decomposition(j, comp) for comp in self.components(j))

    def changed_rows(self, rungs: Sequence[int]) -> list[CyclicDecomposition]:
        """The decompositions at the ascending ``rungs`` of a component that
        is new there or whose period, transient index or merge-law pairs
        differ from those at the rung before; in rung order, and at one rung
        in ``chain_components`` order.

        Such a row falls at a segment's first rung, at a fall of its
        transient index, and where a cross-class rank enters the cut, so
        each segment is visited once, not each rung."""
        cuts = [self.cuts[j] for j in rungs]
        hits = []
        for comp in self._spans:
            for seg in self._track(comp):
                pa, pb = bisect_left(rungs, seg.first), bisect_right(rungs, seg.last)
                if pa == pb:
                    continue
                at = {pa}
                at.update(bisect_left(rungs, j, pa, pb) for j in seg.starts[1:])
                lo, hi = (bisect_right(seg.cross_ranks, cuts[p]) for p in (pa, pb - 1))
                at.update(bisect_left(cuts, r, pa, pb) for r in seg.cross_ranks[lo:hi])
                at.discard(pb)
                # components at one rung are disjoint, so their least nodes order them
                hits += [(p, seg.nodes[0], seg) for p in at]
        hits.sort(key=lambda hit: hit[:2])
        return [seg.decomposition(rungs[p], self.deltas[rungs[p]], cuts[p])
                for p, _, seg in hits]

    def proximal(self, C, rungs: Sequence[int]) -> ProximalPartition:
        """Meet of the class partitions of C down the strictly descending
        ``rungs``, while C stays a chain component."""
        comp = frozenset(C)
        span = self.span(comp)
        if span is None or not span[0] <= rungs[0] <= span[1]:
            raise NotAComponent(f"{sorted(comp)} is not a chain component at the coarsest delta")
        used = list(takewhile(span[0].__le__, rungs))
        split_at = self.deltas[rungs[len(used)]] if len(used) < len(rungs) else None
        decomps = tuple(self.decomposition(j, comp) for j in used)
        # a segment's rungs share one labelling, which the meet reads once
        labels = [dec.class_of for i, dec in enumerate(decomps)
                  if i == 0 or dec.class_of is not decomps[i - 1].class_of]
        buckets: dict[tuple, list[str]] = {}
        for u in sorted(comp):
            buckets.setdefault(tuple(lab[u] for lab in labels), []).append(u)
        return ProximalPartition(comp, tuple(dec.delta for dec in decomps),
                                 tuple(tuple(b) for _, b in sorted(buckets.items())),
                                 decomps, split_at)


class ProximalPartition(NamedTuple):
    """Meet of the cyclic class partitions along a descending ladder.

    The ladder is truncated at the first resolution where the component
    stops being a single chain component; ``split_at`` records that
    resolution (None when the whole ladder survives).
    """

    component: frozenset[str]
    ladder: tuple[Fraction, ...]
    classes: tuple[tuple[str, ...], ...]
    per_delta: tuple[CyclicDecomposition, ...]
    split_at: Fraction | None = None


def _descending(ladder: Sequence) -> list[Fraction]:
    deltas = [Fraction(d) for d in ladder]
    if not deltas:
        raise EmptyLadder("ladder must contain at least one resolution")
    if any(a <= b for a, b in zip(deltas, deltas[1:])):
        raise EmptyLadder("ladder must be strictly descending")
    return deltas


def proximal_partition(sys: FiniteSystem, C, ladder: Sequence) -> ProximalPartition:
    """Common refinement of the per-resolution class partitions of C: one
    walk up the ladder, read down by ``LadderWalk.proximal``."""
    deltas = _descending(ladder)
    return LadderWalk(sys, reversed(deltas)).proximal(C, range(len(deltas) - 1, -1, -1))
