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

Along an ascending ladder of resolutions edges are only added, so a
``CyclicSweep`` decomposes each component once per *segment*: a run of
consecutive steps at which it keeps its vertex set and period.  Within a
segment the classes are constant and the transient index never increases
(argument in the class docstring).  Every decomposition is read from a
segment: ``cyclic_classes`` is the one-step read of a fresh one, and
``proximal_partition`` walks its ladder into a sweep.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import compress, count
from operator import is_not
from typing import Iterable, KeysView, Mapping, NamedTuple, Sequence

from .chains import ChainDigraph, chain_components, ladder_digraphs
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


def _labels(dg: ChainDigraph, comp: frozenset[str]) -> tuple[dict[str, int], int]:
    """Class label (BFS level from the smallest node, mod the period) of
    every node, and the period (``graph.classes``).  ``comp`` comes from
    ``chain_components``, which keeps only SCCs with a cycle, so the period
    is at least 1."""
    return classes(dg.succ, min(comp), comp)


def _bits(dg: ChainDigraph, nodes: Sequence[str]) -> dict[str, int]:
    """Bit j for nodes[j] and 0 for every other point."""
    bit = dict.fromkeys(dg.succ, 0)
    bit.update((u, 1 << j) for j, u in enumerate(nodes))
    return bit


def _row(bit: Mapping[str, int], succ: Sequence[str]) -> int:
    """Internal adjacency of one node as a bitmask row, given ``_bits`` and
    its successor tuple (bit j: edge to nodes[j]).  A successor tuple names
    each successor once, so the sum of their bits is their union."""
    return sum(map(bit.__getitem__, succ))


def _members(cls: Sequence[int], m: int) -> list[int]:
    """Bitmask of the nodes of each class, given class ``cls[i]`` of node i."""
    out = [0] * m
    for i, c in enumerate(cls):
        out[c] |= 1 << i
    return out


def _cross_pairs(sys: FiniteSystem, nodes: Sequence[str],
                 class_of: Mapping[str, int]) -> list[tuple[int, str, str]]:
    """(rank of d(u, v), u, v) for every pair u < v in different classes, in
    node order; the merge law at a resolution forbids those within its cut."""
    ranks = sys.ranks
    out = []
    for i, u in enumerate(nodes):
        row = ranks.rank[u]
        out.extend((row[ranks.index[v]], u, v) for v in nodes[i + 1:]
                   if class_of[u] != class_of[v])
    return out


def component_period(dg: ChainDigraph, C) -> int:
    """gcd of the lengths of all directed cycles inside the component."""
    return _labels(dg, _require_component(dg, C))[1]


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
    seg = _Segment(dg, _require_component(dg, C), 0)
    return _transient_index(seg.adjacency[0], seg.cls, seg.period)


def _transient_index(rows: Sequence[int], cls: Sequence[int], m: int) -> int:
    """Transient index of the component with adjacency ``rows``, class
    ``cls[i]`` for node i and period m.

    Row i of a product a*b depends on row i of a alone, so equal left-hand
    rows give equal product rows, and ``matmul`` computes each distinct one
    once.  Rows repeat often: the preimages of one image share their
    successor tuple (``chains._row``), hence their row in every power."""
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
    one-step read of a fresh sweep segment.

    Records the pairs that break the merge law (nodes of one component
    within delta of each other must share a class) in ``p2_violations``;
    coincidences in an adversarial metric can genuinely produce such pairs.
    """
    return _Segment(dg, _require_component(dg, C), 0).decomposition(0, dg.cut, dg.delta)


class _Segment:
    """One component over a run of sweep steps with a fixed vertex set and
    period: its labels, merge-law pairs and the internal adjacency of each
    step as a tuple of bitmask rows, one per node.

    It keeps each node's successor tuple from its last step.  ``extend``
    re-sums only the rows whose tuple is a new object: a tuple never
    changes, so the same object is the same row, and ``ladder_digraphs``
    hands each step the very tuples of the rows it did not rebuild.  A
    step's rows share every unchanged row (and a step with no changed row
    its whole tuple) with the step before.  Digraphs built separately share
    no tuple, so every row is re-summed and checked."""

    def __init__(self, dg: ChainDigraph, comp: frozenset[str], first: int):
        self.system = dg.system
        self.component = comp
        self.nodes = sorted(comp)
        self.bit = _bits(dg, self.nodes)
        self.class_of, self.period = _labels(dg, comp)
        self.cls = [self.class_of[u] for u in self.nodes]
        members = _members(self.cls, self.period)
        # an edge from node i that leaves the next class breaks the period
        self.next_class = [members[(c + 1) % self.period] for c in self.cls]
        self.cross = _cross_pairs(dg.system, self.nodes, self.class_of)
        # with no cross pair, the number of levels lies above every cut
        self.least_cross = min((r for r, _, _ in self.cross),
                               default=len(dg.system.ranks.scaled))
        self.first = first
        self.succ = [dg.succ[u] for u in self.nodes]
        self.adjacency = [tuple(_row(self.bit, s) for s in self.succ)]
        self._transient: list | None = None

    def extend(self, dg: ChainDigraph) -> bool:
        """Take the next step if the component keeps its period there; the
        only-adds and period checks read the changed rows alone, as every
        other row passed them at an earlier step."""
        succ = list(map(dg.succ.__getitem__, self.nodes))
        # compress keeps the indices whose tuple is a new object
        changed = list(compress(count(), map(is_not, succ, self.succ)))
        last = self.adjacency[-1]
        rows = list(last)
        for i in changed:
            row = _row(self.bit, succ[i])
            if last[i] & ~row:
                raise InvariantViolation("a sweep must only add edges from step to step")
            rows[i] = row
        if any(rows[i] & ~self.next_class[i] for i in changed):
            return False
        self.succ = succ
        self.adjacency.append(tuple(rows) if changed else last)
        return True

    def violations(self, cut: int) -> tuple[tuple[str, str], ...]:
        if cut < self.least_cross:
            return ()
        return tuple((u, v) for r, u, v in self.cross if r <= cut)

    def transient(self, i: int) -> int:
        """Transient index at the i-th step of the segment.

        Divide and conquer: the index never increases along the segment, so
        equal values at both ends of a run fill the whole run.
        """
        if self._transient is None:
            vals: list = [None] * len(self.adjacency)

            def at(j: int) -> int:
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

    def decomposition(self, i: int, cut: int, delta: Fraction) -> CyclicDecomposition:
        """The decomposition at the sweep's step i, of cut ``cut`` and
        resolution ``delta``."""
        return CyclicDecomposition(self.system, self.component, delta, self.period,
                                   self.class_of, self.transient(i - self.first),
                                   self.violations(cut))


def _key(delta: Fraction) -> tuple[int, int]:
    """Dict key of a resolution: hashing a Fraction computes a modular
    inverse on every call, hashing its two ints does not."""
    return delta.numerator, delta.denominator


class CyclicSweep:
    """Cyclic decompositions of every chain component along an ascending
    sequence of step digraphs of one system.

    Going up, edges are only added.  While a component keeps its vertex set
    and period m, its labels stay put: every old edge is still an edge and
    still advances the class by one, and a strongly connected digraph of
    period m has exactly one such labelling with min(C) in class 0.  So the
    BFS, the period and the O(|C|^2) merge-law scan run once per segment.
    A step continues the segment when each of its edges inside C advances
    the class by one: then m divides every cycle length, and the old cycles
    keep the period a divisor of m.  More edges give more paths of every
    length, so the transient index never increases within a segment; it
    comes by Wielandt's bound (``transient_index``).  The merge law keeps
    the segment's least cross-class rank; a step whose cut lies below it
    has no violation.

    The work of a step follows what it changes.  A continued segment keeps
    its own frozenset as the key of every step, re-sums and checks only the
    rows whose successor tuple is new (``_Segment``), and shares the other
    rows with the step before.  Fed by ``ladder_digraphs``, that is the rows
    of the preimages of the images that gained a pair.

    Feed the steps in ascending order with ``add``; read them after the last
    step.  A one-step sweep is the decomposition of a single digraph.
    """

    def __init__(self, digraphs: Iterable[ChainDigraph] = ()):
        self._steps: dict[tuple[int, int], tuple[int, int, dict[frozenset[str], _Segment]]] = {}
        self._open: dict[frozenset[str], _Segment] = {}
        self._last: Fraction | None = None
        self._read = False
        for dg in digraphs:
            self.add(dg)

    def add(self, dg: ChainDigraph) -> None:
        if self._read:
            raise InvariantViolation("a sweep takes no step after it has been read")
        if self._last is not None and dg.delta <= self._last:
            raise InvariantViolation("sweep resolutions must ascend")
        i = len(self._steps)
        here: dict[frozenset[str], _Segment] = {}
        for comp in chain_components(dg):
            seg = self._open.get(comp)
            if seg is None or not seg.extend(dg):
                seg = _Segment(dg, comp, i)
            # one frozenset per segment, not the new one of every step
            here[seg.component] = seg
        self._open = here
        self._last = dg.delta
        self._steps[_key(dg.delta)] = (i, dg.cut, here)

    def components(self, delta: Fraction) -> KeysView[frozenset[str]]:
        """Chain components at a swept resolution, in ``chain_components`` order."""
        return self._steps[_key(delta)][2].keys()

    def decomposition(self, delta: Fraction, comp: frozenset[str]) -> CyclicDecomposition | None:
        """What ``cyclic_classes(dg, comp)`` returns at a swept
        resolution; None when comp is not a chain component there."""
        self._read = True
        i, cut, here = self._steps[_key(delta)]
        seg = here.get(comp)
        return None if seg is None else seg.decomposition(i, cut, delta)

    def decompositions(self, delta: Fraction) -> tuple[CyclicDecomposition, ...]:
        return tuple(self.decomposition(delta, comp) for comp in self.components(delta))

    def proximal(self, C, ladder: Sequence) -> ProximalPartition:
        """Meet of the class partitions of C down the strictly descending
        swept ``ladder``, while C stays a chain component."""
        comp = frozenset(C)
        decomps: list[CyclicDecomposition] = []
        split_at = None
        for d in _descending(ladder):
            dec = self.decomposition(d, comp)
            if dec is None:
                if not decomps:
                    raise NotAComponent(
                        f"{sorted(comp)} is not a chain component at the coarsest delta")
                split_at = d
                break
            decomps.append(dec)
        buckets: dict[tuple, list[str]] = {}
        for u in sorted(comp):
            buckets.setdefault(tuple(dec.class_of[u] for dec in decomps), []).append(u)
        classes = tuple(tuple(b) for _, b in sorted(buckets.items()))
        return ProximalPartition(comp, tuple(dec.delta for dec in decomps), classes,
                                 tuple(decomps), split_at)


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
    walk up the ladder into a sweep, read down by ``CyclicSweep.proximal``."""
    deltas = _descending(ladder)
    return CyclicSweep(ladder_digraphs(sys, reversed(deltas))).proximal(C, deltas)
