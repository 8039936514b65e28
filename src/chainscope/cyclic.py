"""Cyclic decomposition of chain components and the chain-proximal relation.

Each chain component C at resolution delta splits into m cyclic classes,
where m is the gcd of the lengths of all directed cycles inside C.  Chain
steps advance the class index by one (mod m), so two nodes admit a
connecting chain of length divisible by m exactly when they share a class.

Chain proximality is realized as product-digraph reachability: (x, y) is
chain proximal when synchronized chains of equal length lead both to a
common node.  For nodes of one component this agrees with class equality:
a same-class pair realizes a common length by the saturation law below,
while synchronized steps preserve the class difference forever.  The pair
(x, x) is proximal by the length-zero convention; loops of length m make
this agree with the positive-length convention for recurrent nodes.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

from .chains import ChainDigraph, build_chain_digraph, chain_components
from .errors import (CapExceeded, EmptyLadder, InvariantViolation, ModelInconsistency,
                     NotAComponent, NotInComponent)
from .graph import bfs_levels, period
from .systems import FiniteSystem


@dataclass(frozen=True)
class CyclicDecomposition:
    """Period, class labels and saturation index of one chain component."""

    system: FiniteSystem
    component: frozenset[str]
    delta: Fraction
    period: int
    class_of: Mapping[str, int]
    transient_index: int | None = None
    saturation_failed: bool = False
    p2_violations: tuple[tuple[str, str], ...] = ()

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


def _levels(dg: ChainDigraph, comp: frozenset[str]) -> tuple[dict[str, int], int]:
    """BFS levels from the smallest node, and the period of the component."""
    lvl = bfs_levels(dg.succ, min(comp), comp)
    m = period(dg.succ, lvl)
    if m == 0:
        raise InvariantViolation("a chain component always contains a cycle")
    return lvl, m


def component_period(dg: ChainDigraph, C) -> int:
    """gcd of the lengths of all directed cycles inside the component."""
    return _levels(dg, _require_component(dg, C))[1]


def transient_index(dg: ChainDigraph, C, cap: int | None = None) -> int:
    """Smallest N such that every same-class pair is joined by internal
    chains of every length m*n with N <= n <= cap.

    Works on boolean powers of the m-th power of the internal adjacency.
    Once every same-class pair is reachable the property persists (each node
    keeps an incoming length-m path), so saturation is checked at N and
    re-verified one step later.  Default cap is the primitivity bound
    (|C|-1)^2 + 2.
    """
    comp = _require_component(dg, C)
    return _transient_index(dg, comp, *_levels(dg, comp), cap)


def _transient_index(dg: ChainDigraph, comp: frozenset[str], lvl: Mapping[str, int],
                     m: int, cap: int | None) -> int:
    if cap is None:
        cap = (len(comp) - 1) ** 2 + 2
    if cap < 1:
        raise CapExceeded(cap, 0.0)
    nodes = sorted(comp)
    idx = {u: i for i, u in enumerate(nodes)}
    k = len(nodes)
    cls = [lvl[u] % m for u in nodes]
    # rows as bitmasks
    adj = [0] * k
    for u in comp:
        for w in dg.succ[u]:
            if w in comp:
                adj[idx[u]] |= 1 << idx[w]

    def matmul(a: list[int], b: list[int]) -> list[int]:
        out = [0] * k
        for i in range(k):
            row, bits = 0, a[i]
            while bits:
                j = (bits & -bits).bit_length() - 1
                bits &= bits - 1
                row |= b[j]
            out[i] = row
        return out

    step = adj
    for _ in range(m - 1):
        step = matmul(step, adj)
    want = [0] * k
    for i in range(k):
        for j in range(k):
            if cls[i] == cls[j]:
                want[i] |= 1 << j
    power = step
    best_cover = 0.0
    for n in range(1, cap + 1):
        covered = sum((power[i] & want[i]).bit_count() for i in range(k))
        total = sum(w.bit_count() for w in want)
        best_cover = max(best_cover, covered / total)
        if all((power[i] & want[i]) == want[i] for i in range(k)):
            nxt = matmul(power, step)
            if not all((nxt[i] & want[i]) == want[i] for i in range(k)):
                raise InvariantViolation("saturation must persist one step after it holds")
            return n
        power = matmul(power, step)
    raise CapExceeded(cap, best_cover)


def cyclic_classes(dg: ChainDigraph, C, *, compute_transient: bool = True,
                   cap: int | None = None, p2: str = "raise") -> CyclicDecomposition:
    """Cyclic class labels of a component (BFS level mod period).

    Validates the merge law: nodes of one component within delta of each
    other must share a class.  ``p2="raise"`` raises ModelInconsistency on a
    violating pair, ``p2="record"`` stores the pairs instead; coincidences in
    an adversarial metric can genuinely produce such pairs.
    """
    comp = _require_component(dg, C)
    lvl, m = _levels(dg, comp)
    class_of = {u: lvl[u] % m for u in comp}
    if len(set(class_of.values())) != m:
        raise InvariantViolation("every cyclic class of a component is nonempty")
    ranks = dg.system.ranks
    cut = ranks.cut(dg.delta)
    violations = []
    nodes = sorted(comp)
    for i, u in enumerate(nodes):
        row = ranks.rank[u]
        for v in nodes[i + 1:]:
            if row[ranks.index[v]] <= cut and class_of[u] != class_of[v]:
                if p2 == "raise":
                    raise ModelInconsistency("class merge law", (u, v))
                violations.append((u, v))
    n_index = None
    failed = False
    if compute_transient:
        try:
            n_index = _transient_index(dg, comp, lvl, m, cap)
        except CapExceeded:
            failed = True
    return CyclicDecomposition(dg.system, comp, dg.delta, m, class_of,
                               n_index, failed, tuple(violations))


def chain_proximal_at(dg: ChainDigraph, C, x: str, y: str) -> bool:
    """True iff a diagonal pair is reachable from (x, y) in the product
    digraph restricted to the component (paths of length >= 0)."""
    comp = _require_component(dg, C)
    for p in (x, y):
        if p not in comp:
            raise NotInComponent(f"{p!r} is not in the component")
    if x == y:
        return True
    seen = {(x, y)}
    frontier = [(x, y)]
    while frontier:
        u, v = frontier.pop()
        for uu in dg.succ[u]:
            if uu not in comp:
                continue
            for vv in dg.succ[v]:
                if vv not in comp or (uu, vv) in seen:
                    continue
                if uu == vv:
                    return True
                seen.add((uu, vv))
                frontier.append((uu, vv))
    return False


@dataclass(frozen=True)
class ProximalPartition:
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


def proximal_partition(sys: FiniteSystem, C, ladder: Sequence, *,
                       p2: str = "raise") -> ProximalPartition:
    """Common refinement of the per-resolution class partitions of C."""
    deltas = [Fraction(d) for d in ladder]
    if not deltas:
        raise EmptyLadder("ladder must contain at least one resolution")
    if any(a <= b for a, b in zip(deltas, deltas[1:])):
        raise EmptyLadder("ladder must be strictly descending")
    comp = frozenset(C)
    used: list[Fraction] = []
    decomps: list[CyclicDecomposition] = []
    split_at = None
    for i, d in enumerate(deltas):
        dg = build_chain_digraph(sys, d)
        comps_here = set(chain_components(dg))
        if comp not in comps_here:
            if i == 0:
                raise NotAComponent(
                    f"{sorted(comp)} is not a chain component at the coarsest delta")
            split_at = d
            break
        used.append(d)
        decomps.append(cyclic_classes(dg, comp, compute_transient=False, p2=p2))
    signature = {u: tuple(dec.class_of[u] for dec in decomps) for u in comp}
    buckets: dict[tuple, list[str]] = {}
    for u in sorted(comp):
        buckets.setdefault(signature[u], []).append(u)
    classes = tuple(tuple(b) for _, b in sorted(buckets.items()))
    return ProximalPartition(comp, tuple(used), classes, tuple(decomps), split_at)
