"""Vertex shifts: symbol graphs, eventually periodic points, shift dynamics.

Points of a vertex shift are one-sided infinite vertex sequences following
the edges of a finite digraph.  This module works with the eventually
periodic points only: they are dense in the shift space, have finite
canonical descriptions (head + primitive cycle), and make every comparison
exact.  The metric is 2^(-k) where k is the first index at which two
sequences differ; it is our fixed choice of sequence-space metric and all
stated tolerances are relative to it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import chain, compress, cycle, repeat
from operator import add, ne, truediv
from typing import NamedTuple

from .errors import InvalidPoint, NoConvergence, SpecError
from .graph import classes, strongly_connected_components

ENTROPY_MAX_ITER = 500_000  # power iterations per strongly connected block
ENTROPY_TOL = 1e-9  # width of the log-radius bracket that stops the iteration


@dataclass(frozen=True)
class SftGraph:
    """Symbol graph of a vertex shift: square 0/1 adjacency matrix.

    The successor rows are computed at construction.  The graph's structure
    (transition set, strong blocks, cyclic classes, predecessor rows) is
    computed on first read and kept on the graph, as cached properties.
    """

    adjacency: tuple[tuple[int, ...], ...]
    _rows: tuple[tuple[int, ...], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        adj = self.adjacency
        n = len(adj)
        if n == 0 or set(map(len, adj)) != {n}:
            raise SpecError("adjacency must be a nonempty square matrix")
        if not set(chain.from_iterable(adj)) <= {0, 1}:
            raise SpecError("adjacency entries must be 0 or 1")
        # the first vertex without an outgoing or an incoming edge, the
        # outgoing side named first
        for v, out, into in zip(range(n), map(any, adj), map(any, zip(*adj))):
            if not out:
                raise SpecError(f"vertex {v} has no outgoing edge")
            if not into:
                raise SpecError(f"vertex {v} has no incoming edge")
        object.__setattr__(self, "_rows", tuple(tuple(compress(range(n), row)) for row in adj))

    @property
    def vertex_count(self) -> int:
        return len(self.adjacency)

    def is_edge(self, a: int, b: int) -> bool:
        return self.adjacency[a][b] == 1

    def successors(self, v: int) -> tuple[int, ...]:
        return self._rows[v]

    @cached_property
    def edges(self) -> frozenset[tuple[int, int]]:
        """The transitions (a, b) of the graph."""
        return frozenset((a, b) for a, row in enumerate(self._rows) for b in row)

    @cached_property
    def blocks(self) -> tuple[tuple[int, ...], ...]:
        """The strongly connected blocks, sinks first."""
        return tuple(strongly_connected_components(dict(enumerate(self._rows))))

    @cached_property
    def classes(self) -> tuple[tuple[int, ...], int]:
        """Cyclic class of each vertex and the period of an irreducible graph:
        one ``graph.classes`` search from vertex 0."""
        if len(self.blocks) != 1:
            raise SpecError("graph period is defined for irreducible graphs")
        labels, m = classes(dict(enumerate(self._rows)), 0)
        return tuple(map(labels.__getitem__, range(self.vertex_count))), m

    @cached_property
    def preds(self) -> tuple[tuple[int, ...], ...]:
        """Predecessors of each vertex, in ascending order."""
        preds: list[list[int]] = [[] for _ in self._rows]
        for u, row in enumerate(self._rows):
            for v in row:
                preds[v].append(u)
        return tuple(map(tuple, preds))


def full_shift(symbols: int) -> SftGraph:
    return SftGraph(tuple(tuple(1 for _ in range(symbols)) for _ in range(symbols)))


def canonical_form(head, cycle) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Reduce (head, cycle) so the cycle is primitive and the head minimal.

    A description is canonical when the cycle is not a power of a shorter
    word and the last head symbol cannot be absorbed by rotating the cycle.
    Canonical descriptions are unique, so point equality is syntactic.
    Absorbing t head symbols rotates the cycle right by t, so the count is
    found first and the head cut once.
    """
    head = tuple(head)
    cycle = tuple(cycle)
    if not cycle:
        raise InvalidPoint("cycle must be nonempty")
    p = len(cycle)
    for d in range(1, p):
        if p % d == 0 and cycle == cycle[:d] * (p // d):
            cycle = cycle[:d]
            p = d
            break
    t, h = 0, len(head)
    while t < h and head[h - 1 - t] == cycle[(-1 - t) % p]:
        t += 1
    if t:
        r = p - t % p
        head, cycle = head[:h - t], cycle[r:] + cycle[:r]
    return head, cycle


class _SftPointFields(NamedTuple):
    head: tuple[int, ...]
    cycle: tuple[int, ...]


class SftPoint(_SftPointFields):
    """Eventually periodic point: symbols head[0..] then cycle repeated.

    The constructor canonicalizes, so equal points compare equal and hash
    alike.  A point is an immutable tuple (head, cycle).
    """

    __slots__ = ()

    def __new__(cls, head, cycle):
        return tuple.__new__(cls, canonical_form(head, cycle))

    def symbol(self, i: int) -> int:
        if i < len(self.head):
            return self.head[i]
        return self.cycle[(i - len(self.head)) % len(self.cycle)]

    def expand(self, n: int) -> list[int]:
        word = list(self.head[:n])
        if len(word) < n:
            reps = -(-(n - len(word)) // len(self.cycle))
            word.extend((self.cycle * reps)[:n - len(word)])
        return word

    def __str__(self) -> str:
        h = " ".join(map(str, self.head))
        c = " ".join(map(str, self.cycle))
        return f"{h}|{c}"


def parse_point(text: str) -> SftPoint:
    """Parse 'h0 h1 ... | c0 c1 ...' (head may be empty)."""
    head_s, bar, cycle_s = text.partition("|")
    if not bar:
        raise SpecError(f"point text needs a '|' separator: {text!r}")
    try:
        head = tuple(map(int, head_s.split()))
        cycle = tuple(map(int, cycle_s.split()))
    except ValueError as exc:
        raise SpecError(f"bad point text {text!r}") from exc
    return SftPoint(head, cycle)


def validate_point(g: SftGraph, p: SftPoint) -> None:
    """Check that head + cycle + the cycle's first symbol is an admissible
    path: that word has every transition of the point.  Every symbol lies on
    one of them, so an admissible word has no symbol out of range; only a
    word that fails is searched for its first offender."""
    head, cyc = p
    word = head + cyc + cyc[:1]
    if g.edges.issuperset(zip(word, word[1:])):
        return
    n = g.vertex_count
    for s in word:
        if not 0 <= s < n:
            raise InvalidPoint(f"symbol {s} outside vertex range of the graph")
    adjacency = g.adjacency
    for a, b in zip(word, word[1:]):
        if not adjacency[a][b]:
            raise InvalidPoint(f"forbidden transition {a}->{b} in {p}")


def shift_by(x: SftPoint, k: int) -> SftPoint:
    """Shift k times, without checking the point against a graph.

    The shift of a canonical point is canonical: a suffix of its head keeps
    the last head symbol, which the cycle cannot absorb, and a rotation of a
    primitive cycle is primitive.  So the result is built as the tuple the
    constructor would return, without canonicalizing again.
    """
    head, cyc = x
    if k <= len(head):
        return tuple.__new__(SftPoint, (head[k:], cyc))
    r = (k - len(head)) % len(cyc)
    return tuple.__new__(SftPoint, ((), cyc[r:] + cyc[:r]))


def first_difference(x: SftPoint, y: SftPoint, i: int = 0) -> int | None:
    """Index of the first symbol at which shift^i x and y differ, or None
    when they are equal: the depth k of their distance 2^(-k).

    A difference, if any, shows up before max(head lengths) + lcm(cycle
    lengths): beyond the heads both sequences are periodic with the lcm as a
    common period.  The words are read lazily, x's head by index from i on,
    so the work follows the scan and not the length of a long head (a
    shadow's).
    """
    xh, xc = x
    yh, yc = y
    p, q = len(xc), len(yc)
    lx = len(xh) - i  # symbols of x's head left after the shift
    bound = max(lx, len(yh)) + math.lcm(p, q)
    r = -lx % p  # where in its cycle shift^i x starts, once past the head
    xs = (chain(map(xh.__getitem__, range(i, len(xh))), cycle(xc)) if lx > 0
          else cycle(xc[r:] + xc[:r]))
    ys = chain(yh, cycle(yc))
    return next(compress(range(bound), map(ne, xs, ys)), None)


def dyadic_depth(r: Fraction, strict: bool = False) -> int | None:
    """The least k >= 0 with 2^(-k) <= r (with 2^(-k) < r when ``strict``);
    None when r <= 0, where no k qualifies.

    So 2^(-k) > r iff k < dyadic_depth(r), and 2^(-k) < r iff
    k >= dyadic_depth(r, strict=True).  For r = p / q > 0, 2^(-k) <= r iff
    2^k >= ceil(q / p), and 2^(-k) < r iff 2^k > floor(q / p): int
    arithmetic only.
    """
    p, q = r.numerator, r.denominator
    if p <= 0:
        return None
    return (q // p).bit_length() if strict else (-(-q // p) - 1).bit_length()


@lru_cache(maxsize=1024)
def dyadic(k: int | None) -> Fraction:
    """The distance 2^(-k) of depth k, 0 for None; built once per depth."""
    return Fraction(0) if k is None else Fraction(1, 2**k)


def sft_distance(g: SftGraph, x: SftPoint, y: SftPoint) -> Fraction:
    """Exact 2^(-first difference) metric; 0 for equal points."""
    validate_point(g, x)
    validate_point(g, y)
    return dyadic(first_difference(x, y))


# -- graph structure -----------------------------------------------------------

def is_irreducible(g: SftGraph) -> bool:
    return len(g.blocks) == 1


def graph_period(g: SftGraph) -> int:
    """gcd of the cycle lengths of an irreducible graph."""
    return g.classes[1]


def vertex_classes(g: SftGraph) -> tuple[int, ...]:
    """Cyclic class (BFS level mod period) of each vertex."""
    return g.classes[0]


def path_length_cap(g: SftGraph) -> int:
    """Safe search cap: beyond it, every class-compatible length is realizable."""
    n = g.vertex_count
    return graph_period(g) * ((n - 1) * (n - 1) + 2) + n + 2


def _walk(g: SftGraph, a: int, layers: list[set[int]], length: int) -> list[int]:
    """Lexicographically smallest path of ``length`` edges from a through the
    backward layers of a target (layers[j]: the vertices that reach it in
    exactly j edges), given that a lies in layers[length]."""
    path = [a]
    for j in range(length - 1, -1, -1):
        path.append(min(w for w in g.successors(path[-1]) if w in layers[j]))
    return path


def _back_layer(preds, layer: set[int]) -> set[int]:
    """The vertices one edge before ``layer``."""
    return {u for v in layer for u in preds[v]}


def find_exact_path(g: SftGraph, a: int, b: int, length: int) -> list[int] | None:
    """Lexicographically smallest path from a to b with exactly ``length`` edges."""
    preds = g.preds
    layers = [{b}]
    for _ in range(length):
        layers.append(_back_layer(preds, layers[-1]))
    return _walk(g, a, layers, length) if a in layers[length] else None


def connecting_paths(g: SftGraph, currents, targets) -> list[list[int]]:
    """Lexicographically smallest paths current_j -> target_j, all of the
    least positive length at which every coordinate connects.

    The backward layers of each distinct target grow once, one length at a
    time, for every coordinate heading there.  On an irreducible graph such
    a length exists, within ``path_length_cap``, exactly when the coordinates
    share one class offset (target class - current class, mod the period);
    otherwise SpecError is raised.
    """
    preds = g.preds
    layers = {b: [{b}] for b in targets}
    for length in range(1, path_length_cap(g) + 1):
        for ls in layers.values():
            ls.append(_back_layer(preds, ls[-1]))
        if all(a in layers[b][length] for a, b in zip(currents, targets)):
            return [_walk(g, a, layers[b], length) for a, b in zip(currents, targets)]
    raise SpecError("no common-length connecting paths within the structural cap")


# -- entropy --------------------------------------------------------------------

def _block_rows(g: SftGraph, nodes: list[int]) -> list[list[tuple[int, int]]]:
    """Sparse rows of (block + identity): per node, the (column, weight) pairs
    of its nonzero entries in ascending column order, columns indexing
    ``nodes``."""
    col = {v: j for j, v in enumerate(nodes)}
    rows = []
    for i, u in enumerate(nodes):
        row = {col[v]: 1 for v in g.successors(u) if v in col}
        row[i] = row.get(i, 0) + 1
        rows.append(sorted(row.items()))
    return rows


def _block_radius_bracket(rows: list[list[tuple[int, int]]], tol: float,
                          max_iter: int) -> tuple[float, float]:
    """Bracket the spectral radius of one strongly connected block, given as
    the sparse rows of (block + identity) (``_block_rows``).

    Power iteration runs on (block + identity): the shift makes the matrix
    primitive, and for every positive vector the min/max component ratios of
    one multiplication enclose the shifted radius.

    The rows are grouped by length, and a group of width k keeps k column
    lists: the vector positions of each row's 1st, ..., k-th nonzero entry.
    One product is then, per group, a chain of C-level ``map(add, ...)`` over
    ``map(get, column)`` gathers, with no Python loop over rows.  A weight-2
    entry (a self-loop plus the identity) gathers from a doubled copy of the
    vector, which is built only when the block has one.  The vector is kept
    in group order; the min and max of the ratios and of the product do not
    depend on that order.

    The floats are those of the dense product: each row adds its nonzero
    terms left to right in column order, as ``sum`` does from its int 0
    (0 + x == x for the positive terms), 2 * x == x + x exactly, and the zero
    terms a dense sum would add leave its non-negative partial sums unchanged.
    """
    size = len(rows)
    by_width: dict[int, list[int]] = {}
    for i, row in enumerate(rows):
        by_width.setdefault(len(row), []).append(i)
    position = [0] * size
    for p, i in enumerate(chain.from_iterable(by_width.values())):
        position[i] = p
    # a weight-2 entry gathers from the doubled half, at its position + size
    groups = [[[position[j] + (w - 1) * size for j, w in column]
               for column in zip(*[rows[i] for i in group])]
              for group in by_width.values()]
    doubled = any(w == 2 for row in rows for _, w in row)
    vec = [1.0] * size
    lo, hi = 0.0, float("inf")
    for _ in range(max_iter):
        get = (vec + list(map(add, vec, vec)) if doubled else vec).__getitem__
        nxt: list[float] = []
        for first, *rest in groups:
            # nested as deep as the group's width, at most the block size
            total = map(get, first)
            for col in rest:
                total = map(add, total, map(get, col))
            nxt.extend(total)
        ratios = list(map(truediv, nxt, vec))
        lo = max(lo, min(ratios))
        hi = min(hi, max(ratios))
        if lo > 1.0 and math.log(hi - 1.0) - math.log(lo - 1.0) <= tol:
            return lo - 1.0, hi - 1.0
        vec = list(map(truediv, nxt, repeat(max(nxt), size)))
    raise NoConvergence(f"entropy bracket did not close in {max_iter} iterations")


def sft_entropy(g: SftGraph) -> float:
    """Topological entropy of the vertex shift: ln of the adjacency spectral
    radius, reported as the midpoint of [ln lo, ln hi] for a float bracket
    [lo, hi] whose log-width is at most ``ENTROPY_TOL``.  Rounding can move
    the bracket off the true radius, so ``ENTROPY_TOL`` bounds its width, not
    the error.

    The radius is the max over strongly connected blocks.  Single-cycle
    blocks have radius exactly 1; the rest are bracketed by power iteration.
    """
    lo_all, hi_all = 1.0, 1.0  # every valid graph contains a cycle
    for comp in g.blocks:
        rows = _block_rows(g, list(comp))
        internal = sum(w for row in rows for _, w in row) - len(rows)
        if internal <= len(rows):
            continue  # transient singleton or a single cycle (radius 0 or 1)
        lo, hi = _block_radius_bracket(rows, ENTROPY_TOL, ENTROPY_MAX_ITER)
        lo_all = max(lo_all, lo)
        hi_all = max(hi_all, hi)
    # width of [max lo_b, max hi_b] never exceeds the widest block bracket
    return 0.5 * (math.log(lo_all) + math.log(hi_all))
