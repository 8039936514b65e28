"""Finite metric systems and grid discretizations of interval/circle maps.

A :class:`FiniteSystem` is an exact desk-scale model of a dynamical system: a
finite point set with a rational metric and a total self-map.  All metric
axioms are checked at construction.  Downstream, a distance is compared with
a resolution through :class:`DistanceRanks`, the exact integer ranks of the
metric's values (never float thresholds).

Grid front-ends discretize a one-dimensional map by cell-center
representatives.  This is a heuristic model by design: exact claims are
reserved for finite systems and symbolic models, not for the continuous maps
the grids approximate.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import chain, repeat
from math import gcd, lcm
from operator import add, itemgetter
from typing import Mapping, NamedTuple, Sequence

from .errors import MetricViolation, PartialMap, SpecError

# Metric validation checks every (u, v, w) triple, n^3 comparisons done as
# n^2 / 2 row operations; beyond this size loading refuses rather than
# silently skipping axiom checks.
MAX_EXHAUSTIVE_POINTS = 512
# Validation scales the table to ints by the lcm of its denominators; an lcm
# so large that the scaled table would pass this many bits is refused too.
MAX_SCALED_TABLE_BITS = 2**28
# Fraction(str) builds 10**|e| for a decimal exponent e, in time that grows
# with |e|; a literal whose exponent passes this magnitude is refused.
MAX_EXPONENT = 1000


def rational_pair(value) -> tuple[int, int]:
    """The rational ``value`` as its reduced (numerator, denominator) ints,
    the denominator positive.  Every literal and value ``as_fraction`` takes
    is read here, and a load keeps each metric entry as this pair.

    ASCII digits, optionally over nonzero ASCII digits, are read with int()
    and gcd: the regex of Fraction(str) would read the same value from them.
    Every other value is parsed to a Fraction, a bool is refused, and so is
    a decimal exponent past ``MAX_EXPONENT``."""
    if isinstance(value, str) and value.isascii():
        num, slash, den = value.partition("/")
        if num.isdigit() and (den.isdigit() or not slash):
            try:
                p, q = int(num), int(den or 1)
            except ValueError as exc:  # more digits than int() reads
                raise SpecError(f"bad rational literal {value!r}") from exc
            if q:
                g = gcd(p, q)
                return p // g, q // g
    f = _fraction(value)
    return f.numerator, f.denominator


def ratio_text(p: int, q: int) -> str:
    """``str(Fraction(p, q))`` for ints p >= 0 and q > 0, from one gcd."""
    g = gcd(p, q)
    return f"{p // g}/{q // g}" if g != q else str(p // g)


def _fraction(value) -> Fraction:
    """``rational_pair``'s reading of any value but an ASCII 'p/q' string."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    if isinstance(value, str):
        try:
            # an "e" of a valid literal marks its exponent, an int literal;
            # text that int() refuses makes the literal invalid as well
            _, e, exp = value.lower().rpartition("e")
            if e and abs(int(exp)) > MAX_EXPONENT:
                raise SpecError(f"the exponent of {value!r} exceeds {MAX_EXPONENT} "
                                f"in magnitude")
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise SpecError(f"bad rational literal {value!r}") from exc
    if isinstance(value, float):
        try:
            return Fraction(value).limit_denominator(10**12)
        except (OverflowError, ValueError) as exc:
            raise SpecError(f"{value!r} is not a finite rational") from exc
    raise SpecError(f"cannot interpret {value!r} as a rational")


def as_fraction(value) -> Fraction:
    """Parse a rational from int, Fraction, or a 'p/q' string
    (``rational_pair``)."""
    return Fraction(*rational_pair(value))


class DistanceRanks(NamedTuple):
    """Exact integer stand-in for a finite metric.

    ``scaled`` holds the distinct pairwise distances times ``scale``, the
    lcm of their denominators, as strictly ascending ints: rank r stands for
    the level ``scaled[r] / scale``, built as a Fraction only by ``level``.
    ``rank[u][j]`` is the rank of d(u, names[j]), with ``names`` the sorted
    point names and ``index`` their positions.  Since the levels strictly
    ascend, for every rational delta d(u, v) <= delta holds iff the rank of
    (u, v) is at most ``cut(delta)``.
    """

    names: tuple[str, ...]
    index: Mapping[str, int]
    rank: Mapping[str, tuple[int, ...]]
    scale: int
    scaled: tuple[int, ...]

    def cut(self, delta: Fraction) -> int:
        """Index of the largest level <= delta (-1 when delta < 0).

        An int level s / scale is at most p / q iff s <= p * scale / q, and
        so iff s <= floor(p * scale / q): one int bisection, no Fraction
        comparison.
        """
        return bisect_right(self.scaled, delta.numerator * self.scale // delta.denominator) - 1

    def level(self, r: int) -> Fraction:
        """The distance of rank r, a new Fraction: read for a written value."""
        return Fraction(self.scaled[r], self.scale)


@dataclass(frozen=True)
class FiniteSystem:
    """Finite metric space with a total self-map.

    ``rows[i][k]`` is d(points[i], points[k]) times ``scale``, the lcm of the
    table's denominators: the validated metric as exact ints, zero diagonal
    included.  ``map`` sends every point to its image.
    """

    points: tuple[str, ...]
    scale: int
    rows: tuple[tuple[int, ...], ...]
    map: Mapping[str, str]
    labels: Mapping[str, str] = field(default_factory=dict)

    def distance(self, u: str, v: str) -> Fraction:
        ranks = self.ranks
        return ranks.level(ranks.rank[u][ranks.index[v]])

    def apply(self, u: str) -> str:
        return self.map[u]

    @cached_property
    def ranks(self) -> DistanceRanks:
        """Distance ranks, sorted once on first use rather than at load.

        The levels are sorted and keyed as the stored scaled ints; scaling
        by a positive constant keeps their order.
        """
        points, rows = self.points, self.rows
        order = sorted(range(len(points)), key=points.__getitem__)
        names = tuple(map(points.__getitem__, order))
        scaled = tuple(sorted(set(chain.from_iterable(rows))))
        level_of = dict(zip(scaled, range(len(scaled)))).__getitem__
        rank = {points[i]: tuple(map(level_of, map(rows[i].__getitem__, order))) for i in order}
        return DistanceRanks(names, dict(zip(names, range(len(names)))), rank, self.scale, scaled)

    @cached_property
    def orbit_floor(self) -> Mapping[str, tuple[int, ...]]:
        """``orbit_floor[u][j]``: the least rank of d(f^t u, f^t v) over t >= 0,
        for v = ``ranks.names[j]``.

        The floors are filled by image layers: X_0 holds every point and
        X_(k+1) = f(X_k), down to the periodic set P with f(P) = P.  On
        P x P the pair map (u, v) -> (f u, f v) is a permutation, so one walk
        per pair cycle gives its pairs the cycle's least rank.  Then, from
        the innermost layer out, each u in X_k but not in X_(k+1) takes
        floor(u, v) = min(rank(u, v), floor(f u, f v)) for every v in X_k,
        in one C-level pass written to its row and, by symmetry, to its
        column: f u and f v lie in X_(k+1), whose pairs are done.  The
        points are laid out P first, then the layers inward to outward, so
        X_k is a prefix and a row or a column is one slice of the flat table.
        """
        ranks = self.ranks
        names, rank, index = ranks.names, ranks.rank, ranks.index
        n = len(names)
        img = [index[self.map[u]] for u in names]
        core = list(range(n))
        layers = []  # X_k minus X_(k+1), for k = 0, 1, ...
        while True:
            image = set(map(img.__getitem__, core))
            if len(image) == len(core):
                break
            layers.append([u for u in core if u not in image])
            core = [u for u in core if u in image]
        order = core + [u for layer in reversed(layers) for u in layer]
        pos = [0] * n
        for p, u in enumerate(order):
            pos[u] = p
        step = [pos[img[u]] for u in order]
        rows = [rank[names[u]] for u in order]
        floor = [0] * (n * n)  # floor[p * n + q] for the points at positions p, q
        m = len(core)
        nxt = [-1] * (n * n)  # the image of each pair of P x P, -1 once its floor is set
        for p in range(m):
            floor[p * n:p * n + m] = map(rows[p].__getitem__, core)
            nxt[p * n:p * n + m] = map((step[p] * n).__add__, step[:m])
        for start in range(m * n):
            if nxt[start] < 0:
                continue
            cycle = [start]
            c = nxt[start]
            while c != start:
                cycle.append(c)
                c = nxt[c]
            low = min(map(floor.__getitem__, cycle))
            for c in cycle:
                floor[c] = low
                nxt[c] = -1
        for layer in reversed(layers):
            top = m + len(layer)  # |X_k|: the layer's points sit at [m, top)
            ids, images = order[:top], step[:top]
            for p in range(m, top):
                at = step[p] * n
                inner = floor[at:at + m]  # the floors from f u, over X_(k+1)
                floor[p * n:p * n + top] = floor[p:p + top * n:n] = list(
                    map(min, map(rows[p].__getitem__, ids), map(inner.__getitem__, images)))
            m = top
        return {u: tuple(map(floor[p * n:(p + 1) * n].__getitem__, pos))
                for u, p in zip(names, pos)}


def _validated_rows(points, table) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """(scale, rows) for the symmetric table ``table[i][k]`` of reduced
    (numerator, denominator) pairs of d(points[i], points[k]), returned once
    every metric axiom holds.

    ``scale`` is the lcm of the table's denominators and ``rows[i][k]`` the
    int d(points[i], points[k]) * scale, so each axiom is checked in exact
    integer arithmetic.  A scale so large that the table would pass
    ``MAX_SCALED_TABLE_BITS`` bits is refused with SpecError.  Since d(w, v)
    is ``rows[j][k]`` for v = points[j], the triangle inequality at (u, v)
    over every w is one test on ``rows[i] + rows[j]``
    (``_first_broken_pair``).  The violating ordered pairs form a symmetric
    set without diagonal pairs, so the first one in point order has u before
    v: scanning those pairs, and a failing pair for its first w, names the
    witness of the plain triple loop over (u, v, w).
    """
    n = len(points)
    if n > MAX_EXHAUSTIVE_POINTS:
        raise SpecError(
            f"system has {n} points; exhaustive metric validation "
            f"is capped at {MAX_EXHAUSTIVE_POINTS}"
        )
    denominators = {q for row in table for _, q in row}
    scale = 1
    for q in denominators:
        scale = lcm(scale, q)
        if scale.bit_length() * n * n > MAX_SCALED_TABLE_BITS:
            raise SpecError(
                f"metric denominators have an lcm of over {scale.bit_length()} bits; "
                f"the scaled {n}-point table would exceed {MAX_SCALED_TABLE_BITS} bits"
            )
    factor = {q: scale // q for q in denominators}
    rows = tuple(tuple([p * factor[q] for p, q in row]) for row in table)
    for i, u in enumerate(points):
        if rows[i][i] != 0:
            raise MetricViolation("definiteness", (u, u))
    for i, u in enumerate(points):
        for j in range(i + 1, n):
            if rows[i][j] <= 0:
                raise MetricViolation("definiteness", (u, points[j]))
    hit = _first_broken_pair(rows)
    if hit is not None:
        i, j = hit
        ru, rv = rows[i], rows[j]
        k = next(k for k in range(n) if ru[j] > ru[k] + rv[k])
        raise MetricViolation("triangle", (points[i], points[j], points[k]))
    return scale, rows


def _first_broken_pair(rows: Sequence[Sequence[int]]) -> tuple[int, int] | None:
    """The first pair i < j, in row order, with rows[i][j] > rows[i][k] +
    rows[j][k] for some k; None when the triangle inequality holds.

    Entries are nonnegative, and twice the largest is below 2^(width - 1).
    So each pair is one int expression on rows packed into lanes of
    ``width`` bits: lane k of packed[i] + high + packed[j] - rows[i][j] *
    ones is 2^(width - 1) + rows[i][k] + rows[j][k] - rows[i][j], which lies
    in [0, 2^width).  No lane carries into or borrows from the next, and a
    lane keeps its high bit exactly when rows[i][k] + rows[j][k] >=
    rows[i][j].  Lanes wider than 64 bits would make rows[i][j] * ones a
    long multiplication, so such tables compare rows[i][j] with the least
    entry of the summed rows instead.
    """
    n = len(rows)
    width = (2 * max(map(max, rows))).bit_length() + 1
    if width > 64:
        for i, ru in enumerate(rows):
            for j in range(i + 1, n):
                if ru[j] > min(map(add, ru, rows[j])):
                    return i, j
        return None
    packed = [_pack(row, width) for row in rows]
    ones = _pack([1] * n, width)
    high = ones << (width - 1)
    for i, ru in enumerate(rows):
        pu = packed[i] + high
        for j in range(i + 1, n):
            if (pu + packed[j] - ru[j] * ones) & high != high:
                return i, j
    return None


def _pack(row: Sequence[int], width: int) -> int:
    """The int holding ``row[k]`` in bits [k * width, (k + 1) * width), for
    entries below 2^width; neighbours are joined pairwise, doubling the
    lane width each round."""
    while len(row) > 1:
        if len(row) % 2:
            row = [*row, 0]
        row = [a | b << width for a, b in zip(row[::2], row[1::2])]
        width *= 2
    return row[0]


def finite_system(points, mapping, metric, labels=None, default=None) -> FiniteSystem:
    """Build and validate a FiniteSystem from plain containers.

    ``metric`` maps pairs (u, v) to distances, or is a sequence of ((u, v),
    d) entries.  It may list each unordered pair once; it is symmetrized,
    and a pair given twice with two values, in either order, is refused.  A
    diagonal pair it leaves out is 0, and a distinct pair it leaves out is
    ``default`` (refused when ``default`` is None).  Each distance is read
    once, by ``rational_pair``, and kept as its reduced int pair.
    """
    fill = None if default is None else rational_pair(default)
    pts = tuple(str(p) for p in points)
    if not pts:
        raise SpecError("a finite system needs at least one point")
    index = {u: i for i, u in enumerate(pts)}
    if len(index) != len(pts):
        raise SpecError("duplicate point identifiers")
    n = len(pts)
    # symmetric by construction: each entry is written in both orders
    table: list[list[tuple[int, int] | None]] = [[None] * n for _ in pts]
    for (u, v), d in metric.items() if isinstance(metric, Mapping) else metric:
        if u not in index or v not in index:
            raise SpecError(f"metric entry for unknown pair ({u!r}, {v!r})")
        d = rational_pair(d)
        i, j = index[u], index[v]
        if table[i][j] is not None and table[i][j] != d:
            raise MetricViolation("symmetry", (u, v))
        table[i][j] = table[j][i] = d
    for i, row in enumerate(table):
        if row[i] is None:
            row[i] = (0, 1)
        for j in range(i + 1, n):
            if row[j] is None:
                if fill is None:
                    raise SpecError(f"metric is missing the pair ({pts[i]!r}, {pts[j]!r})")
                row[j] = table[j][i] = fill
    fmap: dict[str, str] = {}
    for u in pts:
        if u not in mapping:
            raise PartialMap(u)
        img = str(mapping[u])
        if img not in index:
            raise PartialMap(u)
        fmap[u] = img
    try:
        labels = dict(labels or {})
    except (TypeError, ValueError) as exc:
        raise SpecError(f"labels must map points to names: {exc}") from exc
    scale, rows = _validated_rows(pts, table)
    return FiniteSystem(pts, scale, rows, fmap, labels)


def compile_finite(desc: Mapping) -> FiniteSystem:
    """Compile a finite-system description (parsed JSON object).

    Recognized keys: ``points`` (a list), ``map`` (an object), ``metric``
    (list of ``[u, v, "p/q"]`` triples), optional ``metric_default`` for
    unlisted distinct pairs, optional ``labels`` (an object).  Every point
    name is a string, as JSON object keys are.  The metric literals and the
    default go to ``finite_system`` unparsed, the literals in order, and it
    reads each once.
    """
    try:
        points = desc["points"]
        raw_map = desc["map"]
    except (KeyError, TypeError) as exc:
        raise SpecError(f"finite system spec: missing points or map: {exc}") from exc
    if not isinstance(points, (list, tuple)):
        raise SpecError(f"finite system spec: points must be a list, got {points!r}")
    labels = desc.get("labels")
    for key, value in (("map", raw_map), ("labels", {} if labels is None else labels)):
        if not isinstance(value, Mapping):
            raise SpecError(f"finite system spec: {key} must be an object, "
                            f"got {type(value).__name__}")
    entries: list[tuple[tuple[str, str], object]] = []
    try:
        for entry in desc.get("metric", []):
            if len(entry) != 3:
                raise SpecError(f"bad metric entry {entry!r}")
            u, v, d = entry
            entries.append(((u, v), d))
    except TypeError as exc:
        raise SpecError(f"bad metric: {exc}") from exc
    # the all-strings test runs in C; the first offender is sought only on failure
    for where, names in (("points", points), ("map", [*raw_map, *raw_map.values()]),
                         ("metric", [*chain.from_iterable(map(itemgetter(0), entries))])):
        if not all(map(isinstance, names, repeat(str))):
            bad = next(u for u in names if not isinstance(u, str))
            raise SpecError(f"finite system spec: {where} names a point by {bad!r}, not a string")
    return finite_system(points, raw_map, entries, labels, desc.get("metric_default"))


# -- grid discretization -------------------------------------------------------

GRID_FAMILIES = ("tent", "rotation", "piecewise-linear")


class _GridMapSpecFields(NamedTuple):
    family: str
    cell_count: int
    geometry: str = "interval"
    slope: Fraction | None = None
    alpha: Fraction | None = None
    breakpoints: tuple[tuple[Fraction, Fraction], ...] | None = None


class GridMapSpec(_GridMapSpecFields):
    """Parameters of a 1-D map to discretize on cell centers.

    families:
      tent(slope)               on the interval [0, 1]
      rotation(alpha)           on the circle R/Z
      piecewise-linear(breaks)  on the interval, breaks = ((x, y), ...)
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.family not in GRID_FAMILIES:
            raise SpecError(f"unknown map family {self.family!r}")
        if self.cell_count < 2:
            raise SpecError("cell_count must be at least 2")
        if self.cell_count > MAX_EXHAUSTIVE_POINTS:  # before discretize's n^2 metric
            raise SpecError(f"cell_count is capped at {MAX_EXHAUSTIVE_POINTS}")
        if self.geometry not in ("interval", "circle"):
            raise SpecError(f"unknown geometry {self.geometry!r}")
        if self.family == "tent":
            if self.slope is None or not 0 < self.slope <= 2:
                raise SpecError("tent slope must lie in (0, 2]")
            if self.geometry != "interval":
                raise SpecError("tent map is an interval map")
        if self.family == "rotation":
            if self.alpha is None:
                raise SpecError("rotation needs alpha")
            if self.geometry != "circle":
                raise SpecError("rotation is a circle map")
        if self.family == "piecewise-linear":
            brk = self.breakpoints
            if not brk or len(brk) < 2:
                raise SpecError("piecewise-linear needs at least two breakpoints")
            xs = [b[0] for b in brk]
            if xs[0] != 0 or xs[-1] != 1 or any(a >= b for a, b in zip(xs, xs[1:])):
                raise SpecError("breakpoint x-values must ascend from 0 to 1")
            if any(not 0 <= b[1] <= 1 for b in brk):
                raise SpecError("breakpoint values must lie in [0, 1]")
        return self


def _tent(slope: Fraction, x: Fraction) -> Fraction:
    return slope * x if x <= Fraction(1, 2) else slope * (1 - x)


def _piecewise(brk, x: Fraction) -> Fraction:
    for (x0, y0), (x1, y1) in zip(brk, brk[1:]):
        if x0 <= x <= x1:
            return y0 + (y1 - y0) * (x - x0) / (x1 - x0)
    raise SpecError(f"breakpoints do not cover {x}")


def _evaluate(spec: GridMapSpec, x: Fraction) -> Fraction:
    if spec.family == "tent":
        return _tent(spec.slope, x)
    if spec.family == "rotation":
        return (x + spec.alpha) % 1
    return _piecewise(spec.breakpoints, x)


def discretize(spec: GridMapSpec) -> FiniteSystem:
    """Discretize a 1-D map onto cell-center representatives.

    Points are cell centers, the metric is the geometry distance between
    centers, and the image of a cell is the cell containing the image of its
    center, in exact rational arithmetic (the model is a non-rigorous
    representative-point discretization all the same).
    """
    n = spec.cell_count
    names = tuple(f"c{i}" for i in range(n))
    centers = [Fraction(2 * i + 1, 2 * n) for i in range(n)]
    mapping: dict[str, str] = {}
    for i, c in enumerate(centers):
        y = _evaluate(spec, c)
        # half-open cells [j/n, (j+1)/n); the right endpoint 1 belongs to
        # the last cell
        j = min(int(y * n), n - 1) if y >= 0 else 0
        mapping[names[i]] = names[j]
    metric: dict[tuple[str, str], Fraction] = {}
    for i in range(n):
        for j in range(i + 1, n):
            gap = abs(centers[i] - centers[j])
            if spec.geometry == "circle":
                gap = min(gap, 1 - gap)
            metric[(names[i], names[j])] = gap
    return finite_system(names, mapping, metric)
