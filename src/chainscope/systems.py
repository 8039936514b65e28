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
from collections import deque
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import chain, compress, repeat
from math import gcd, lcm
from operator import add, eq, mul
from struct import Struct
from typing import Mapping, NamedTuple, NoReturn, Sequence

from .errors import InvariantViolation, MetricViolation, PartialMap, SpecError
from .graph import rho

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
        cols = rows if names == points else [tuple(map(r.__getitem__, order)) for r in rows]
        rank = {points[i]: tuple(map(level_of, cols[i])) for i in order}
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
            cycle = rho(nxt.__getitem__, start)[0]
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


def _first_broken_pair(rows: Sequence[Sequence[int]]) -> tuple[int, int] | None:
    """The first pair i < j, in row order, with rows[i][j] > rows[i][k] +
    rows[j][k] for some k; None when the triangle inequality holds.

    Rows of nonnegative entries are packed into lanes of c bytes, the least
    c with 2 * max < 2^(8c - 1), cut by strided copies from 8-byte items.
    Lane k of packed[i] + high + packed[j] - rows[i][j] * ones is 2^(8c - 1)
    + rows[i][k] + rows[j][k] - rows[i][j] in [0, 2^(8c)), so no lane carries
    or borrows and it keeps its high bit iff rows[i][k] + rows[j][k] >=
    rows[i][j].  Past 8 bytes (a long product) the least summed entry is used.
    """
    n = len(rows)
    c = ((2 * max(map(max, rows))).bit_length() + 8) // 8
    if c > 8:
        return next(((i, j) for i, ru in enumerate(rows) for j in range(i + 1, n)
                     if ru[j] > min(map(add, ru, rows[j]))), None)
    layout = Struct(f"<{n}Q")  # little-endian 8-byte items: their low c bytes come first

    def pack(row) -> int:
        items, lanes = layout.pack(*row), bytearray(c * n)
        for b in range(c):
            lanes[b::c] = items[b::8]
        return int.from_bytes(lanes, "little")
    packed = list(map(pack, rows))
    ones = pack([1] * n)
    high = ones << (8 * c - 1)
    for i, ru in enumerate(rows):
        pu = packed[i] + high
        for j in range(i + 1, n):
            if (pu + packed[j] - ru[j] * ones) & high != high:
                return i, j
    return None


def _literals(values) -> tuple[Sequence[int], Sequence[int]]:
    """(numerators, denominators) of ``values`` as ``rational_pair`` reads them,
    unreduced.  ASCII "p/q" (q > 0) and "p" (as p/1) strings are read in
    C-level passes over their joined text, each distinct q once; a batch with
    any other value is read value by value by ``rational_pair``."""
    try:
        bare = map(("/1", "").__getitem__, map(bool, map(str.count, values, repeat("/"))))
        pq = values if all(map(str.count, values, repeat("/"))) else map(str.__add__, values, bare)
        num, den = (pieces := "/".join(pq).split("/"))[::2], pieces[1::2]
        q_of = {d: int(d) for d in set(den)}
        if (len(pieces) == 2 * len(values) and all(num) and all(q_of.values())
                and (digits := "".join(num) + "".join(q_of)).isascii() and digits.isdigit()):
            return list(map(int, num)), list(map(q_of.__getitem__, den))
    except (TypeError, ValueError):  # a value that is no str, or no digits int() reads
        pass
    return tuple(zip(*map(rational_pair, values))) or ((), ())


def _table_lcm(denominators, n: int) -> int:
    """The lcm of ``denominators``, refused past the n-point table's cap."""
    scale = 1
    for q in denominators:
        scale = lcm(scale, q)
        if (bits := scale.bit_length()) * n * n > MAX_SCALED_TABLE_BITS:
            raise SpecError(f"metric denominators have an lcm of over {bits} bits; the scaled "
                            f"{n}-point table would exceed {MAX_SCALED_TABLE_BITS} bits")
    return scale


def _refuse_entry(index, us, vs, ds) -> NoReturn:
    """Refuse the first entry naming an unknown point, a bad literal or a second value."""
    given: dict[tuple[int, int], tuple[int, int]] = {}
    for u, v, d in zip(us, vs, ds):
        if u not in index or v not in index:
            raise SpecError(f"metric entry for unknown pair ({u!r}, {v!r})")
        d = rational_pair(d)
        i, j = index[u], index[v]
        if given.setdefault((i, j), d) != d:
            raise MetricViolation("symmetry", (u, v))
        given[j, i] = d
    raise InvariantViolation("a refused metric has no offending entry")


def finite_system(points, mapping, metric, labels=None, default=None) -> FiniteSystem:
    """Build and validate a FiniteSystem from plain containers.

    ``metric`` maps pairs (u, v) to distances, or is a sequence of ((u, v),
    d) entries.  It may list each unordered pair once; it is symmetrized,
    and a pair given twice with two values, in either order, is refused.  A
    diagonal pair it leaves out is 0, and a distinct pair it leaves out is
    ``default`` (refused when ``default`` is None).
    """
    pairs, values = ((metric.keys(), metric.values()) if isinstance(metric, Mapping)
                     else tuple(zip(*metric)) or ((), ()))
    return _load(points, mapping, *(tuple(zip(*pairs)) or ((), ())), values, labels, default)


def _load(points, mapping, us, vs, ds, labels, default) -> FiniteSystem:
    """``finite_system`` with entry k giving (us[k], vs[k]) the distance ds[k].

    Times Q, the lcm of the denominators read, the distances are ints a_k.
    All L * a_k / Q are ints iff Q divides L * gcd(Q, a_1, ...) = L * g, so
    the scale is Q // g and the table a_k // g; only a Q past the cap is
    reduced, to decide the cap.  The violating pairs of the triangle are
    symmetric: the first has u before v, and its first w names the witness.
    """
    fill = None if default is None else rational_pair(default)
    pts = tuple(map(str, points))
    if not pts:
        raise SpecError("a finite system needs at least one point")
    n = len(pts)
    index = dict(zip(pts, range(n)))
    if len(index) != n:
        raise SpecError("duplicate point identifiers")
    row = dict(zip(pts, range(0, n * n, n)))
    try:
        ij = list(map(add, map(row.get, us), map(index.get, vs)))
        ji = list(map(add, map(row.get, vs), map(index.get, us)))
        nums, dens = _literals(ds)
    except (TypeError, SpecError):  # an unknown name (None + int) or a bad literal
        _refuse_entry(index, us, vs, ds)
    qs = set(dens)
    try:
        scale = _table_lcm(qs if fill is None else {*qs, fill[1]}, n)
    except SpecError:  # past the cap: decided below on the reduced pairs
        values = [(p // g, q // g) for p, q, g in zip(nums, dens, map(gcd, nums, dens))]
        scale, zero, pad = None, (0, 1), fill
    else:
        factor = {q: scale // q for q in qs}
        values = list(map(mul, nums, map(factor.__getitem__, dens)))
        zero, pad = 0, None if fill is None else fill[0] * (scale // fill[1])
    flat = [pad] * (n * n)
    flat[::n + 1] = [zero] * n
    deque(map(flat.__setitem__, ij + ji, values * 2), 0)
    # n(n - 1) / 2 entries that fill the table give each pair once; else each must match
    if ((pad is not None or None in flat or 2 * len(values) != n * n - n)
            and not all(map(eq, map(flat.__getitem__, ij), values))):
        _refuse_entry(index, us, vs, ds)
    if pad is None and None in flat:
        i, j = divmod(flat.index(None), n)
        raise SpecError(f"metric is missing the pair ({pts[i]!r}, {pts[j]!r})")
    fmap = {u: str(mapping[u]) if u in mapping else None for u in pts}
    if (bad := next((u for u, img in fmap.items() if img not in index), None)) is not None:
        raise PartialMap(bad)
    try:
        labels = dict(labels or {})
    except (TypeError, ValueError) as exc:
        raise SpecError(f"labels must map points to names: {exc}") from exc
    if n > MAX_EXHAUSTIVE_POINTS:
        raise SpecError(f"system has {n} points; exhaustive metric validation "
                        f"is capped at {MAX_EXHAUSTIVE_POINTS}")
    if scale is None:  # the cap on the reduced table; its order fixes the bits a refusal names
        scale = _table_lcm({q for _, q in flat}, n)
        flat = [p * (scale // q) for p, q in flat]
    if (g := gcd(scale, *flat)) > 1:
        flat = list(map(g.__rfloordiv__, flat))
    if any(diagonal := flat[::n + 1]):
        raise MetricViolation("definiteness", (u := pts[next(compress(range(n), diagonal))], u))
    if flat.count(0) > n or min(flat) < 0:
        k = next(k for k, d in enumerate(flat) if d <= 0 and k % (n + 1))
        raise MetricViolation("definiteness", (pts[k // n], pts[k % n]))
    rows = tuple(zip(*[iter(flat)] * n))
    if (hit := _first_broken_pair(rows)) is not None:
        ru, rv = rows[hit[0]], rows[hit[1]]
        k = next(k for k in range(n) if ru[hit[1]] > ru[k] + rv[k])
        raise MetricViolation("triangle", (pts[hit[0]], pts[hit[1]], pts[k]))
    return FiniteSystem(pts, scale // g, rows, fmap, labels)


def compile_finite(desc: Mapping) -> FiniteSystem:
    """Compile a finite-system description (parsed JSON object).

    Recognized keys: ``points`` (a list), ``map`` (an object), ``metric``
    (list of ``[u, v, "p/q"]`` triples), optional ``metric_default`` for
    unlisted distinct pairs, optional ``labels`` (an object).  Every point
    name is a string, as JSON object keys are.  The metric is split once.
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
    metric = desc.get("metric", [])
    try:
        us, vs, ds = zip(*metric, strict=True) if len(metric) else ((), (), ())
    except (TypeError, ValueError):  # an entry that is no triple: seek the first in order
        try:
            bad = next(e for e in metric if len(e) != 3)
        except TypeError as exc:
            raise SpecError(f"bad metric: {exc}") from exc
        raise SpecError(f"bad metric entry {bad!r}") from None
    # C-level tests; the first offender (keys before values, u before v) only on failure
    for where, columns in (("points", (points,)), ("map", (raw_map,)),
                           ("map", (raw_map.values(),)), ("metric", (us, vs))):
        if not all(all(map(isinstance, names, repeat(str))) for names in columns):
            bad = next(u for u in chain.from_iterable(zip(*columns)) if not isinstance(u, str))
            raise SpecError(f"finite system spec: {where} names a point by {bad!r}, not a string")
    return _load(points, raw_map, us, vs, ds, labels, desc.get("metric_default"))


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
