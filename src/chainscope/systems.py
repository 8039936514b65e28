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
from math import lcm
from operator import add
from typing import Mapping

from .errors import MetricViolation, PartialMap, SpecError

# Full triple sweeps are quadratic/cubic; beyond this size loading refuses
# rather than silently skipping axiom checks.
MAX_EXHAUSTIVE_POINTS = 512
# Validation scales the table to ints by the lcm of its denominators; an lcm
# so large that the scaled table would pass this many bits is refused too.
MAX_SCALED_TABLE_BITS = 2**28

Rational = Fraction


def as_fraction(value) -> Fraction:
    """Parse a rational from int, Fraction, or a 'p/q' string."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise SpecError(f"bad rational literal {value!r}") from exc
    if isinstance(value, float):
        try:
            return Fraction(value).limit_denominator(10**12)
        except (OverflowError, ValueError) as exc:
            raise SpecError(f"{value!r} is not a finite rational") from exc
    raise SpecError(f"cannot interpret {value!r} as a rational")


@dataclass(frozen=True)
class DistanceRanks:
    """Exact integer stand-in for a finite metric.

    ``levels`` holds the distinct pairwise distances in ascending order;
    ``rank[u][j]`` is the index in ``levels`` of d(u, names[j]), with
    ``names`` the sorted point names and ``index`` their positions.  Since
    the levels are strictly ascending, for every rational delta
    d(u, v) <= delta holds iff the rank of (u, v) is at most ``cut(delta)``.
    """

    levels: tuple[Fraction, ...]
    names: tuple[str, ...]
    index: Mapping[str, int]
    rank: Mapping[str, tuple[int, ...]]

    def cut(self, delta: Fraction) -> int:
        """Index of the largest level <= delta (-1 when delta < 0)."""
        return bisect_right(self.levels, delta) - 1


@dataclass(frozen=True)
class FiniteSystem:
    """Finite metric space with a total self-map.

    ``metric`` holds the full symmetric table including zero diagonal;
    ``map`` sends every point to its image.
    """

    points: tuple[str, ...]
    metric: Mapping[tuple[str, str], Fraction]
    map: Mapping[str, str]
    labels: Mapping[str, str] = field(default_factory=dict)

    def distance(self, u: str, v: str) -> Fraction:
        return self.metric[(u, v)]

    def apply(self, u: str) -> str:
        return self.map[u]

    @cached_property
    def ranks(self) -> DistanceRanks:
        """Distance ranks, sorted once on first use rather than at load.

        The levels are sorted and keyed as the lcm-scaled ints of
        ``_scaled_rows``; scaling by a positive constant keeps their order.
        """
        names = tuple(sorted(self.points))
        scale, rows = _scaled_rows(names, self.metric)
        scaled = sorted({x for row in rows for x in row})
        level_of = {x: r for r, x in enumerate(scaled)}
        levels = tuple(Fraction(x, scale) for x in scaled)
        rank = {u: tuple(map(level_of.__getitem__, row)) for u, row in zip(names, rows)}
        return DistanceRanks(levels, names, {v: j for j, v in enumerate(names)}, rank)

    @cached_property
    def orbit_floor(self) -> Mapping[str, tuple[int, ...]]:
        """``orbit_floor[u][j]``: the least rank of d(f^t u, f^t v) over t >= 0,
        for v = ``ranks.names[j]``.

        The pairs under (u, v) -> (f u, f v) form a functional graph, in which
        every walk ends on a cycle.  One walk per unvisited pair, stopped at
        the first visited pair, visits each pair once: on a newly closed cycle
        every pair has the cycle's least rank, and back along the walk each
        pair takes the lesser of its own rank and its successor's floor.
        """
        ranks = self.ranks
        names, rank = ranks.names, ranks.rank
        n = len(names)
        img = [ranks.index[self.map[u]] for u in names]
        rows = [rank[u] for u in names]
        floor = [-1] * (n * n)  # -1 unvisited, -2 on the current walk
        for start in range(n * n):
            path = []
            p = start
            while floor[p] == -1:
                floor[p] = -2
                path.append(p)
                i, j = divmod(p, n)
                p = img[i] * n + img[j]
            if floor[p] == -2:
                k = path.index(p)
                cycle = path[k:]
                del path[k:]
                low = min(rows[q // n][q % n] for q in cycle)
                for q in cycle:
                    floor[q] = low
            else:
                low = floor[p]
            for q in reversed(path):
                low = min(low, rows[q // n][q % n])
                floor[q] = low
        return {u: tuple(floor[i * n:(i + 1) * n]) for i, u in enumerate(names)}

    def orbit(self, x: str, steps: int) -> list[str]:
        out = [x]
        for _ in range(steps):
            out.append(self.map[out[-1]])
        return out


def _scaled_rows(points, metric) -> tuple[int, list[list[int]]]:
    """(scale, rows) with ``scale`` the lcm of the table's denominators and
    ``rows[i][k]`` the int d(points[i], points[k]) * scale.

    A scale so large that the table would pass ``MAX_SCALED_TABLE_BITS``
    bits is refused with SpecError.
    """
    n = len(points)
    denominators = {d.denominator for d in metric.values()}
    scale = 1
    for q in denominators:
        scale = lcm(scale, q)
        if scale.bit_length() * n * n > MAX_SCALED_TABLE_BITS:
            raise SpecError(
                f"metric denominators have an lcm of over {scale.bit_length()} bits; "
                f"the scaled {n}-point table would exceed {MAX_SCALED_TABLE_BITS} bits"
            )
    factor = {q: scale // q for q in denominators}
    rows = []
    for u in points:
        row = [metric[(u, v)] for v in points]
        rows.append([d.numerator * factor[d.denominator] for d in row])
    return scale, rows


def _validate_metric(points, metric) -> None:
    """Check every metric axiom in exact integer arithmetic.

    The table is scaled by the lcm of its denominators (``_scaled_rows``):
    ``rows[i][k]`` is d(points[i], points[k]) times that scale, an exact
    int.  Once symmetry holds, d(w, v) is ``rows[j][k]`` for v = points[j],
    so the triangle inequality at (u, v) over every w is one comparison with
    the least entry of ``rows[i] + rows[j]``.  The violating ordered pairs
    form a symmetric set without diagonal pairs, so the first one in point
    order has u before v: scanning those pairs, and a failing pair for its
    first w, names the witness of the plain triple loop over (u, v, w).
    """
    n = len(points)
    if n > MAX_EXHAUSTIVE_POINTS:
        raise SpecError(
            f"system has {n} points; exhaustive metric validation "
            f"is capped at {MAX_EXHAUSTIVE_POINTS}"
        )
    _, rows = _scaled_rows(points, metric)
    for i, u in enumerate(points):
        if rows[i][i] != 0:
            raise MetricViolation("definiteness", (u, u))
    for i, u in enumerate(points):
        for j in range(i + 1, n):
            duv = rows[i][j]
            if duv <= 0:
                raise MetricViolation("definiteness", (u, points[j]))
            if duv != rows[j][i]:
                raise MetricViolation("symmetry", (u, points[j]))
    for i, u in enumerate(points):
        ru = rows[i]
        for j in range(i + 1, n):
            rv = rows[j]
            duv = ru[j]
            if duv > min(map(add, ru, rv)):
                k = next(k for k in range(n) if duv > ru[k] + rv[k])
                raise MetricViolation("triangle", (u, points[j], points[k]))


def finite_system(points, mapping, metric, labels=None) -> FiniteSystem:
    """Build and validate a FiniteSystem from plain containers.

    ``metric`` may list each unordered pair once; it is symmetrized and the
    zero diagonal is filled in.
    """
    pts = tuple(str(p) for p in points)
    if not pts:
        raise SpecError("a finite system needs at least one point")
    known = set(pts)
    if len(known) != len(pts):
        raise SpecError("duplicate point identifiers")
    table: dict[tuple[str, str], Fraction] = {}
    for (u, v), d in metric.items():
        if u not in known or v not in known:
            raise SpecError(f"metric entry for unknown pair ({u!r}, {v!r})")
        d = as_fraction(d)
        for key in ((u, v), (v, u)):
            if key in table and table[key] != d:
                raise MetricViolation("symmetry", key)
            table[key] = d
    for u in pts:
        table[(u, u)] = Fraction(0)
    for i, u in enumerate(pts):
        for v in pts[i + 1:]:
            if (u, v) not in table:
                raise SpecError(f"metric is missing the pair ({u!r}, {v!r})")
    fmap: dict[str, str] = {}
    for u in pts:
        if u not in mapping:
            raise PartialMap(u)
        img = str(mapping[u])
        if img not in known:
            raise PartialMap(u)
        fmap[u] = img
    try:
        labels = dict(labels or {})
    except (TypeError, ValueError) as exc:
        raise SpecError(f"labels must map points to names: {exc}") from exc
    _validate_metric(pts, table)
    return FiniteSystem(pts, table, fmap, labels)


def compile_finite(desc: Mapping) -> FiniteSystem:
    """Compile a finite-system description (parsed JSON object).

    Recognized keys: ``points``, ``map``, ``metric`` (list of
    ``[u, v, "p/q"]`` triples), optional ``metric_default`` for unlisted
    distinct pairs, optional ``labels``.
    """
    try:
        points = [str(p) for p in desc["points"]]
        raw_map = dict(desc["map"])
    except (KeyError, TypeError, ValueError) as exc:
        raise SpecError(f"finite system spec: missing or bad points or map: {exc}") from exc
    metric: dict[tuple[str, str], Fraction] = {}
    try:
        for entry in desc.get("metric", []):
            if len(entry) != 3:
                raise SpecError(f"bad metric entry {entry!r}")
            u, v, d = entry
            metric[(str(u), str(v))] = as_fraction(d)
    except TypeError as exc:
        raise SpecError(f"bad metric: {exc}") from exc
    default = desc.get("metric_default")
    if default is not None:
        dd = as_fraction(default)
        for i, u in enumerate(points):
            for v in points[i + 1:]:
                metric.setdefault((u, v), metric.get((v, u), dd))
    return finite_system(points, raw_map, metric, desc.get("labels"))


# -- grid discretization -------------------------------------------------------

GRID_FAMILIES = ("tent", "rotation", "piecewise-linear")


@dataclass(frozen=True)
class GridMapSpec:
    """Parameters of a 1-D map to discretize on cell centers.

    families:
      tent(slope)               on the interval [0, 1]
      rotation(alpha)           on the circle R/Z
      piecewise-linear(breaks)  on the interval, breaks = ((x, y), ...)
    """

    family: str
    cell_count: int
    geometry: str = "interval"
    slope: Fraction | None = None
    alpha: Fraction | float | None = None
    breakpoints: tuple[tuple[Fraction, Fraction], ...] | None = None

    def __post_init__(self):
        if self.family not in GRID_FAMILIES:
            raise SpecError(f"unknown map family {self.family!r}")
        if self.cell_count < 2:
            raise SpecError("cell_count must be at least 2")
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


def _tent(slope: Fraction, x: Fraction) -> Fraction:
    return slope * x if x <= Fraction(1, 2) else slope * (1 - x)


def _piecewise(brk, x: Fraction) -> Fraction:
    for (x0, y0), (x1, y1) in zip(brk, brk[1:]):
        if x0 <= x <= x1:
            return y0 + (y1 - y0) * (x - x0) / (x1 - x0)
    raise SpecError(f"breakpoints do not cover {x}")


def _evaluate(spec: GridMapSpec, x: Fraction):
    if spec.family == "tent":
        return _tent(spec.slope, x)
    if spec.family == "rotation":
        if isinstance(spec.alpha, Fraction):
            return (x + spec.alpha) % 1
        return (float(x) + float(spec.alpha)) % 1.0
    return _piecewise(spec.breakpoints, x)


def discretize(spec: GridMapSpec) -> FiniteSystem:
    """Discretize a 1-D map onto cell-center representatives.

    Points are cell centers, the metric is the geometry distance between
    centers, and the image of a cell is the cell containing the image of its
    center.  Exact rational arithmetic is used whenever the parameters are
    rational; irrational parameters fall back to floats (the model is a
    non-rigorous representative-point discretization either way).
    """
    n = spec.cell_count
    names = tuple(f"c{i}" for i in range(n))
    centers = [Fraction(2 * i + 1, 2 * n) for i in range(n)]
    mapping: dict[str, str] = {}
    for i, c in enumerate(centers):
        y = _evaluate(spec, c)
        if isinstance(y, Fraction):
            # half-open cells [j/n, (j+1)/n); the right endpoint 1 belongs
            # to the last cell
            j = min(int(y * n), n - 1) if y >= 0 else 0
        else:
            j = min(int(y * n), n - 1)
        mapping[names[i]] = names[j]
    metric: dict[tuple[str, str], Fraction] = {}
    for i in range(n):
        for j in range(i + 1, n):
            gap = abs(centers[i] - centers[j])
            if spec.geometry == "circle":
                gap = min(gap, 1 - gap)
            metric[(names[i], names[j])] = gap
    return finite_system(names, mapping, metric)
