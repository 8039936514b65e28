"""Separation/proximality statistics of orbit tuples and the chaos hierarchy.

For an orbit tuple, the separation window S(r) collects the times at which
all pairwise distances exceed r, and the proximity window T(eps) the times at
which all pairwise distances fall below eps.  The hierarchy levels classify a
chain component by which structural test passes:

  DC1      a distal tuple inside one cyclic class (strongest),
  IAPSTAR  every class n-dispersed (the min-over-classes dispersion > 0),
  LIYORKE  some class with at least n elements,
  NONE     none of the above.

Witness tuples corroborating the corresponding window conditions are built
on vertex shifts by block splicing: long blocks tracking a distal tuple,
separated by short admissible connectors, with a final merge onto one common
tail.  All-singleton classes mark the degenerate components (periodic-orbit
or odometer-like), which sit at level NONE for every n.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations, groupby, product
from operator import itemgetter
from typing import TYPE_CHECKING, NamedTuple

from .errors import BudgetExceeded, InvariantViolation, NotIrreducible, SpecError
from .families import (MAX_WINDOW, FamilyVerdict, TimeSetWindow, WindowParams,
                       window_family_member)
from .graph import rho
from .sft import (SftGraph, SftPoint, connecting_paths, dyadic, dyadic_depth,
                  graph_period, is_irreducible, sft_entropy, validate_point,
                  vertex_classes)
from .systems import FiniteSystem

if TYPE_CHECKING:
    from .cyclic import CyclicDecomposition

LEVEL_S_FAMILY = {"DC1": "THICK", "IAPSTAR": "IAPSTAR", "LIYORKE": "INFINITE"}
T_CAP = 8  # a vertex shift's distal search tries separations 2^(-t), t <= T_CAP


# -- exact orbit distance profiles ------------------------------------------------
#
# Tuple windows run on vertex shifts only: a finite component is decided
# exactly from ``FiniteSystem.orbit_floor``.  A profile holds the int keys of
# a ``DepthScale``, which order like the distances they stand for, and a
# threshold becomes one int cut on the same scale, so a window compares ints
# only.

class DepthScale(NamedTuple):
    """Distance keys of a tuple of eventually periodic points.

    From any time on, two of the points differ, if at all, below depth
    ``bound`` = max(head lengths) + lcm(cycle lengths) (see
    ``first_difference``).  So key ``bound - k`` stands for 2^(-k) and key 0
    for distance 0, and the keys order like the distances.
    """

    bound: int

    def cut(self, r: Fraction) -> int:
        """The largest key whose distance is <= r (-1 when r < 0)."""
        if r.numerator < 0:
            return -1
        k = dyadic_depth(r)
        return 0 if k is None else max(0, self.bound - k)

    def cut_under(self, eps: Fraction) -> int:
        """The largest key whose distance is < eps (-1 when eps <= 0)."""
        k = dyadic_depth(eps, strict=True)
        return -1 if k is None else max(0, self.bound - k)

    def level(self, key: int) -> Fraction:
        return dyadic(self.bound - key if key else None)


def distance_scale(points) -> DepthScale:
    """The key scale of the pair profiles of a tuple of points."""
    return DepthScale(max(len(p.head) for p in points)
                      + math.lcm(*(len(p.cycle) for p in points)))


def pair_profile(x: SftPoint, y: SftPoint, horizon: int, scale: DepthScale) -> list[int]:
    """Keys of d(shift^i x, shift^i y) for i in [0, horizon) on ``scale``,
    the ``distance_scale`` of a tuple holding x and y.

    Profiles of eventually periodic points are eventually periodic: beyond
    the longer head both sequences repeat with the lcm of the cycle lengths,
    so the profile is computed on one fundamental window and tiled.
    """
    M = max(len(x.head), len(y.head))
    Q = math.lcm(len(x.cycle), len(y.cycle))
    N = M + 2 * Q
    bound = scale.bound
    xs = x.expand(N)
    ys = y.expand(N)
    nxt = None  # the first difference at or after the current index
    for j in range(N - 1, M + Q - 1, -1):
        if xs[j] != ys[j]:
            nxt = j
    base = [0] * (M + Q)
    for i in range(M + Q - 1, -1, -1):
        if xs[i] != ys[i]:
            nxt = i
        if nxt is not None:
            base[i] = bound - (nxt - i)
    if horizon <= M + Q:
        return base[:horizon]
    reps = -(-(horizon - M - Q) // Q)
    return base + (base[M:] * reps)[:horizon - M - Q]


def _key_extremes(g: SftGraph, points, horizon: int):
    """(scale, mins, maxs): the per-time least and greatest pair key of
    points of the vertex shift ``g``."""
    if not isinstance(g, SftGraph):
        raise SpecError("tuple windows run on vertex shifts only")
    scale = distance_scale(points)
    profiles = [pair_profile(a, b, horizon, scale) for a, b in combinations(points, 2)]
    per_time = list(zip(*profiles))
    return scale, list(map(min, per_time)), list(map(max, per_time))


class TupleStats(NamedTuple):
    """Separation and proximity windows of one orbit tuple."""

    s_sets: dict[Fraction, TimeSetWindow]
    t_sets: dict[Fraction, TimeSetWindow]


def profile_extremes(g: SftGraph, points, horizon: int) -> tuple[list[Fraction], list[Fraction]]:
    """Per-time min and max pairwise distance of an orbit tuple over [0, horizon)."""
    scale, mins, maxs = _key_extremes(g, tuple(points), horizon)
    level = {k: scale.level(k) for k in {*mins, *maxs}}
    return [level[k] for k in mins], [level[k] for k in maxs]


def tuple_stats(g: SftGraph, points, r_list, eps_list, horizon: int) -> TupleStats:
    """Windows S(r) (min pairwise distance > r, strict) and T(eps)
    (max pairwise distance < eps, strict) over [0, horizon).

    Each threshold becomes one int cut on the tuple's key scale: the
    distance of a key exceeds r iff the key exceeds ``cut(r)``, and it is
    below eps iff the key is at most ``cut_under(eps)``.
    """
    pts = tuple(points)
    if len(pts) < 2:
        raise SpecError("tuples need at least two coordinates")
    if horizon < 1:
        raise SpecError("horizon must be positive")
    scale, mins, maxs = _key_extremes(g, pts, horizon)
    s_cuts = {r: scale.cut(r) for r in map(Fraction, r_list)}
    t_cuts = {e: scale.cut_under(e) for e in map(Fraction, eps_list)}
    s_sets = {r: TimeSetWindow(horizon, tuple([int(m > c) for m in mins]))
              for r, c in s_cuts.items()}
    t_sets = {e: TimeSetWindow(horizon, tuple([int(m <= c) for m in maxs]))
              for e, c in t_cuts.items()}
    return TupleStats(s_sets, t_sets)


# -- distal tuple search -----------------------------------------------------------

def _spread(table, index, combo) -> int:
    """Least ``table`` entry over the pairs of ``combo``."""
    return min(table[a][index[b]] for a, b in combinations(combo, 2))


class _Widest:
    """For every n, the first n-subset of ``members``, in ``combinations``
    order, whose spread (least ``table`` entry over its pairs) is largest,
    with that spread; (0, None) without an n-subset.

    A subset has spread >= r iff it is a clique of the graph of pairs whose
    entry is >= r.  Pairs enter that graph one value at a time, largest
    first; the first value at which an entering pair closes an n-clique is
    the largest spread, since before it no n-clique existed.  At that value
    a depth-first search in member order finds the least n-clique, which is
    the first subset of that spread in ``combinations`` order.  An
    (n+1)-clique holds an n-clique, so it closes at that value or a lower
    one: the pass goes on from where n stopped, and one sorted order serves
    every n.  The order is built on the first call, and the pass goes only
    as far as the largest n asked for.
    """

    def __init__(self, table, index, members):
        self.members = members
        self._found: list[tuple[int, tuple]] = []  # (spread, subset) for n = 2, 3, ...
        self._pass = self._descend(table, index)

    def __call__(self, n: int) -> tuple[int, tuple | None]:
        if len(self.members) < n:
            return 0, None
        while len(self._found) < n - 1:
            self._found.append(next(self._pass))
        return self._found[n - 2]

    def _descend(self, table, index):
        members = self.members
        k = len(members)
        cols = [index[b] for b in members]
        pairs = sorted(((table[a][cols[j]], i, j) for i, a in enumerate(members)
                        for j in range(i + 1, k)), key=itemgetter(0), reverse=True)
        nb = [0] * k  # neighbour rows of the threshold graph, both directions
        n = 2
        for value, group in groupby(pairs, key=itemgetter(0)):
            group = list(group)
            for _, i, j in group:
                nb[i] |= 1 << j
                nb[j] |= 1 << i
            while any(_first_clique(nb, nb[i] & nb[j], n - 2) is not None for _, i, j in group):
                yield value, tuple(members[i] for i in _first_clique(nb, (1 << k) - 1, n))
                n += 1


def _first_clique(nb: list[int], cand: int, r: int) -> list[int] | None:
    """The least r-clique of rows ``nb`` within the vertex set ``cand``, as
    ascending vertices; None when there is none."""
    if r == 0:
        return []
    while cand.bit_count() >= r:
        low = cand & -cand
        cand ^= low  # every vertex left in cand lies above i
        i = low.bit_length() - 1
        rest = _first_clique(nb, cand & nb[i], r - 1)
        if rest is not None:
            return [i, *rest]
    return None


def _charge(spent: int, members, n: int, budget: int, what: str) -> int:
    """Count the n-subsets of ``members`` into ``spent``; past ``budget``,
    raise BudgetExceeded as a one-by-one count would at subset budget + 1."""
    spent += math.comb(len(members), n)
    if spent > budget:
        raise BudgetExceeded(f"{what} enumeration budget", spent=budget + 1)
    return spent


def _orbit_min_separation(sys: FiniteSystem, pts: tuple[str, ...]) -> Fraction:
    """Exact inf over all times of the min pairwise distance of a joint orbit.

    The joint orbit passes through every time of every pair's orbit, and a
    min over times of a min over pairs is a min over pairs of the per-pair
    floors (``FiniteSystem.orbit_floor``).
    """
    return sys.ranks.level(_spread(sys.orbit_floor, sys.ranks.index, pts))


def _first_distal(g: SftGraph, n: int, budget: int):
    """(tuple, t) for the least t <= T_CAP at which ``_sft_distal_search``
    finds a distal n-tuple, or None when no such t exists."""
    for t in range(T_CAP + 1):
        found = _sft_distal_search(g, n, t, budget=budget)
        if found is not None:
            return found, t
    return None


def _admissible_words(g: SftGraph, length: int) -> list[tuple[int, ...]]:
    words = [(v,) for v in range(g.vertex_count)]
    for _ in range(length - 1):
        words = [w + (a,) for w in words for a in g.successors(w[-1])]
    return sorted(words)


def _sft_distal_search(g: SftGraph, n: int, t: int, budget: int):
    """Exact distal search at separation 2^(-t): find a cycle among n-tuples
    of pairwise distinct (t+1)-windows with synchronized initial classes.

    Any n points with all synchronized pairwise distances >= 2^(-t) walk this
    product graph forever, and an infinite walk in a finite graph yields a
    cycle; conversely a cycle spells out purely periodic witness points.  So
    a cycle exists iff a distal tuple exists, and absence is exact.

    On a periodic graph the found cycle is entered at class 0: every step of
    a product cycle advances the common class by one and the cycle closes,
    so its length is a multiple of the period and it meets every class.  A
    distal tuple in one class therefore rotates into one in every class,
    and the search itself never depends on the class.

    States are tested for validity on first touch, never enumerated up
    front: roots and successors come in ``product`` order and invalid ones
    are skipped, so the DFS meets the same first cycle as a search over the
    prebuilt list of valid states.
    """
    words = _admissible_words(g, t + 1)
    if len(words) ** n > budget:
        raise BudgetExceeded("window product graph exceeds budget",
                             spent=len(words) ** n)
    classes = vertex_classes(g)
    word_succ = {w: tuple(sorted(w[1:] + (a,) for a in g.successors(w[-1])))
                 for w in words}
    # states enter on first touch: -1 invalid, 0 white, 1 gray, 2 black
    color: dict[tuple, int] = {}

    def color_of(state) -> int:
        c = color.get(state)
        if c is None:
            c = color[state] = 0 if _valid_state(state, n, classes) else -1
        return c

    for root in product(words, repeat=n):
        if color_of(root):
            continue
        stack = [(root, product(*(word_succ[w] for w in root)))]
        color[root] = 1
        path = [root]
        while stack:
            state, it = stack[-1]
            advanced = False
            for nxt in it:
                c = color_of(nxt)
                if c == 1:
                    cycle = path[path.index(nxt):]
                    return _points_from_cycle(g, cycle, n, t)
                if c == 0:
                    color[nxt] = 1
                    path.append(nxt)
                    stack.append((nxt, product(*(word_succ[w] for w in nxt))))
                    advanced = True
                    break
            if not advanced:
                color[state] = 2
                path.pop()
                stack.pop()
    return None


def _valid_state(state, n: int, classes) -> bool:
    """A product state holds n pairwise distinct windows starting in one class."""
    return len(set(state)) == n and len({classes[w[0]] for w in state}) == 1


def _points_from_cycle(g: SftGraph, cycle, n: int, t: int) -> tuple[SftPoint, ...]:
    if graph_period(g) > 1:
        # every class occurs on a product cycle (see _sft_distal_search)
        classes = vertex_classes(g)
        shift = next((k for k, state in enumerate(cycle) if classes[state[0][0]] == 0), None)
        if shift is None:
            raise InvariantViolation("distal cycle misses cyclic class 0")
        cycle = cycle[shift:] + cycle[:shift]
    pts = []
    for j in range(n):
        stream = tuple(state[j][0] for state in cycle)
        pts.append(SftPoint((), stream))
    for p in pts:
        validate_point(g, p)
    scale, mins, _ = _key_extremes(g, pts, len(cycle))
    if min(mins) <= scale.cut_under(dyadic(t)):  # pragma: no cover - construction invariant
        raise InvariantViolation("distal cycle lost its separation floor")
    return tuple(sorted(pts, key=lambda p: (p.head, p.cycle)))


# -- dispersion ---------------------------------------------------------------------

def compute_delta_n(decomp: CyclicDecomposition, n: int, budget: int = 10**6) -> Fraction:
    """Min over classes of the best min-pairwise spread of n class elements.

    Classes with fewer than n elements contribute 0 (the spread of an empty
    family), so the value is positive exactly when every class holds n
    genuinely separated points.  Each class's best spread comes from the
    threshold-clique search of ``_Widest``; the class is first charged its
    C(|class|, n) subsets against ``budget``, as an enumeration would be.
    """
    if n < 2:
        raise SpecError("dispersion needs n >= 2")
    ranks = decomp.system.ranks
    return _dispersion(ranks, [_Widest(ranks.rank, ranks.index, cls) for cls in decomp.classes()],
                       n, budget)


def _dispersion(ranks, classes: list[_Widest], n: int, budget: int) -> Fraction:
    """``compute_delta_n`` over ``classes``, each under its rank table."""
    worst: int | None = None
    spent = 0
    for widest in classes:
        if len(widest.members) < n:
            return Fraction(0)
        spent = _charge(spent, widest.members, n, budget, "dispersion")
        best, _ = widest(n)
        worst = best if worst is None else min(worst, best)
    return ranks.level(worst) if worst is not None else Fraction(0)


def sft_delta_n(g: SftGraph, n: int) -> tuple[Fraction, bool]:
    """(dispersion, some-class-has-n-points) for a vertex shift.

    Within one cyclic class, n points can be pairwise separated by 2^(-j)
    exactly when n distinct admissible (j+1)-prefixes start in the class, so
    the per-class term is 2^(-j*) for the smallest such j*, and 0 when the
    class never branches into n prefixes (fewer than n points).
    """
    if n < 2:
        raise SpecError("dispersion needs n >= 2")
    period = graph_period(g)
    classes = vertex_classes(g)
    worst: Fraction | None = None
    any_card = False
    cap = g.vertex_count * (n + 1) + 2
    for c in range(period):
        words = {(v,) for v in range(g.vertex_count) if classes[v] == c}
        ell = 1
        while len(words) < n and ell <= cap:
            words = {w + (a,) for w in words for a in g.successors(w[-1])}
            ell += 1
        if len(words) >= n:
            any_card = True
            term = dyadic(ell - 1)
        else:
            term = Fraction(0)
        worst = term if worst is None else min(worst, term)
    return (worst if worst is not None else Fraction(0)), any_card


# -- windowed corroboration ----------------------------------------------------------

MIN_HORIZON = 64


def _check_eps_depth(eps_depth: int) -> None:
    # an empty dyadic ladder would make every proximity test pass vacuously
    if eps_depth < 1:
        raise SpecError("eps_depth must be at least 1")


class Condition3Verdict(NamedTuple):
    level: str
    delta_n: Fraction
    s_verdict: FamilyVerdict
    t_verdicts: tuple[tuple[Fraction, FamilyVerdict], ...]
    ok: bool


def check_condition3(g: SftGraph, points, delta_n, level: str, horizon: int,
                     eps_depth: int = 6,
                     params: WindowParams = WindowParams()) -> Condition3Verdict:
    """Windowed test: S(delta_n) in the level's family and T(eps) infinite
    for every eps on the dyadic ladder."""
    if level not in LEVEL_S_FAMILY:
        raise SpecError(f"unknown level {level!r}")
    _check_eps_depth(eps_depth)
    delta_n = Fraction(delta_n)
    ladder = tuple(map(dyadic, range(1, eps_depth + 1)))
    stats = tuple_stats(g, points, [delta_n], ladder, horizon)
    s_v = window_family_member(stats.s_sets[delta_n], LEVEL_S_FAMILY[level], params)
    t_vs = tuple((eps, window_family_member(stats.t_sets[eps], "INFINITE", params))
                 for eps in ladder)
    ok = s_v.member and all(v.member for _, v in t_vs)
    return Condition3Verdict(level, delta_n, s_v, t_vs, ok)


# -- witness construction -------------------------------------------------------------

def _lex_point_from(g: SftGraph, v: int) -> SftPoint:
    """Smallest eventually periodic point starting at v (greedy min successor)."""
    seq, k = rho(lambda u: min(g.successors(u)), v)
    return SftPoint(tuple(seq[:k]), tuple(seq[k:]))


def _witness_schedule(level: str, horizon: int) -> list[tuple[str, int]]:
    reserve = max(48, horizon // 32)
    ops: list[tuple[str, int]] = []
    pos = 0
    if level in ("DC1", "IAPSTAR"):
        size, k = 64, 0
        while pos + size <= horizon - reserve:
            ops.append(("distal", size))
            pos += size
            k += 1
            if level == "IAPSTAR" and k == 2:
                ops.append(("common", 16))
                pos += 16
            size *= 2
    elif level == "LIYORKE":
        while pos + 88 <= horizon - reserve:
            ops.append(("distal", 64))
            ops.append(("common", 24))
            pos += 88
    else:
        raise SpecError(f"unknown level {level!r}")
    if not ops:
        raise SpecError(f"horizon {horizon} too small for a {level} schedule")
    # doubling may stop well short of the merge reserve: top up with one
    # final separation block so the observation tail stays separated
    remaining = (horizon - reserve) - pos
    if remaining >= 32:
        ops.append(("distal", remaining))
    return ops


class WitnessConstruction(NamedTuple):
    points: tuple[SftPoint, ...]
    delta_n: Fraction


def construct_witness(g: SftGraph, n: int, level: str, horizon: int, *,
                      prefixes: tuple[tuple[int, ...], ...] | None = None,
                      distal: tuple[tuple[SftPoint, ...], int] | None = None
                      ) -> WitnessConstruction:
    """Build n eventually periodic points whose separation window matches the
    requested level over [0, horizon) and whose tails merge exactly.

    Block layout per coordinate: optional prefix, then distal blocks playing
    the coordinates of a genuinely distal tuple (re-entered at phase zero),
    short equal-length connectors, optional common blocks, and a final merge
    onto one shared tail.  Admissibility is enforced by connector search;
    every point is validated before returning.

    The distal blocks start in class 0.  ``distal`` is the (tuple, t) that
    ``_first_distal`` returns for these arguments; a caller that has it
    already passes it to skip the search.
    """
    if n < 2:
        raise SpecError("witness tuples need n >= 2")
    if not is_irreducible(g):
        raise NotIrreducible("witness construction needs an irreducible graph")
    if level == "NONE":
        raise SpecError("no witness exists at level NONE")
    period = graph_period(g)
    classes = vertex_classes(g)
    if distal is None:
        distal = _first_distal(g, n, 10**6)
        if distal is None:
            raise BudgetExceeded(f"no distal {n}-tuple found up to window {T_CAP + 1}")
    distal, t = distal
    delta_n = dyadic(t + 1)
    if prefixes is not None:
        if len(prefixes) != n or len({len(p) for p in prefixes}) != 1:
            raise SpecError("prefixes must give one equal-length word per coordinate")
        if period > 1 and len({classes[p[0]] % period for p in prefixes if p}) > 1:
            raise SpecError("prefix words must start in one cyclic class")
    symbols: list[list[int]] = [[] for _ in range(n)]

    def emit_connectors(targets: list[int]) -> None:
        # the coordinates sit at one synchronized position, so they share a
        # class offset and connect at one common length
        currents = [symbols[j][-1] for j in range(n)]
        for j, path in enumerate(connecting_paths(g, currents, targets)):
            symbols[j].extend(path[1:-1])

    if prefixes is not None and prefixes[0]:
        for j in range(n):
            for a, b in zip(prefixes[j], prefixes[j][1:]):
                if not g.is_edge(a, b):
                    raise SpecError(f"prefix word {prefixes[j]} is not admissible")
            symbols[j].extend(prefixes[j])
    merge_vertex = 0
    tail_point = _lex_point_from(g, merge_vertex)
    for op, size in _witness_schedule(level, horizon):
        if op == "distal":
            targets = [distal[j].symbol(0) for j in range(n)]
            if symbols[0]:
                emit_connectors(targets)
            for j in range(n):
                symbols[j].extend(distal[j].expand(size))
        else:
            emit_connectors([merge_vertex] * n)
            segment = tail_point.expand(size)
            for j in range(n):
                symbols[j].extend(segment)
    emit_connectors([merge_vertex] * n)
    points = []
    for j in range(n):
        p = SftPoint(tuple(symbols[j]) + tail_point.head, tail_point.cycle)
        validate_point(g, p)
        points.append(p)
    return WitnessConstruction(tuple(points), delta_n)


# -- component classification ----------------------------------------------------------

class TierReport(NamedTuple):
    n: int
    tier: str
    distal_witness: tuple | None
    distal_delta: Fraction | None
    upgrade_audit_ok: bool | None
    delta_n_value: Fraction
    class_cardinality_ok: bool
    condition3: Condition3Verdict | None = None
    condition3_agrees: bool | None = None
    budget_exceeded: bool = False


class ComponentChaosReport(NamedTuple):
    component_id: str
    per_n: tuple[TierReport, ...]
    level: str
    all_classes_singleton: bool
    entropy: float | None = None
    audit_flags: tuple[str, ...] = ()


class _ClassifyFields(NamedTuple):
    horizon: int = 512
    eps_depth: int = 6
    with_witness: bool = False
    budget: int = 10**6
    window: WindowParams = WindowParams()  # immutable, so one shared default


class ClassifyParams(_ClassifyFields):
    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        # reject the observation settings no windowed test can run with, and
        # a window longer than any time set may be read on
        if self.horizon < MIN_HORIZON:
            raise SpecError(f"horizon must be at least {MIN_HORIZON}")
        if self.horizon > MAX_WINDOW:
            raise SpecError(f"horizon must be at most {MAX_WINDOW}")
        _check_eps_depth(self.eps_depth)
        if self.budget < 0:
            raise SpecError("budget must be nonnegative")
        return self


def _tier_of(distal_found: bool, delta_n_value: Fraction, card_ok: bool) -> str:
    if distal_found:
        return "DC1"
    if delta_n_value:  # dispersions are never negative
        return "IAPSTAR"
    if card_ok:
        return "LIYORKE"
    return "NONE"


def classify_finite_component(decomp: CyclicDecomposition, n_max: int,
                              params: ClassifyParams = ClassifyParams()) -> ComponentChaosReport:
    """Classify one chain component of a finite system at its resolution."""
    if n_max < 2:
        raise SpecError("n_max must be at least 2")
    sys = decomp.system
    ranks = sys.ranks
    flags: list[str] = []
    reports: list[TierReport] = []
    classes = decomp.classes()
    singleton = all(len(c) == 1 for c in classes)
    # one descending pair order per (table, class), shared by every n; the
    # floors are read only in a class of two or more points
    floor = None if singleton else sys.orbit_floor
    floors = [_Widest(floor, ranks.index, cls) for cls in classes]
    spreads = [_Widest(ranks.rank, ranks.index, cls) for cls in classes]
    for n in range(2, n_max + 1):
        budget_hit = False
        per_class_sep: list[int] = []  # ranks of the best orbit separations
        witness = None
        spent = 0
        try:
            for widest in floors:
                spent = _charge(spent, widest.members, n, params.budget, "distal tuple")
                best, best_combo = widest(n)
                per_class_sep.append(best)
                if best > 0 and witness is None:
                    witness = best_combo
        except BudgetExceeded:
            budget_hit = True
        found = witness is not None
        upgrade_ok = None
        if found and not budget_hit:
            upgrade_ok = all(s > 0 for s in per_class_sep)
            if not upgrade_ok:
                flags.append(f"n={n}: distal witness in one class but not in every class")
        try:
            delta_val = _dispersion(ranks, spreads, n, params.budget)
        except BudgetExceeded:
            budget_hit = True
            delta_val = Fraction(0)  # partial report: see the budget marker
        card_ok = any(len(c) >= n for c in classes)
        tier = _tier_of(found, delta_val, card_ok)
        reports.append(TierReport(
            n, tier, witness, _orbit_min_separation(sys, witness) / 2 if found else None,
            upgrade_ok, delta_val, card_ok, budget_exceeded=budget_hit))
    level = reports[0].tier
    comp_id = ",".join(sorted(decomp.component))
    return ComponentChaosReport(comp_id, tuple(reports), level, singleton, None, tuple(flags))


def classify_sft(g: SftGraph, n_max: int,
                 params: ClassifyParams = ClassifyParams()) -> ComponentChaosReport:
    """Classify the whole vertex shift of an irreducible graph.

    The cyclic classes are the vertex classes of the graph.  One exact
    distal search per (n, t) settles every class at once: a witness found
    in one class rotates into every class (see ``_sft_distal_search``), so
    ``upgrade_audit_ok`` holds whenever a witness is found.
    """
    if n_max < 2:
        raise SpecError("n_max must be at least 2")
    if not is_irreducible(g):
        raise NotIrreducible("classification needs an irreducible graph")
    flags: list[str] = []
    reports: list[TierReport] = []
    for n in range(2, n_max + 1):
        found = witness = delta_n = None
        budget_hit = False
        try:
            found = _first_distal(g, n, params.budget)
        except BudgetExceeded:
            budget_hit = True
        if found is not None:
            witness, t = found
            delta_n = dyadic(t + 1)
        delta_val, card_ok = sft_delta_n(g, n)
        tier = _tier_of(witness is not None, delta_val, card_ok)
        cond3 = None
        agrees = None
        if params.with_witness and tier == "DC1":
            if params.horizon >= 160:
                built = construct_witness(g, n, "DC1", params.horizon, distal=found)
                cond3 = check_condition3(g, built.points, built.delta_n, "DC1",
                                         params.horizon, eps_depth=params.eps_depth,
                                         params=params.window)
                agrees = cond3.ok
                if not agrees:
                    flags.append(f"n={n}: structural tier DC1 but windowed test failed")
            else:
                flags.append(f"n={n}: horizon too small for witness corroboration")
        upgrade_ok = True if witness is not None else None
        reports.append(TierReport(n, tier, witness, delta_n, upgrade_ok,
                                  delta_val, card_ok, cond3, agrees, budget_hit))
    singleton = all(len(g.successors(v)) == 1 for v in range(g.vertex_count))
    level = reports[0].tier
    return ComponentChaosReport("shift", tuple(reports), level, singleton, sft_entropy(g),
                                tuple(flags))

