"""Pseudo-orbits, shadowing search and exact splice constructions.

On finite systems shadowing is decided by brute force over candidate start
points, on int distance ranks.  On vertex shifts the shadow of a pseudo-orbit
whose steps agree to depth n is constructed exactly by splicing first symbols:
consecutive states overlap in n symbols, so adjacent spliced symbols are
admissible pairs and the spliced point tracks every state to depth n+1.

The splice toward a target tail realizes the asymptotic-merge construction:
keep a prefix of one point, connect admissibly, then copy the other point's
tail at its original coordinates, which drives the tracking error to
exactly zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import accumulate, compress
from operator import ne
from typing import NamedTuple, Sequence

from .chains import build_chain_digraph, critical_deltas
from .errors import (AdmissibilityBug, BudgetExceeded, ClassMismatch, NotIrreducible,
                     PrecisionViolation, SpecError, StepViolation)
from .sft import (SftGraph, SftPoint, dyadic, dyadic_depth, find_exact_path,
                  first_difference, graph_period, is_irreducible, path_length_cap,
                  sft_distance, shift_by, validate_point, vertex_classes)
from .systems import FiniteSystem


@dataclass(frozen=True)
class PseudoOrbit:
    """A finite state sequence with its per-step errors e_i = d(f(x_i), x_{i+1}).

    ``checked`` is the model ``validate_pseudo_orbit`` checked every state
    against, and None for a pseudo-orbit built any other way.  It also keeps
    each step's int key: on a finite system its rank in ``ranks``, on a vertex
    shift its depth k in ``depths`` (e_i = 2^(-k), and None for distance 0).
    """

    states: tuple
    errors: tuple[Fraction, ...]
    checked: object = field(default=None, repr=False, compare=False)
    depths: tuple[int | None, ...] | None = field(default=None, repr=False, compare=False)
    ranks: tuple[int, ...] | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if len(self.errors) != len(self.states) - 1:
            raise SpecError("errors must have one entry per step")

    @cached_property
    def suffix_max(self) -> list[Fraction]:
        """suffix_max[i] = max(errors[i:]) for i < len(errors), and 0 at
        len(errors).  The maxima are taken on keys that order like the errors
        and read back from the errors: the ranks, the depths negated (None
        least), or else the errors themselves."""
        keys = self.ranks or self.errors
        if self.depths is not None:
            keys = [-math.inf if k is None else -k for k in self.depths]
        error_of = dict(zip(keys, self.errors)).__getitem__
        return [*map(error_of, accumulate(reversed(keys), max))][::-1] + [Fraction(0)]


def validate_pseudo_orbit(model, xs: Sequence, delta) -> PseudoOrbit:
    """Accept xs as a delta-pseudo-orbit; reject at the first oversized step.

    On a vertex shift each state is validated once, before the step into it
    is measured: the shift of an admissible point is admissible.  A step
    error 2^(-k) exceeds delta iff k < ``dyadic_depth(delta)``, an int test.
    On a finite system it does iff its rank exceeds ``cut(delta)``.
    """
    delta = Fraction(delta)
    if delta < 0:
        raise SpecError("delta must be nonnegative")
    states = tuple(xs)
    if len(states) < 2:
        raise SpecError("a pseudo-orbit needs at least two states")
    errors = []
    depths = keys = None
    if isinstance(model, SftGraph):
        limit = dyadic_depth(delta)
        validate_point(model, states[0])
        ks = []
        for i, (x, y) in enumerate(zip(states, states[1:])):
            validate_point(model, y)
            k = first_difference(x, y, 1)
            if k is not None and (limit is None or k < limit):
                raise StepViolation(i, dyadic(k))
            ks.append(k)
            errors.append(dyadic(k))
        depths = tuple(ks)
    elif isinstance(model, FiniteSystem):
        ranks, keys = model.ranks, []
        rank, index, cut = ranks.rank, ranks.index, ranks.cut(delta)
        for i, (x, y) in enumerate(zip(states, states[1:])):
            keys.append(rank[model.map[x]][index[y]])
            if keys[-1] > cut:
                raise StepViolation(i, model.distance(model.map[x], y))
        keys = tuple(keys)
        errors = map({r: ranks.level(r) for r in set(keys)}.__getitem__, keys)
    else:
        raise SpecError(f"unsupported model {type(model).__name__}")
    return PseudoOrbit(states, tuple(errors), model, depths, keys)


class LimitVerdict(NamedTuple):
    ok: bool
    failing_checkpoint: int | None = None


def validate_limit_pseudo_orbit(po: PseudoOrbit, delta,
                                schedule: Sequence) -> LimitVerdict:
    """Finitized error-decay check for a pseudo-orbit.

    The decay requirement becomes a checkpoint schedule: for the j-th entry
    t_j of the (strictly decreasing, positive) schedule, the suffix maximum
    of the errors beyond checkpoint j*(len/|schedule|) must be <= t_j.
    """
    delta = Fraction(delta)
    sched = [Fraction(t) for t in schedule]
    if not sched or sched[-1] <= 0 or any(a <= b for a, b in zip(sched, sched[1:])):
        raise SpecError("schedule must be strictly decreasing and end positive")
    nerr = len(po.errors)
    suffix_max = po.suffix_max
    if nerr and suffix_max[0] > delta:  # some error exceeds delta
        return LimitVerdict(False, 0)
    for j, tj in enumerate(sched):
        cp = (j * nerr) // len(sched)
        if suffix_max[cp] > tj:
            return LimitVerdict(False, j)
    return LimitVerdict(True)


def default_schedule(delta) -> tuple[Fraction, ...]:
    d = Fraction(delta)
    if d <= 0:
        d = Fraction(1, 64)
    return (d, d / 4, d / 16, d / 64)


class ShadowResult(NamedTuple):
    point: object | None
    epsilon: Fraction | None
    tail_profile: tuple[Fraction, ...] = ()


def find_shadowing_point(sys: FiniteSystem, po: PseudoOrbit, epsilon) -> ShadowResult:
    """Brute-force search for z with d(f^i(z), x_i) <= epsilon for all i.

    Returns the smallest witness by node id, or an absent result; exact.
    A distance exceeds epsilon iff its rank exceeds ``cut(epsilon)``.
    """
    epsilon = Fraction(epsilon)
    if epsilon < 0:
        raise SpecError("epsilon must be nonnegative")
    rank, index, cut = sys.ranks.rank, sys.ranks.index, sys.ranks.cut(epsilon)
    for z in sorted(sys.points):
        u = z
        track = []
        for s in po.states:
            r = rank[u][index[s]]
            if r > cut:
                break
            track.append(r)
            u = sys.map[u]
        else:
            tail = [*accumulate(reversed(track), max)][::-1]
            level = {r: sys.ranks.level(r) for r in set(tail)}.__getitem__
            return ShadowResult(z, level(tail[0]), tuple(map(level, tail)))
    return ShadowResult(None, None, ())


def sft_shadow(g: SftGraph, po: PseudoOrbit, n: int) -> ShadowResult:
    """Exact shadow of a depth-n pseudo-orbit on a vertex shift.

    Requires every step error <= 2^(-n) with n >= 1.  The shadow reads the
    first symbol of each state and then follows the final state; the result
    is admissible and tracks every state within 2^(-(n+1)).  Decaying step
    errors therefore yield decaying tracking errors: the construction is the
    asymptotic-tracking mechanism on shifts.

    The states are checked against g unless ``validate_pseudo_orbit``
    already did.  Each tracking depth is the first difference of state i
    with the shadow read from index i of one expanded symbol list of the
    shadow; it lies below max(head lengths) + lcm(cycle lengths) of the two,
    and the list reaches the largest such index.
    """
    if n < 1:
        raise SpecError("agreement depth n must be at least 1")
    for i, e in enumerate(po.errors):
        if e.numerator << n > e.denominator:  # e > 2^(-n)
            raise PrecisionViolation(i, e)
    states = po.states
    if po.checked is not g:
        for x in states:
            validate_point(g, x)
    last = states[-1]
    head = tuple(x.symbol(0) for x in states[:-1]) + last.head
    z = SftPoint(head, last.cycle)
    try:
        validate_point(g, z)
    except Exception as exc:  # pragma: no cover - construction invariant
        raise AdmissibilityBug(f"spliced shadow is not admissible: {exc}") from exc
    zh, zc = len(z.head), len(z.cycle)
    windows = [max(zh - i, len(x.head)) + math.lcm(zc, len(x.cycle))
               for i, x in enumerate(states)]
    zs = z.expand(max(i + w for i, w in enumerate(windows)))
    top = max(windows)  # deeper than every difference: stands for distance 0
    depths = []
    for i, (x, w) in enumerate(zip(states, windows)):
        k = next(compress(range(w), map(ne, map(zs.__getitem__, range(i, i + w)),
                                         x.symbols())), None)
        if k is not None and k < n + 1:
            raise AdmissibilityBug(
                f"tracking bound 2^-(n+1) fails at step {i}: {dyadic(k)}")
        depths.append(top if k is None else k)
    # the suffix maxima of the distances are the suffix minima of the depths
    suffix = list(accumulate(reversed(depths), min))[::-1]
    tail = tuple(dyadic(None if k == top else k) for k in suffix)
    return ShadowResult(z, tail[0], tail)


def _epsilon_exponent(epsilon) -> int:
    eps = Fraction(epsilon)
    if eps <= 0 or eps > 1:
        raise SpecError("epsilon must be a dyadic rational in (0, 1]")
    n = (eps.denominator).bit_length() - 1
    if eps.numerator != 1 or (1 << n) != eps.denominator:
        raise SpecError(f"epsilon must be a power of two, got {eps}")
    return n


def slimit_splice(g: SftGraph, x: SftPoint, y: SftPoint, epsilon) -> SftPoint:
    """Point z with d(y, z) <= epsilon whose tail equals x's tail exactly.

    z copies the first n symbols of y (epsilon = 2^-n), runs through an
    admissible connecting word, and then coincides with x from coordinate K
    onward at the original phase, so the tracking error against x's orbit is
    eventually exactly zero.  Requires an irreducible graph; when the graph
    has period > 1 the initial vertices of x and y must lie in the same
    cyclic class, otherwise no phase-aligned connection exists.
    """
    if not is_irreducible(g):
        raise NotIrreducible("splice construction needs an irreducible graph")
    validate_point(g, x)
    validate_point(g, y)
    n = _epsilon_exponent(epsilon)
    if n == 0 or x == y:
        return x
    period = graph_period(g)
    classes = vertex_classes(g)
    if period > 1 and classes[x.symbol(0)] != classes[y.symbol(0)]:
        raise ClassMismatch(
            "x and y start in different cyclic classes; tails cannot align")
    start = y.symbol(n - 1)
    # exact-length frontier search: z = y[0..n) + interior + x[K..), where the
    # connector has length K - n + 1, keeping x's tail at its own coordinates
    reach = {start}
    for length in range(1, path_length_cap(g) + 2):
        reach = {w for v in reach for w in g.successors(v)}
        if x.symbol(n + length - 1) in reach:
            break
    else:  # pragma: no cover - irreducibility guarantees a connector
        raise AdmissibilityBug("no phase-aligned connector found under the cap")
    K = n + length - 1
    # lexicographically smallest path of that exact length
    interior = find_exact_path(g, start, x.symbol(K), length)[1:-1]
    tail = shift_by(x, K)
    z = SftPoint(tuple(y.expand(n)) + tuple(interior) + tail.head, tail.cycle)
    validate_point(g, z)
    if sft_distance(g, z, y) > Fraction(epsilon):
        raise AdmissibilityBug("splice failed the prefix-distance bound")
    if shift_by(z, n + len(interior) + 1) != shift_by(x, K + 1):
        raise AdmissibilityBug("splice tail does not coincide with the target tail")
    return z


def _limit_shadowed_by(sys: FiniteSystem, states, epsilon, z) -> bool:
    """Does z epsilon-track the pseudo-orbit and merge with its true tail?

    The pseudo-orbit is extended beyond its last state by the true map; the
    pair (orbit of z, extended orbit) is eventually periodic, so the check
    is exact: all pairwise distances <= epsilon and distance zero on the
    repeating part.
    """
    rank, index, cut = sys.ranks.rank, sys.ranks.index, sys.ranks.cut(epsilon)
    u = z
    for s in states[:-1]:
        if rank[u][index[s]] > cut:
            return False
        u = sys.apply(u)
    pair = (u, states[-1])
    seen = set()
    while pair not in seen:
        seen.add(pair)
        if rank[pair[0]][index[pair[1]]] > cut:
            return False
        pair = (sys.apply(pair[0]), sys.apply(pair[1]))
    # walk the repeating part: distances there must vanish
    start = pair
    while True:
        if pair[0] != pair[1]:
            return False
        pair = (sys.apply(pair[0]), sys.apply(pair[1]))
        if pair == start:
            return True


def estimate_slimit_modulus(sys: FiniteSystem, epsilon, length_cap: int,
                            budget: int = 10**7) -> Fraction:
    """Largest critical resolution at which every decaying pseudo-orbit it
    enumerates is epsilon-tracked with eventually-exact merge: an estimate
    from above of the s-limit shadowing modulus, not the modulus.

    It enumerates the chains of length k <= length_cap whose free (<= delta)
    steps lie in their first k // 2 steps, each followed by its true orbit.
    A decaying pseudo-orbit with a free step later on is never tried, and it
    may have no limit shadow where every tried one has, so the estimate can
    overstate the modulus (``tests/test_shadowing.py`` pins such a chain).
    """
    epsilon = Fraction(epsilon)
    spent = 0

    def orbits_ok(delta: Fraction) -> bool:
        nonlocal spent
        succ = build_chain_digraph(sys, delta).succ
        for k in range(2, length_cap + 1):
            free = k // 2  # steps with a free (<= delta) error
            stack = [[u] for u in sorted(sys.points)]
            while stack:
                seq = stack.pop()
                if len(seq) == k:
                    spent += 1
                    if spent > budget:
                        raise BudgetExceeded("pseudo-orbit enumeration budget", spent=spent)
                    if not any(_limit_shadowed_by(sys, seq, epsilon, z)
                               for z in sys.points):
                        return False
                    continue
                if len(seq) <= free:
                    for v in succ[seq[-1]]:
                        stack.append(seq + [v])
                else:
                    stack.append(seq + [sys.apply(seq[-1])])
        return True

    for delta in reversed(critical_deltas(sys)):
        if orbits_ok(delta):
            return delta
    return Fraction(0)
