"""Pseudo-orbits, shadowing, limit shadowing and exact splice constructions.

On finite systems shadowing is decided by brute force over start points,
and limit shadowing exactly by one per-pair walk, ``limit_rank``, on int
distance ranks.  On vertex shifts a pseudo-orbit whose steps agree to depth
n is shadowed by splicing first symbols: consecutive states overlap in n
symbols, so adjacent spliced symbols are admissible pairs, and the spliced
point tracks every state to depth n+1, then the last state's orbit exactly.

The splice toward a target tail realizes the asymptotic-merge construction:
keep a prefix of one point, connect admissibly, then copy the other point's
tail at its original coordinates, which drives the tracking error to
exactly zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache, cached_property
from itertools import accumulate, compress
from operator import ne
from typing import NamedTuple, Sequence

from .chains import critical_ranks
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
    def max_error(self) -> Fraction:
        """max(errors), and 0 for no step.  The maximum is taken on keys that
        order like the errors and read back from the errors: the ranks, the
        depths negated (None least), or else the errors themselves."""
        keys = self.ranks or self.errors
        if self.depths is not None:
            keys = [-math.inf if k is None else -k for k in self.depths]
        return self.errors[keys.index(max(keys))] if keys else Fraction(0)


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


def limit_rank(sys: FiniteSystem, u: str, v: str) -> int | None:
    """The greatest rank of d(f^t u, f^t v) over t >= 0 if the pair orbit
    reaches the diagonal, where two equal points stay, and None if a pair
    off the diagonal comes round again.  So Good(u, v) at a cut, the pair
    orbit within the cut and merging, is ``limit_rank in range(cut + 1)``."""
    rank, index, f = sys.ranks.rank, sys.ranks.index, sys.map
    top, seen = 0, set()
    while u != v:
        if (u, v) in seen:
            return None
        seen.add((u, v))
        top = max(top, rank[u][index[v]])
        u, v = f[u], f[v]
    return top


def _near(sys: FiniteSystem, us, s: str, cut: int) -> frozenset:
    """The points of ``us`` within rank ``cut`` of s."""
    rank, j = sys.ranks.rank, sys.ranks.index[s]
    return frozenset(u for u in us if rank[u][j] <= cut)


def limit_shadowed(sys: FiniteSystem, po: PseudoOrbit, epsilon) -> bool:
    """Does some z epsilon-track the pseudo-orbit, then the true orbit of its
    last state s, and merge with it?  The trackers' positions Z_0 = B(s_0),
    Z_{i+1} = f(Z_i) & B(s_{i+1}) are one set; only those at s walk on."""
    cut, f, states = sys.ranks.cut(Fraction(epsilon)), sys.map, po.states
    z = _near(sys, sys.points, states[0], cut)
    for s in states[1:]:
        z = z and _near(sys, map(f.__getitem__, z), s, cut)  # none left: stop
    return any(limit_rank(sys, u, states[-1]) in range(cut + 1) for u in z)


def slimit_modulus(sys: FiniteSystem, epsilon,
                   budget: int = 10**7) -> tuple[Fraction, tuple[str, ...] | None]:
    """The largest critical delta at which every decaying delta-pseudo-orbit
    is epsilon-limit-shadowed, and the shortest chain that is not at the
    next rung up (None at the top).

    Such a pseudo-orbit is a delta-chain followed by the true orbit of its
    last state s; it fails iff no tracker in Z (``limit_shadowed``) is Good
    at s, and Z empty also settles the chains that never stop.  A
    breadth-first search over the states (s, Z), each charged to
    ``budget``, decides a rung.  Failure is monotone in delta, so the
    ladder of ``critical_ranks`` is bisected; its first rung, 0, holds.
    """
    cut, spent = sys.ranks.cut(Fraction(epsilon)), 0
    if cut < 0:  # level 0 is distance 0
        raise SpecError("epsilon must be nonnegative")
    names, rank, f = sys.ranks.names, sys.ranks.rank, sys.map
    good = cache(lambda u, s: limit_rank(sys, u, s) in range(cut + 1))

    def failing_chain(rung: int) -> tuple[str, ...] | None:
        nonlocal spent
        queue = [((s,), _near(sys, names, s, cut)) for s in names]
        seen = {(chain[-1], z) for chain, z in queue}
        for chain, z in queue:  # appended to while read: breadth first
            spent += 1
            if spent > budget:
                raise BudgetExceeded("s-limit shadowing state budget", spent=spent)
            s = chain[-1]
            if not any(good(u, s) for u in z):
                return chain
            image = [f[u] for u in z]
            for t, r in zip(names, rank[f[s]]):
                if r <= rung and (t, nz := _near(sys, image, t, cut)) not in seen:
                    seen.add((t, nz))
                    queue.append((chain + (t,), nz))
        return None

    rungs = critical_ranks(sys)
    lo, hi, witness = 0, len(rungs), None
    while hi - lo > 1:
        mid = (lo + hi) // 2
        chain = failing_chain(rungs[mid])
        lo, hi, witness = (mid, hi, witness) if chain is None else (lo, mid, chain)
    return sys.ranks.level(rungs[lo]), witness
