"""Pseudo-orbits, shadowing, limit shadowing and exact splice constructions.

On finite systems every start point is followed along the pseudo-orbit
in one walk, as one set of positions on int distance ranks; the least
start left gives the shadowing point, and the positions left at the last
state decide limit shadowing exactly by one per-pair walk each,
``limit_rank``.  On vertex shifts a pseudo-orbit whose steps agree to depth
n is shadowed by splicing first symbols: consecutive states overlap in n
symbols, so adjacent spliced symbols are admissible pairs, and the spliced
point tracks every state to depth n+1, then the last state's orbit exactly.
Its tracking depths follow from the step depths in one backward pass, by
the ultrametric inequality: d_i = 1 + min(d_(i+1), k_i) unless the two
tie, and only at a tie are symbols compared.

The splice toward a target tail realizes the asymptotic-merge construction:
keep a prefix of one point, connect admissibly, then copy the other point's
tail at its original coordinates, which drives the tracking error to
exactly zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache, cached_property, partial
from itertools import accumulate
from operator import is_not
from typing import NamedTuple, Sequence

from .chains import critical_ranks
from .errors import (AdmissibilityBug, BudgetExceeded, ClassMismatch, NotIrreducible,
                     PrecisionViolation, SpecError, StepViolation)
from .graph import rho
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
        least depth (None, distance 0, only if every depth is None), or else
        the errors themselves."""
        if self.depths is not None:  # the least depth, None only if all are
            k = min(filter(partial(is_not, None), self.depths), default=None)
            return self.errors[self.depths.index(k)]
        keys = self.ranks or self.errors
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
    depths = keys = None
    if isinstance(model, SftGraph):
        limit = dyadic_depth(delta)
        limit = math.inf if limit is None else limit
        validate_point(model, states[0])
        ks = []
        for i, (x, y) in enumerate(zip(states, states[1:])):
            validate_point(model, y)
            k = first_difference(x, y, 1)
            if k is not None and k < limit:
                raise StepViolation(i, dyadic(k))
            ks.append(k)
        depths = tuple(ks)
        errors = map({k: dyadic(k) for k in set(depths)}.__getitem__, depths)
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


def _trackers(sys: FiniteSystem, po: PseudoOrbit, cut: int) -> dict[str, str]:
    """The positions at the last state of the points whose orbits stay within
    rank ``cut`` of every state, each with the least such point, in
    ascending order of those points.

    One walk follows all the points as one set of positions: two that meet
    share their future, and the least of them is kept.
    """
    rank, index, f = sys.ranks.rank, sys.ranks.index, sys.map
    j = index[po.states[0]]
    at = {z: z for z in sorted(sys.points) if rank[z][j] <= cut}
    for s in po.states[1:]:
        if not at:
            break
        j, nxt = index[s], {}
        for u, z in at.items():  # ascending z: the first to reach v is the least
            v = f[u]
            if v not in nxt and rank[v][j] <= cut:
                nxt[v] = z
        at = nxt
    return at


def find_shadowing_point(sys: FiniteSystem, po: PseudoOrbit, epsilon) -> ShadowResult:
    """The least z by node id with d(f^i(z), x_i) <= epsilon for all i, or
    an absent result; exact.  A distance exceeds epsilon iff its rank
    exceeds ``cut(epsilon)``.  z is the least start the walk of
    ``_trackers`` keeps; its tail profile is read along its own orbit.
    """
    epsilon = Fraction(epsilon)
    if epsilon < 0:
        raise SpecError("epsilon must be nonnegative")
    ends = _trackers(sys, po, sys.ranks.cut(epsilon))
    if not ends:
        return ShadowResult(None, None, ())
    z = next(iter(ends.values()))
    rank, index, f = sys.ranks.rank, sys.ranks.index, sys.map
    u, track = z, []
    for s in po.states:
        track.append(rank[u][index[s]])
        u = f[u]
    tail = [*accumulate(reversed(track), max)][::-1]
    level = {r: sys.ranks.level(r) for r in set(tail)}.__getitem__
    return ShadowResult(z, level(tail[0]), tuple(map(level, tail)))


def sft_shadow(g: SftGraph, po: PseudoOrbit, n: int) -> ShadowResult:
    """Exact shadow of a depth-n pseudo-orbit on a vertex shift.

    Requires every step error <= 2^(-n) with n >= 1.  The shadow z reads the
    first symbol of each state and then follows the final state; it is
    admissible and tracks every state within 2^(-(n+1)).  Decaying step
    errors therefore yield decaying tracking errors: the construction is the
    asymptotic-tracking mechanism on shifts.

    The states are checked against g unless ``validate_pseudo_orbit``
    already did, and the step depths k_i are taken from it (or measured
    once).  The tracking depths d_i come from them backward, with None as
    infinity: d_(L-1) is None, as z's tail is the last state, and since
    shift^i z is x_i[0] followed by shift^(i+1) z, d_i = 1 + fd(shift^(i+1)
    z, shift x_i), fd the first difference.  Both sides lie at depths
    d_(i+1) and k_i from x_(i+1), so by the ultrametric inequality that is
    1 + min(d_(i+1), k_i) when the two differ.  Only at a tie are symbols
    compared, from the tied index on.
    """
    if n < 1:
        raise SpecError("agreement depth n must be at least 1")
    states, depths = po.states, po.depths
    if po.checked is not g:
        for x in states:
            validate_point(g, x)
    if depths is None:
        depths = [first_difference(x, y, 1) for x, y in zip(states, states[1:])]
    if min(filter(partial(is_not, None), depths), default=n) < n:
        i, k = next((i, k) for i, k in enumerate(depths) if k is not None and k < n)
        raise PrecisionViolation(i, dyadic(k))
    last = states[-1]
    z = SftPoint(tuple([(h or c)[0] for h, c in states[:-1]]) + last.head, last.cycle)
    try:
        validate_point(g, z)
    except Exception as exc:  # pragma: no cover - construction invariant
        raise AdmissibilityBug(f"spliced shadow is not admissible: {exc}") from exc
    d = math.inf
    ds = [d]  # d_(L-1), ..., d_0, infinity standing for None
    for i, k in zip(range(len(depths) - 1, -1, -1), reversed(depths)):
        if k is None or k > d:
            d += 1
        elif k < d:
            d = k + 1
        else:  # shift^(i+1) z and shift x_i both differ from x_(i+1) at index d
            r = first_difference(z, shift_by(states[i], d + 1), i + 1 + d)
            d = math.inf if r is None else d + 1 + r
        ds.append(d)
    # the suffix maxima of the distances are the suffix minima of the depths
    suffix = [*accumulate(ds, min)][::-1]
    if suffix[0] < n + 1:  # pragma: no cover - construction invariant
        i, k = next((i, k) for i, k in enumerate(reversed(ds)) if k < n + 1)
        raise AdmissibilityBug(f"tracking bound 2^-(n+1) fails at step {i}: {dyadic(k)}")
    level = {k: dyadic(None if k == math.inf else k) for k in set(suffix)}.__getitem__
    tail = tuple(map(level, suffix))
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
    """The greatest rank of d(f^t u, f^t v) over t >= 0 if the pair orbit, a
    rho (``graph.rho``), has its cycle on the diagonal, where the ranks are
    0, and None otherwise.  So Good(u, v) at a cut, the pair orbit within
    the cut and merging, is a limit rank, not None, <= cut."""
    rank, index, f = sys.ranks.rank, sys.ranks.index, sys.map
    walk, start = rho(lambda p: (f[p[0]], f[p[1]]), (u, v))
    a, b = walk[start]
    return max(rank[x][index[y]] for x, y in walk) if a == b else None


def _near(sys: FiniteSystem, us, s: str, cut: int) -> frozenset:
    """The points of ``us`` within rank ``cut`` of s."""
    rank, j = sys.ranks.rank, sys.ranks.index[s]
    return frozenset(u for u in us if rank[u][j] <= cut)


def limit_shadowed(sys: FiniteSystem, po: PseudoOrbit, epsilon) -> bool:
    """Does some z epsilon-track the pseudo-orbit, then the true orbit of its
    last state s, and merge with it?  The trackers' positions Z_0 = B(s_0),
    Z_{i+1} = f(Z_i) & B(s_{i+1}) are one set (``_trackers``); only those at
    s walk on."""
    cut, s = sys.ranks.cut(Fraction(epsilon)), po.states[-1]
    return any((r := limit_rank(sys, u, s)) is not None and r <= cut
               for u in _trackers(sys, po, cut))


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
    good = cache(lambda u, s: (r := limit_rank(sys, u, s)) is not None and r <= cut)

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
