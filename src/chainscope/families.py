"""Time sets and membership tests for four Furstenberg families.

Families, strongest first: UD1 (upper density one), THICK (arbitrarily long
runs), IAPSTAR (meets every infinite arithmetic progression; the dual of the
contains-a-progression family), INFINITE.  Membership is decided exactly for
eventually periodic sets and estimated by windowed testers for finite
observation windows; every windowed verdict carries its truncation
parameters, since the defining quantifiers are unbounded and truncation must
stay visible.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

from .errors import HorizonTooSmall, MonotonicityBug, SpecError

FAMILIES = ("UD1", "THICK", "IAPSTAR", "INFINITE")

# the longest window a time set may be read or generated on; a window holds
# one int per step, and the testers are linear in its length
MAX_WINDOW = 10**6


# A validated record is a NamedTuple of its fields, subclassed to check them
# in ``__new__`` (NamedTuple itself refuses a ``__new__``).

class _TimeSetWindowFields(NamedTuple):
    horizon: int
    members: tuple[int, ...]  # bits


class TimeSetWindow(_TimeSetWindowFields):
    """A time set observed on the window [0, horizon)."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.horizon < 1 or len(self.members) != self.horizon:
            raise SpecError("window bits must match the horizon")
        if not set(self.members) <= {0, 1}:
            raise SpecError("window entries must be bits")
        return self


class _EventuallyPeriodicSetFields(NamedTuple):
    preperiod: tuple[int, ...]
    pattern: tuple[int, ...]


class EventuallyPeriodicSet(_EventuallyPeriodicSetFields):
    """Subset of the naturals: explicit preperiod bits, then a repeating
    pattern."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if len(self.pattern) < 1:
            raise SpecError("pattern must be nonempty")
        if any(b not in (0, 1) for b in self.preperiod + self.pattern):
            raise SpecError("set entries must be bits")
        return self

    def contains(self, i: int) -> bool:
        if i < len(self.preperiod):
            return bool(self.preperiod[i])
        return bool(self.pattern[(i - len(self.preperiod)) % len(self.pattern)])


class FamilyVerdict(NamedTuple):
    family: str
    member: bool
    mode: str  # "exact" | "windowed"
    certificate: dict


def upper_density(A: EventuallyPeriodicSet) -> Fraction:
    """limsup of prefix densities; the periodic part dominates, so the value
    is (set bits in pattern) / period."""
    ones = sum(A.pattern)
    value = Fraction(ones, len(A.pattern))
    return value


def _longest_run(bits) -> tuple[int, int]:
    """(length, start) of the longest run of ones."""
    best = (0, 0)
    run = 0
    for i, b in enumerate(bits):
        run = run + 1 if b else 0
        if run > best[0]:
            best = (run, i - run + 1)
    return best


def family_member(A: EventuallyPeriodicSet, family: str) -> FamilyVerdict:
    """Exact membership decision for an eventually periodic set."""
    if family not in FAMILIES:
        raise SpecError(f"unknown family {family!r}")
    L, P = len(A.preperiod), len(A.pattern)
    if family == "UD1":
        dens = upper_density(A)
        return FamilyVerdict("UD1", dens == 1, "exact",
                             {"upper_density": str(dens)})
    if family == "THICK":
        if all(A.pattern):
            return FamilyVerdict("THICK", True, "exact",
                                 {"run": "cofinite tail"})
        # runs in the tail never cover a full period; the preperiod adds a
        # bounded amount only
        run, start = _longest_run([int(A.contains(i)) for i in range(L + 3 * P)])
        return FamilyVerdict("THICK", False, "exact",
                             {"longest_run_bound": max(run, L + P), "run_start": start})
    if family == "IAPSTAR":
        # meets every progression <p, m> iff, for every divisor g of the
        # period, the pattern meets every residue class mod g; the residues
        # visited by p + q*m settle onto a coset of gcd(m, P) mod P
        for g in sorted(d for d in range(1, P + 1) if P % d == 0):
            hit = {i % g for i, b in enumerate(A.pattern) if b}
            for r in range(g):
                if r not in hit:
                    return FamilyVerdict(
                        "IAPSTAR", False, "exact",
                        {"failing_progression": {"p": L + r, "m": g}})
        return FamilyVerdict("IAPSTAR", True, "exact", {})
    ones = [i for i, b in enumerate(A.pattern) if b]
    if ones:
        return FamilyVerdict("INFINITE", True, "exact",
                             {"tail_element": L + ones[0]})
    return FamilyVerdict("INFINITE", False, "exact", {"tail_element": None})


class _WindowParamsFields(NamedTuple):
    theta: Fraction = Fraction(1, 100)
    run_req: int | None = None
    m_max: int | None = None


class WindowParams(_WindowParamsFields):
    """Truncation constants for the windowed testers.

    ``run_req`` defaults to floor(sqrt(H)) and ``m_max`` to the largest value
    the horizon supports (at most 20); explicitly requested values that the
    horizon cannot support raise HorizonTooSmall.  The IAPSTAR and INFINITE
    testers read the tail from H // 2 on.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        # a bound of 0 asks for empty runs or no progressions at all, and
        # THICK or IAPSTAR would then pass vacuously
        for name in ("run_req", "m_max"):
            value = getattr(self, name)
            if value is not None and value < 1:
                raise SpecError(f"{name} must be at least 1")
        return self

    def resolve(self, horizon: int, family: str) -> tuple[Fraction, int, int, int]:
        run_req = self.run_req if self.run_req is not None else max(1, math.isqrt(horizon))
        m_max = self.m_max if self.m_max is not None else max(1, min(20, math.isqrt(horizon // 4)))
        if family == "THICK" and horizon < 4 * run_req:
            raise HorizonTooSmall(f"H={horizon} < 4*run_req={4 * run_req}")
        if family == "IAPSTAR" and horizon < 4 * m_max * m_max:
            raise HorizonTooSmall(f"H={horizon} < 4*m_max^2={4 * m_max * m_max}")
        return self.theta, run_req, m_max, horizon // 2


def window_family_member(A: TimeSetWindow, family: str,
                         params: WindowParams = WindowParams()) -> FamilyVerdict:
    """Windowed membership test; the unbounded quantifiers of each family
    become bounded loops over the observation window."""
    if family not in FAMILIES:
        raise SpecError(f"unknown family {family!r}")
    # the bits are read once: a NamedTuple field read is a descriptor call
    H, members = A.horizon, A.members
    theta, run_req, m_max, tail_start = params.resolve(H, family)
    meta = {"H": H, "theta": str(theta), "run_req": run_req,
            "m_max": m_max, "tail_start": tail_start}
    if family == "UD1":
        # the best prefix density is best_count / best_n (0 / 1 before any
        # prefix counts): count / n > best_count / best_n iff
        # count * best_n > best_count * n, an int comparison
        best_count, best_n = 0, 0
        count = sum(members[: H // 2])
        for n in range(H // 2, H + 1):
            if n > H // 2:
                count += members[n - 1]
            if count * (best_n or 1) > best_count * n:
                best_count, best_n = count, n
        best = Fraction(best_count, best_n or 1)
        member = best >= 1 - theta
        return FamilyVerdict("UD1", member, "windowed",
                             dict(meta, best_prefix_density=str(best), best_prefix=best_n))
    if family == "THICK":
        run, start = _longest_run(members)
        return FamilyVerdict("THICK", run >= run_req, "windowed",
                             dict(meta, longest_run=run, run_start=start))
    if family == "IAPSTAR":
        tail = [i for i in range(tail_start, H) if members[i]]
        for m in range(1, m_max + 1):
            hit: set[int] = set()
            for i in tail:  # stop once every residue mod m is hit
                hit.add(i % m)
                if len(hit) == m:
                    break
            for p in range(m):
                if p not in hit:
                    return FamilyVerdict(
                        "IAPSTAR", False, "windowed",
                        dict(meta, failing_progression={"p": p, "m": m}))
        return FamilyVerdict("IAPSTAR", True, "windowed", meta)
    tail_members = [i for i in range(tail_start, H) if members[i]]
    return FamilyVerdict("INFINITE", bool(tail_members), "windowed",
                         dict(meta, tail_element=tail_members[0] if tail_members else None))


class InclusionAudit(NamedTuple):
    """Verdicts for all four families plus the monotonicity status."""

    verdicts: tuple[FamilyVerdict, FamilyVerdict, FamilyVerdict, FamilyVerdict]
    monotone: bool
    warnings: tuple[str, ...] = ()


def inclusion_audit(A, params: WindowParams = WindowParams()) -> InclusionAudit:
    """Test all four families, strongest first, and check that membership
    only weakens along the chain UD1, THICK, IAPSTAR, INFINITE.

    An exact-mode violation is an internal bug; windowed violations are
    reported as truncation artifacts.
    """
    if isinstance(A, EventuallyPeriodicSet):
        verdicts = tuple(family_member(A, f) for f in FAMILIES)
    else:
        verdicts = tuple(window_family_member(A, f, params) for f in FAMILIES)
    monotone = True
    warnings: list[str] = []
    for stronger, weaker in zip(verdicts, verdicts[1:]):
        if stronger.member and not weaker.member:
            monotone = False
            if stronger.mode == "exact":
                raise MonotonicityBug(
                    f"{stronger.family} member but {weaker.family} is not")
            warnings.append(
                f"windowed artifact: {stronger.family} true, {weaker.family} false")
    return InclusionAudit(verdicts, monotone, tuple(warnings))


def rotation_time_set(alpha: float, horizon: int) -> TimeSetWindow:
    """Visit times of the left half-circle under the circle rotation by alpha.

    Bit i is set iff the fractional part of i*alpha lies in (1/4, 3/4), the
    arc where the real part of the rotated unit point is negative.  alpha is
    only validated as non-rational within float precision: values within
    1e-12 of a fraction with denominator <= 1000 are rejected.
    """
    if not 1 <= horizon <= MAX_WINDOW:
        raise SpecError(f"horizon must be from 1 to {MAX_WINDOW}, got {horizon}")
    if not math.isfinite(alpha):
        raise SpecError(f"alpha must be finite, got {alpha}")
    a = float(alpha) % 1.0
    for q in range(1, 1001):
        if abs(a * q - round(a * q)) < 1e-12:
            raise SpecError(f"alpha={alpha} is rational within float precision (q={q})")
    bits = tuple(1 if 0.25 < (i * a) % 1.0 < 0.75 else 0 for i in range(horizon))
    return TimeSetWindow(horizon, bits)


# -- run-length text input ---------------------------------------------------------

def rle_to_window(text: str) -> TimeSetWindow:
    """The window of whitespace-separated ``BITxCOUNT`` runs, COUNT >= 1."""
    bits: list[int] = []
    for token in text.split():
        try:
            b, n = map(int, token.split("x"))
        except ValueError as exc:
            raise SpecError(f"bad run-length token {token!r}") from exc
        if n < 1:
            raise SpecError(f"run-length token {token!r} has a count below 1")
        if len(bits) + n > MAX_WINDOW:  # checked before the run is built
            raise SpecError(f"run-length window longer than {MAX_WINDOW}")
        bits += [b] * n
    if not bits:
        raise SpecError("empty run-length text")
    return TimeSetWindow(len(bits), tuple(bits))
