import math
import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chainscope import (EventuallyPeriodicSet, TimeSetWindow, WindowParams, family_member,
                        inclusion_audit, rotation_time_set, upper_density,
                        window_family_member)
from chainscope.errors import HorizonTooSmall, SpecError
from chainscope.families import rle_to_window

from oracles import brute_iapstar, brute_thick, fraction_best_prefix, windowed_iapstar_bruteforce


def eps(pre, pat):
    return EventuallyPeriodicSet(tuple(pre), tuple(pat))


def window(a: EventuallyPeriodicSet, horizon: int) -> TimeSetWindow:
    """``a`` observed on [0, horizon)."""
    return TimeSetWindow(horizon, tuple(int(a.contains(i)) for i in range(horizon)))


def members(audit) -> tuple[bool, ...]:
    return tuple(v.member for v in audit.verdicts)


def test_upper_density():
    assert upper_density(eps([], [1])) == 1
    assert upper_density(eps([], [1, 0])) == Fraction(1, 2)
    assert upper_density(eps([0, 0, 0, 0], [1, 1, 0])) == Fraction(2, 3)


def test_family_member_full_set():
    full = eps([], [1])
    for fam in ("UD1", "THICK", "IAPSTAR", "INFINITE"):
        assert family_member(full, fam).member


def test_family_member_evens():
    evens = eps([], [1, 0])
    assert not family_member(evens, "UD1").member
    assert not family_member(evens, "THICK").member
    v = family_member(evens, "IAPSTAR")
    assert not v.member
    assert v.certificate["failing_progression"] == {"p": 1, "m": 2}
    assert family_member(evens, "INFINITE").member


def test_family_member_cofinite():
    cof = eps([0], [1])
    assert all(family_member(cof, fam).member
               for fam in ("UD1", "THICK", "IAPSTAR", "INFINITE"))


def test_family_member_empty_tail():
    dead = eps([1, 1], [0])
    assert not family_member(dead, "INFINITE").member
    assert family_member(dead, "INFINITE").certificate["tail_element"] is None


def test_iapstar_failing_progression_is_genuinely_disjoint():
    a = eps([1, 0], [1, 1, 0, 1])
    verdict = family_member(a, "IAPSTAR")
    if not verdict.member:
        cert = verdict.certificate["failing_progression"]
        p, m = cert["p"], cert["m"]
        assert not any(a.contains(p + q * m) for q in range(200))


def test_exact_deciders_match_brute_force_exhaustively_small():
    for L in range(0, 4):
        for P in range(1, 6):
            for pre in product((0, 1), repeat=L):
                for pat in product((0, 1), repeat=P):
                    a = eps(pre, pat)
                    want_iap, _ = brute_iapstar(pre, pat)
                    assert family_member(a, "IAPSTAR").member == want_iap
                    assert family_member(a, "THICK").member == brute_thick(pre, pat)
                    # derived characterization: both collapse to all-ones
                    assert want_iap == all(pat)


def test_windowed_full_and_evens():
    full = window(eps([], [1]), 1024)
    for fam in ("UD1", "THICK", "IAPSTAR", "INFINITE"):
        v = window_family_member(full, fam)
        assert v.member and v.mode == "windowed"
    evens = window(eps([], [1, 0]), 1024)
    assert not window_family_member(evens, "UD1").member
    thick = window_family_member(evens, "THICK")
    assert not thick.member and thick.certificate["longest_run"] == 1
    iap = window_family_member(evens, "IAPSTAR")
    assert not iap.member
    assert iap.certificate["failing_progression"] == {"p": 1, "m": 2}
    assert window_family_member(evens, "INFINITE").member


def test_windowed_factorial_blocks():
    blocks = set()
    for k in range(1, 7):
        blocks.update(range(math.factorial(k), math.factorial(k) + k + 1))
    w = TimeSetWindow(1024, tuple(int(i in blocks) for i in range(1024)))
    assert window_family_member(w, "THICK", WindowParams(run_req=6)).member
    assert not window_family_member(w, "UD1").member


def test_horizon_guards():
    w = window(eps([], [1]), 64)
    with pytest.raises(HorizonTooSmall):
        window_family_member(w, "THICK", WindowParams(run_req=32))
    with pytest.raises(HorizonTooSmall):
        window_family_member(w, "IAPSTAR", WindowParams(m_max=20))
    # defaults clamp instead of failing
    assert window_family_member(w, "IAPSTAR").member


def test_inclusion_audit_exact_and_windowed():
    assert members(inclusion_audit(eps([], [1]))) == (True, True, True, True)
    assert members(inclusion_audit(eps([], [1, 0]))) == (False, False, False, True)
    w = window(eps([], [1]), 512)
    assert members(inclusion_audit(w)) == (True, True, True, True)


def test_inclusion_audit_monotone_random_sweep():
    rng = random.Random(13)
    for _ in range(300):
        L = rng.randint(0, 8)
        P = rng.randint(1, 10)
        a = eps([rng.randrange(2) for _ in range(L)],
                [rng.randrange(2) for _ in range(P)])
        assert inclusion_audit(a).monotone


def test_windowed_testers_converge_to_exact():
    rng = random.Random(14)
    for _ in range(40):
        L = rng.randint(0, 5)
        P = rng.randint(1, 6)
        pat = [rng.randrange(2) for _ in range(P)]
        if not any(pat) and rng.random() < 0.5:
            pat[0] = 1
        a = eps([rng.randrange(2) for _ in range(L)], pat)
        H = max(4 * (L + 2 * P) ** 2, 8 * P * (L + P), 4 * P * P, 256)
        w = window(a, H)
        params = WindowParams(theta=Fraction(1, 4 * P), m_max=max(P, 2))
        assert window_family_member(w, "UD1", params).member == family_member(a, "UD1").member
        assert window_family_member(w, "THICK", params).member == family_member(a, "THICK").member
        assert window_family_member(w, "IAPSTAR", params).member == family_member(a, "IAPSTAR").member
        assert window_family_member(w, "INFINITE", params).member == family_member(a, "INFINITE").member


def test_rotation_time_set_properties():
    alpha = (math.sqrt(5) - 1) / 2
    w = rotation_time_set(alpha, 10_000)
    assert window_family_member(w, "IAPSTAR", WindowParams(m_max=20)).member
    assert not window_family_member(w, "THICK", WindowParams(run_req=100)).member
    density = sum(w.members) / w.horizon
    assert abs(density - 0.5) <= 0.02


def test_rotation_rejects_rational_alpha():
    with pytest.raises(SpecError):
        rotation_time_set(0.25, 100)


def test_rle_to_window_parses_runs():
    assert rle_to_window("1x2 0x1 1x1") == TimeSetWindow(4, (1, 1, 0, 1))
    assert rle_to_window(" 1x2\n0x3 ") == window(eps([1, 1], [0]), 5)
    for text in ("", "1x", "1-2", "2x1"):
        with pytest.raises(SpecError):
            rle_to_window(text)


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.lists(st.integers(0, 1), min_size=1, max_size=240),
                 st.lists(st.sampled_from((0, 1, 1, 1, 1, 1, 1, 1)), min_size=1, max_size=240)),
       st.fractions(min_value=0, max_value=1, max_denominator=40))
def test_ud1_window_matches_fraction_prefix_densities(bits, theta):
    verdict = window_family_member(TimeSetWindow(len(bits), tuple(bits)), "UD1",
                                   WindowParams(theta=theta))
    best, best_n = fraction_best_prefix(bits)
    assert verdict.member == (best >= 1 - theta)
    assert verdict.certificate["best_prefix_density"] == str(best)
    assert verdict.certificate["best_prefix"] == best_n


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.lists(st.integers(0, 1), min_size=4, max_size=300),
                 st.lists(st.sampled_from((0, 0, 0, 0, 0, 1)), min_size=4, max_size=300)),
       st.integers(1, 8))
def test_windowed_iapstar_matches_every_progression(bits, m_max):
    window = TimeSetWindow(len(bits), tuple(bits))
    if len(bits) < 4 * m_max * m_max:
        m_max = None  # the largest value the horizon supports
    verdict = window_family_member(window, "IAPSTAR", WindowParams(m_max=m_max))
    failing = windowed_iapstar_bruteforce(bits, verdict.certificate["m_max"], len(bits) // 2)
    assert verdict.member == (failing is None)
    if failing is not None:
        assert verdict.certificate["failing_progression"] == {"p": failing[0], "m": failing[1]}
