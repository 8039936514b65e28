import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chainscope import (PseudoOrbit, SftPoint, critical_deltas, find_shadowing_point,
                        limit_rank, limit_shadowed, sft_distance, slimit_modulus,
                        slimit_splice, sft_shadow, validate_pseudo_orbit)
from chainscope import load_corpus, sft, shadowing
from chainscope.chains import critical_ranks
from chainscope.errors import (ClassMismatch, InvalidPoint, NotIrreducible, PrecisionViolation,
                               SpecError, StepViolation, ValidationError)
from chainscope.sft import SftGraph, shift_by
from chainscope.shadowing import ShadowResult

from conftest import finite_models, random_point, random_pseudo_orbit, random_system
from oracles import (failing_chains, fraction_levels, fraction_pseudo_orbit, fraction_shadow,
                     fraction_table, limit_shadowed_by, pair_orbit_top, shadow_bruteforce)


def test_validate_true_orbit_is_zero_error(sys3):
    po = validate_pseudo_orbit(sys3, ["a", "b", "c", "a"], 0)
    assert po.errors == (Fraction(0),) * 3


def test_validate_rejects_oversized_step(sys2id):
    with pytest.raises(StepViolation) as exc:
        validate_pseudo_orbit(sys2id, ["p", "q"], Fraction(1, 2))
    assert exc.value.index == 0 and exc.value.error == 1


def test_validate_sft_steps(full2):
    x = SftPoint((), (0,))
    y = SftPoint((0, 0, 0), (1,))  # agrees with shift(x) on 3 symbols
    po = validate_pseudo_orbit(full2, [x, y], Fraction(1, 8))
    assert po.errors[0] == Fraction(1, 8)


def test_validate_sft_checks_each_state_once(full2, monkeypatch):
    calls = []
    original = sft.validate_point

    def counting(g, p):
        calls.append(p)
        return original(g, p)

    # the shift and the distance helpers look the name up in sft, the
    # pseudo-orbit check in shadowing
    monkeypatch.setattr(sft, "validate_point", counting)
    monkeypatch.setattr(shadowing, "validate_point", counting)
    states = random_pseudo_orbit(full2, random.Random(5), 3, 40)
    po = validate_pseudo_orbit(full2, states, Fraction(1, 8))
    assert len(po.states) == 40
    assert calls == list(states)


def test_validate_sft_step_violation_before_later_invalid_state(goldenmean):
    ok = SftPoint((), (0,))
    jump = SftPoint((1,), (0,))  # differs from shift(ok) at index 0
    bad = SftPoint((), (1,))  # 1 -> 1 is forbidden on the golden mean graph
    with pytest.raises(StepViolation) as exc:
        validate_pseudo_orbit(goldenmean, [ok, jump, bad], Fraction(1, 4))
    assert exc.value.index == 0 and exc.value.error == 1
    # an invalid state is still named before the step that reaches it is measured
    with pytest.raises(InvalidPoint):
        validate_pseudo_orbit(goldenmean, [ok, ok, bad, jump], Fraction(1, 4))
    with pytest.raises(InvalidPoint):
        validate_pseudo_orbit(goldenmean, [bad, ok], 1)


def test_find_shadowing_point_examples(sys3, sys2id):
    po = validate_pseudo_orbit(sys3, ["a", "b", "c", "a"], 0)
    res = find_shadowing_point(sys3, po, 0)
    assert res.point == "a" and res.epsilon == 0
    po_id = validate_pseudo_orbit(sys2id, ["p", "p", "p"], 0)
    assert find_shadowing_point(sys2id, po_id, 0).point == "p"
    # jumping orbit at delta=1 is unshadowable within 1/2
    po_jump = validate_pseudo_orbit(sys3, ["a", "a", "a"], 1)
    assert find_shadowing_point(sys3, po_jump, Fraction(1, 2)).point is None


def test_sft_shadow_true_orbit(full2):
    x = SftPoint((), (0, 1))
    states = [x]
    for _ in range(9):
        states.append(shift_by(states[-1], 1))
    po = validate_pseudo_orbit(full2, states, 0)
    res = sft_shadow(full2, po, 3)
    assert res.point == x and res.epsilon == 0


def test_sft_shadow_depth_bound(full2, goldenmean):
    rng = random.Random(31)
    for g in (full2, goldenmean):
        for depth in (2, 3, 4):
            states = random_pseudo_orbit(g, rng, depth, 60)
            po = validate_pseudo_orbit(g, states, Fraction(1, 2**depth))
            res = sft_shadow(g, po, depth)
            assert res.epsilon <= Fraction(1, 2**(depth + 1))
            # independent recheck of the tracking bound
            z = res.point
            for i, s in enumerate(states):
                assert sft_distance(g, shift_by(z, i), s) <= Fraction(1, 2**(depth + 1))


def test_sft_shadow_rejects_coarse_orbit(full2):
    x = SftPoint((), (0,))
    y = SftPoint((), (1,))
    po = PseudoOrbit((x, y), (sft_distance(full2, shift_by(x, 1), y),))
    with pytest.raises(PrecisionViolation):
        sft_shadow(full2, po, 2)


def test_sft_shadow_increasing_depths_decay(full2, goldenmean):
    # agreement depths n, n+1, n+2, ... along the orbit force the tracking
    # error at step i down to 2^-(n+i+1)
    from conftest import _close_walk

    rng = random.Random(32)
    n = 2
    for g in (full2, goldenmean):
        for _ in range(10):
            states = [random_point(g, rng)]
            for i in range(30):
                prev = shift_by(states[-1], 1)
                walk = prev.expand(n + i)
                walk.append(rng.choice(g.successors(walk[-1])))
                states.append(_close_walk(g, walk))
            po = validate_pseudo_orbit(g, states, Fraction(1, 2**n))
            res = sft_shadow(g, po, n)
            z = res.point
            for i, s in enumerate(states):
                assert sft_distance(g, shift_by(z, i), s) <= Fraction(1, 2**(n + i + 1))


def test_slimit_splice_full_shift(full2):
    x = SftPoint((), (1,))
    y = SftPoint((), (0,))
    z = slimit_splice(full2, x, y, Fraction(1, 8))
    assert sft_distance(full2, y, z) <= Fraction(1, 8)
    # tail merges exactly with x's tail at its own coordinates
    k = len(z.head)
    assert shift_by(z, k) == shift_by(x, k)
    assert z.expand(3) == y.expand(3)


def test_slimit_splice_identity_case(full2):
    y = SftPoint((), (0, 1))
    assert slimit_splice(full2, y, y, Fraction(1, 4)) == y


def test_slimit_splice_golden_mean(goldenmean):
    x = SftPoint((), (0,))
    y = SftPoint((), (0, 1))
    z = slimit_splice(goldenmean, x, y, Fraction(1, 4))
    assert sft_distance(goldenmean, y, z) <= Fraction(1, 4)
    word = z.expand(32)
    assert all(not (a == 1 and b == 1) for a, b in zip(word, word[1:]))
    k = len(z.head)
    assert shift_by(z, k) == shift_by(x, k)


def test_slimit_splice_random_sweep(full2, goldenmean):
    rng = random.Random(33)
    for g in (full2, goldenmean):
        for _ in range(40):
            x = random_point(g, rng)
            y = random_point(g, rng)
            n = rng.randint(1, 6)
            z = slimit_splice(g, x, y, Fraction(1, 2**n))
            assert sft_distance(g, y, z) <= Fraction(1, 2**n)
            k = max(len(z.head), len(x.head)) + 1
            assert shift_by(z, k) == shift_by(x, k)


def test_slimit_splice_class_mismatch():
    four_cycle = SftGraph((
        (0, 1, 0, 0),
        (0, 0, 1, 0),
        (0, 0, 0, 1),
        (1, 0, 0, 0),
    ))
    x = SftPoint((), (0, 1, 2, 3))
    y = SftPoint((), (1, 2, 3, 0))
    with pytest.raises(ClassMismatch):
        slimit_splice(four_cycle, x, y, Fraction(1, 4))
    # same class works
    z = slimit_splice(four_cycle, x, x, Fraction(1, 4))
    assert z == x


def test_slimit_splice_requires_irreducible():
    g = SftGraph((
        (1, 1, 0),
        (0, 1, 1),
        (0, 0, 1),
    ))
    with pytest.raises(NotIrreducible):
        slimit_splice(g, SftPoint((), (0,)), SftPoint((), (2,)), Fraction(1, 2))


def test_slimit_modulus_examples(sys2id, sys3, rotation4):
    assert slimit_modulus(sys2id, Fraction(1, 2))[0] == 0
    assert slimit_modulus(sys3, Fraction(0))[0] == 0
    assert slimit_modulus(rotation4, Fraction(1, 4))[0] == 0


def test_slimit_modulus_positive_case():
    # contractive-to-fixed-point system: every jump within delta=1 is
    # shadowed by the fixed point itself when epsilon covers the radius
    from chainscope import finite_system

    sys = finite_system(
        ["o", "r"],
        {"o": "o", "r": "o"},
        {("o", "r"): 1},
    )
    # the top rung holds, so no rung above it has a failing chain
    assert slimit_modulus(sys, Fraction(1)) == (1, None)


def test_a_decaying_chain_with_a_late_free_step_has_no_limit_shadow():
    # a search that tried free steps only in a chain's first half never
    # tried this chain, whose second free step is its last one, and put the
    # modulus at 1/3: p0 p2 p1 p3 p4 p2 p1 p3 p4, then the true orbit of p4
    rng = random.Random(1)
    sys = [random_system(rng, max_points=6) for _ in range(120)][119]
    assert dict(sys.map) == {"p0": "p2", "p1": "p3", "p2": "p1", "p3": "p5", "p4": "p2",
                             "p5": "p0"}
    chain = ["p0", "p2", "p1", "p3", "p4", "p2", "p1", "p3", "p4"]
    po = validate_pseudo_orbit(sys, chain, Fraction(1, 3))
    assert po.errors == (0, 0, 0, Fraction(1, 3), 0, 0, 0, Fraction(1, 3))
    assert not any(limit_shadowed_by(sys, chain, Fraction(5), z) for z in sys.points)
    assert not limit_shadowed(sys, po, Fraction(5))
    # the shortest failing chain at 1/3 is this one
    assert slimit_modulus(sys, Fraction(5)) == (0, tuple(chain))


@settings(max_examples=100, deadline=None)
@given(finite_models())
def test_limit_rank_matches_a_bruteforce_orbit_walk(sys):
    for u in sys.points:
        for v in sys.points:
            r = limit_rank(sys, u, v)
            assert (r if r is None else sys.ranks.level(r)) == pair_orbit_top(sys, u, v)


def _epsilons(sys):
    """Every distance level of ``sys``, a value between two of them and one
    past the largest."""
    levels = fraction_levels(sys)
    return [*levels, *((a + b) / 2 for a, b in zip(levels, levels[1:])), levels[-1] + 1]


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32), st.integers(2, 8), st.data())
def test_finite_limit_verdict_matches_bruteforce_over_every_z(seed, length, data):
    rng = random.Random(seed)
    sys = random_system(rng, max_points=7)
    delta = rng.choice(critical_deltas(sys))
    states = [rng.choice(sys.points)]
    while len(states) < length:
        states.append(rng.choice([v for v in sys.points
                                  if sys.distance(sys.apply(states[-1]), v) <= delta]))
    po = validate_pseudo_orbit(sys, states, delta)
    eps = data.draw(st.sampled_from(_epsilons(sys)))
    assert limit_shadowed(sys, po, eps) == any(limit_shadowed_by(sys, states, eps, z)
                                               for z in sys.points)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32), st.data())
def test_slimit_witness_fails_at_its_rung_and_failure_is_monotone(seed, data):
    sys = random_system(random.Random(seed), max_points=7)
    eps = data.draw(st.sampled_from(_epsilons(sys)))
    modulus, witness = slimit_modulus(sys, eps)
    rungs = critical_ranks(sys)
    levels = [sys.ranks.level(r) for r in rungs]
    k = levels.index(modulus)
    if witness is None:
        assert k == len(rungs) - 1
    else:
        validate_pseudo_orbit(sys, witness, levels[k + 1])
        with pytest.raises(StepViolation):
            validate_pseudo_orbit(sys, witness, modulus)
        assert not any(limit_shadowed_by(sys, witness, eps, z) for z in sys.points)
    # each rung decided alone, on a ladder of distance 0 and that rung
    fails = []
    with pytest.MonkeyPatch.context() as mp:
        for r, level in zip(rungs[1:], levels[1:]):
            mp.setattr(shadowing, "critical_ranks", lambda _, r=r: [0, r])
            alone, chain = slimit_modulus(sys, eps)
            assert (alone == level) == (chain is None)
            fails.append(chain is not None)
            if witness is not None and r == rungs[k + 1]:
                assert chain == witness  # the same search: the same shortest chain
    assert fails == [False] * k + [True] * (len(rungs) - 1 - k)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32), st.data())
def test_no_short_chain_fails_at_the_modulus(seed, data):
    # chains of up to 7 states, with a free step anywhere
    sys = random_system(random.Random(seed), max_points=5)
    eps = data.draw(st.sampled_from(_epsilons(sys)))
    modulus, _ = slimit_modulus(sys, eps)
    assert next(failing_chains(sys, modulus, eps, 7), None) is None


def test_find_shadowing_point_independent_recheck():
    from conftest import random_system
    from chainscope import critical_deltas

    rng = random.Random(34)
    for _ in range(25):
        sys = random_system(rng, max_points=7)
        crits = critical_deltas(sys)
        delta = crits[len(crits) // 2]
        start = rng.choice(sys.points)
        states = [start]
        for _ in range(5):
            states.append(rng.choice([v for v in sys.points
                                      if sys.distance(sys.apply(states[-1]), v) <= delta]))
        po = validate_pseudo_orbit(sys, states, delta)
        eps = rng.choice(crits)
        res = find_shadowing_point(sys, po, eps)
        if res.point is not None:
            u = res.point
            for s in states:
                assert sys.distance(u, s) <= eps
                u = sys.apply(u)


# on three or more symbols the two sequences that differ from a state at a
# tie of the tracking recurrence can also differ from each other
SHIFTS = {"full2": load_corpus("full2"), "goldenmean": load_corpus("goldenmean"),
          "full3": sft.full_shift(3), "triangle": SftGraph(((0, 1, 1), (1, 0, 1), (1, 1, 0)))}


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(sorted(SHIFTS)), st.integers(1, 4), st.integers(2, 40),
       st.integers(0, 6), st.integers(0, 2**32), st.booleans())
def test_sft_shadow_tracking_matches_bruteforce(name, depth, length, exact_tail, seed, shared):
    # exact_tail true steps at the end give tracking errors of exactly 0; a
    # shared base word makes ties of the recurrence at every depth
    g = SHIFTS[name]
    states = random_pseudo_orbit(g, random.Random(seed), depth, length, shared_base=shared)
    states += [shift_by(states[-1], i) for i in range(1, exact_tail + 1)]
    po = validate_pseudo_orbit(g, states, Fraction(1, 2**depth))
    res = sft_shadow(g, po, depth)
    track = [sft_distance(g, shift_by(res.point, i), s) for i, s in enumerate(states)]
    assert res.tail_profile == tuple(max(track[i:]) for i in range(len(track)))
    assert res.epsilon == max(track)
    assert shift_by(res.point, len(states) - 1) == states[-1]  # so it limit-shadows


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(["full2", "goldenmean"]), st.integers(1, 4), st.integers(2, 20),
       st.integers(0, 2**32), st.sampled_from([Fraction(0), Fraction(1, 3), Fraction(1, 8),
                                               Fraction(1, 2), Fraction(1), Fraction(5, 4)]))
def test_validate_sft_steps_match_distances(name, depth, length, seed, delta):
    g = load_corpus(name)
    states = random_pseudo_orbit(g, random.Random(seed), depth, length)
    errors = [sft_distance(g, shift_by(x, 1), y) for x, y in zip(states, states[1:])]
    over = [i for i, e in enumerate(errors) if e > delta]
    if over:
        with pytest.raises(StepViolation) as exc:
            validate_pseudo_orbit(g, states, delta)
        assert (exc.value.index, exc.value.error) == (over[0], errors[over[0]])
    else:
        assert validate_pseudo_orbit(g, states, delta).errors == tuple(errors)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32), st.integers(2, 8))
def test_find_shadowing_point_matches_bruteforce(seed, length):
    rng = random.Random(seed)
    sys = random_system(rng, max_points=7)
    crits = critical_deltas(sys)
    delta = rng.choice(crits)
    states = [rng.choice(sys.points)]
    while len(states) < length:
        states.append(rng.choice([v for v in sys.points
                                  if sys.distance(sys.apply(states[-1]), v) <= delta]))
    po = validate_pseudo_orbit(sys, states, delta)
    eps = rng.choice(sorted(set(fraction_table(sys).values())))
    res = find_shadowing_point(sys, po, eps)
    want = shadow_bruteforce(sys, states, eps)
    if want is None:
        assert res == ShadowResult(None, None, ())
    else:
        assert (res.point, res.epsilon, res.tail_profile) == want


@pytest.mark.parametrize("name", sorted(SHIFTS))
def test_sft_shadow_compares_symbols_only_at_ties(name, monkeypatch):
    g = SHIFTS[name]
    states = random_pseudo_orbit(g, random.Random(8), 1, 300)  # depth 1: ties are common
    po = validate_pseudo_orbit(g, states, Fraction(1, 2))
    res = sft_shadow(g, po, 1)
    # the tracking depths, and the steps whose depth ties the next one
    d = [sft.first_difference(res.point, x, i) for i, x in enumerate(states)]
    ties = [i for i, k in enumerate(po.depths) if k is not None and k == d[i + 1]]
    assert ties
    calls = []
    original = shadowing.first_difference
    monkeypatch.setattr(shadowing, "first_difference",
                        lambda x, y, i=0: calls.append(i) or original(x, y, i))
    assert sft_shadow(g, po, 1) == res
    # each call starts the scan of shift^(i+1) z at the tied index
    assert calls == [i + 1 + po.depths[i] for i in reversed(ties)]


# ties of the tracking recurrence in 100 shared-base states, at depths 2 and 3
SHARED_BASE_TIES = {"full2": (18, 13), "full3": (16, 15), "goldenmean": (26, 21),
                    "triangle": (18, 19)}


@pytest.mark.parametrize("name", sorted(SHIFTS))
def test_shared_base_orbits_reach_the_tie_scan_above_depth_one(name, monkeypatch):
    g = SHIFTS[name]
    calls = []
    original = shadowing.first_difference
    monkeypatch.setattr(shadowing, "first_difference",
                        lambda x, y, i=0: calls.append(i) or original(x, y, i))
    for depth in (2, 3):
        states = random_pseudo_orbit(g, random.Random(depth), depth, 100, shared_base=True)
        po = validate_pseudo_orbit(g, states, Fraction(1, 2**depth))
        calls.clear()
        res = sft_shadow(g, po, depth)
        d = [original(res.point, x, i) for i, x in enumerate(states)]
        ties = [i for i, k in enumerate(po.depths) if k is not None and k == d[i + 1]]
        assert len(ties) == SHARED_BASE_TIES[name][depth - 2]
        assert calls == [i + 1 + po.depths[i] for i in reversed(ties)]


@pytest.mark.parametrize("name", sorted(SHIFTS))
def test_sft_shadow_by_hand_measures_the_step_depths(name):
    # no depths and no check: the states are checked and their depths
    # measured once, and the shadow is the same
    g = SHIFTS[name]
    states = random_pseudo_orbit(g, random.Random(9), 1, 80)
    po = validate_pseudo_orbit(g, states, Fraction(1, 2))
    assert sft_shadow(g, PseudoOrbit(po.states, po.errors), 1) == sft_shadow(g, po, 1)
    with pytest.raises(PrecisionViolation) as exc:
        sft_shadow(g, PseudoOrbit(po.states, po.errors), 2)
    first = next(i for i, k in enumerate(po.depths) if k is not None and k < 2)
    assert (exc.value.index, exc.value.error) == (first, po.errors[first])


def test_sft_shadow_checks_states_not_checked_on_its_graph(full2, goldenmean):
    ok = SftPoint((), (0,))
    bad = SftPoint((), (1,))  # 1 -> 1 is forbidden on the golden mean graph
    # built by hand: nothing has checked the states
    with pytest.raises(InvalidPoint):
        sft_shadow(goldenmean, PseudoOrbit((ok, bad), (Fraction(0),)), 1)
    # checked on another graph, where the state is admissible
    po = validate_pseudo_orbit(full2, [bad, bad], 0)
    assert po.checked is full2
    with pytest.raises(InvalidPoint):
        sft_shadow(goldenmean, po, 1)
    assert issubclass(InvalidPoint, ValidationError)  # the CLI exits 2


def test_sft_shadow_skips_states_checked_on_its_graph(full2, monkeypatch):
    states = random_pseudo_orbit(full2, random.Random(6), 3, 30)
    po = validate_pseudo_orbit(full2, states, Fraction(1, 8))
    calls = []
    original = shadowing.validate_point
    monkeypatch.setattr(shadowing, "validate_point",
                        lambda g, p: calls.append(p) or original(g, p))
    res = sft_shadow(full2, po, 3)
    assert calls == [res.point]  # the splice alone


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(["full2", "goldenmean"]), st.integers(1, 4), st.integers(2, 30),
       st.integers(0, 4), st.integers(0, 2**32))
def test_shift_suffix_max_from_depths_matches_fraction_maxima(name, depth, length,
                                                              exact_tail, seed):
    # exact_tail true steps at the end are steps of distance 0 (depth None)
    g = load_corpus(name)
    states = random_pseudo_orbit(g, random.Random(seed), depth, length)
    states += [shift_by(states[-1], i) for i in range(1, exact_tail + 1)]
    po = validate_pseudo_orbit(g, states, Fraction(1, 2**depth))
    assert po.depths is not None
    assert po.max_error == max(po.errors)


def test_shift_limit_check_compares_no_step_error(full2, monkeypatch):
    states = random_pseudo_orbit(full2, random.Random(7), 3, 200)
    po = validate_pseudo_orbit(full2, states, Fraction(1, 8))
    fresh = PseudoOrbit(po.states, po.errors)  # no depths: the Fraction path
    counts = {"compare": 0}
    richcmp = Fraction._richcmp

    def counting_richcmp(a, b, op):
        counts["compare"] += 1
        return richcmp(a, b, op)

    monkeypatch.setattr(Fraction, "_richcmp", counting_richcmp)
    maximum = po.max_error
    assert counts["compare"] == 0  # the maximum is taken on the depths
    monkeypatch.undo()
    assert maximum == fresh.max_error == max(po.errors)


@settings(max_examples=300, deadline=None)
@given(finite_models(), st.data())
def test_finite_shadow_on_ranks_matches_the_fraction_path(sys, data):
    # steps, violations, suffix maxima and shadows decided on int ranks equal
    # those of the Fraction comparisons, at levels and between them
    levels = fraction_levels(sys)
    values = [*levels, *((a + b) / 2 for a, b in zip(levels, levels[1:])), levels[-1] + 1]
    states = data.draw(st.lists(st.sampled_from(sys.points), min_size=2, max_size=12))
    delta, epsilon = data.draw(st.sampled_from(values)), data.draw(st.sampled_from(values))
    try:
        errors, maximum = fraction_pseudo_orbit(sys, states, delta)
    except StepViolation as want:
        with pytest.raises(StepViolation) as exc:
            validate_pseudo_orbit(sys, states, delta)
        assert (exc.value.index, exc.value.error) == (want.index, want.error)
        return
    po = validate_pseudo_orbit(sys, states, delta)
    assert po.errors == errors and po.max_error == maximum
    assert po.max_error == PseudoOrbit(po.states, po.errors).max_error
    res = find_shadowing_point(sys, po, epsilon)
    assert (res.point, res.epsilon, res.tail_profile) == fraction_shadow(sys, states, epsilon)
