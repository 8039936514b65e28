import math
import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chainscope import (ClassifyParams, LadderWalk, SftPoint, build_chain_digraph,
                        chain_components, check_condition3, classify_finite_component, classify_sft,
                        critical_deltas,
                        compute_delta_n, construct_witness, cyclic_classes,
                        finite_system, load_corpus, profile_extremes, sft_delta_n,
                        tuple_stats)
from chainscope.chaos import (TierReport, _orbit_min_separation, _sft_distal_search, _Widest,
                              distance_scale, pair_profile)
from chainscope.errors import BudgetExceeded, SpecError
from chainscope.sft import SftGraph, sft_distance, shift_by

from conftest import (RING60_CHORDS, perturbed_witness_trials, random_point, random_system,
                      ring_with_chords)
from oracles import (best_spread, eager_distal_cycle, fraction_profile_extremes,
                     fraction_windows, orbit_min_separation, widest_bruteforce)
from test_graph import irreducible_graphs


def test_pair_profile_matches_direct_shifting(full2, goldenmean):
    rng = random.Random(41)
    for g in (full2, goldenmean):
        for _ in range(30):
            x = random_point(g, rng)
            y = random_point(g, rng)
            scale = distance_scale((x, y))
            prof = pair_profile(x, y, 40, scale)
            for i in range(40):
                assert scale.level(prof[i]) == sft_distance(g, shift_by(x, i), shift_by(y, i))


def test_tuple_stats_full_shift_alternators(full2):
    x = SftPoint((), (0, 1))
    y = SftPoint((), (1, 0))
    stats = tuple_stats(full2, (x, y), [Fraction(1, 2)], [Fraction(1, 2)], 64)
    assert all(stats.s_sets[Fraction(1, 2)].members)
    assert not any(stats.t_sets[Fraction(1, 2)].members)


def test_tuple_stats_identical_coordinates(full2):
    x = SftPoint((), (0, 1))
    stats = tuple_stats(full2, (x, x), [Fraction(1, 4)], [Fraction(1, 8)], 32)
    assert not any(stats.s_sets[Fraction(1, 4)].members)
    assert all(stats.t_sets[Fraction(1, 8)].members)


def test_tuple_windows_refuse_a_finite_system(sys3):
    # a finite component is decided from its orbit floors, not from windows
    for call in (lambda: tuple_stats(sys3, ("a", "b"), [Fraction(1, 2)], [Fraction(1, 2)], 6),
                 lambda: profile_extremes(sys3, ("a", "b"), 6),
                 lambda: check_condition3(sys3, ("a", "b"), Fraction(1, 2), "LIYORKE", 512)):
        with pytest.raises(SpecError, match="vertex shifts only"):
            call()


def test_tuple_stats_nesting(full2):
    rng = random.Random(42)
    pts = tuple(random_point(full2, rng) for _ in range(3))
    rs = [Fraction(1, 8), Fraction(1, 2)]
    es = [Fraction(1, 8), Fraction(1, 2)]
    stats = tuple_stats(full2, pts, rs, es, 64)
    s_small = stats.s_sets[Fraction(1, 8)].members
    s_big = stats.s_sets[Fraction(1, 2)].members
    assert all(b <= a for a, b in zip(s_small, s_big))  # S anti-monotone in r
    t_small = stats.t_sets[Fraction(1, 8)].members
    t_big = stats.t_sets[Fraction(1, 2)].members
    assert all(a <= b for a, b in zip(t_small, t_big))  # T monotone in eps


# thresholds on both sides of every cut: negative, zero, above one, dyadic
# and not dyadic
THRESHOLDS = st.one_of(
    st.sampled_from([Fraction(-1), Fraction(-1, 3), Fraction(0), Fraction(1), Fraction(3, 2),
                     Fraction(2)]),
    st.integers(0, 14).map(lambda k: Fraction(1, 2**k)),
    st.fractions(min_value=-1, max_value=3, max_denominator=600))


@settings(max_examples=250, deadline=None)
@given(st.data())
def test_shift_windows_match_fraction_comparisons(data):
    g = data.draw(st.one_of(st.sampled_from([load_corpus("full2"), load_corpus("goldenmean")]),
                            irreducible_graphs()))
    rng = random.Random(data.draw(st.integers(0, 2**32)))
    head_max = data.draw(st.integers(0, 12))
    pts = [random_point(g, rng, head_max=head_max) for _ in range(data.draw(st.integers(2, 4)))]
    if data.draw(st.booleans()):
        pts[-1] = pts[0]  # a pair at distance 0 at every time
    horizon = data.draw(st.integers(1, 90))
    rs = data.draw(st.lists(THRESHOLDS, min_size=1, max_size=4))
    es = data.draw(st.lists(THRESHOLDS, min_size=1, max_size=4))
    stats = tuple_stats(g, pts, rs, es, horizon)
    s_bits, t_bits = fraction_windows(pts, rs, es, horizon)
    assert {r: w.members for r, w in stats.s_sets.items()} == s_bits
    assert {e: w.members for e, w in stats.t_sets.items()} == t_bits
    assert profile_extremes(g, pts, horizon) == fraction_profile_extremes(pts, horizon)


def test_windowed_test_compares_no_fraction_per_time(full2, monkeypatch):
    # the windows compare int keys with one int cut per threshold; the
    # Fraction comparisons left do not grow with the horizon
    from fractions import Fraction as F

    built = construct_witness(full2, 2, "DC1", 512)
    calls = 0
    original = F._richcmp

    def counting(self, other, op):
        nonlocal calls
        calls += 1
        return original(self, other, op)

    monkeypatch.setattr(F, "_richcmp", counting)
    verdict = check_condition3(full2, built.points, built.delta_n, "DC1", 512)
    assert verdict.ok
    assert calls <= 16


def test_distal_search_respects_class_restriction():
    four_cycle = SftGraph((
        (0, 1, 0, 0),
        (0, 0, 1, 0),
        (0, 0, 0, 1),
        (1, 0, 0, 0),
    ))
    # single point per class: no distal pair in any class
    assert _sft_distal_search(four_cycle, 2, 1, 10**6) is None


def test_distal_search_periodic_graph_with_branching():
    # period-2 irreducible graph with branching: 0,1 even class; 2,3 odd
    g = SftGraph((
        (0, 0, 1, 1),
        (0, 0, 1, 1),
        (1, 1, 0, 0),
        (1, 1, 0, 0),
    ))
    from chainscope.sft import graph_period, shift_by, vertex_classes

    assert graph_period(g) == 2
    w = _sft_distal_search(g, 2, 0, 10**6)
    assert w is not None
    # found in class 0, and one shift rotates it into class 1
    for k, cid in ((0, 0), (1, 1)):
        shifted = [shift_by(p, k) for p in w]
        assert shifted[0] != shifted[1]
        assert [vertex_classes(g)[p.symbol(0)] for p in shifted] == [cid, cid]


def test_compute_delta_n_examples(sys3):
    dg1 = build_chain_digraph(sys3, 1)
    dec1 = cyclic_classes(dg1, chain_components(dg1)[0])
    assert compute_delta_n(dec1, 2) == 1
    dg = build_chain_digraph(sys3, Fraction(1, 2))
    dec = cyclic_classes(dg, chain_components(dg)[0])
    assert compute_delta_n(dec, 2) == 0  # singleton classes: empty-spread 0


def test_compute_delta_n_path_metric():
    sys = finite_system(
        ["p1", "p2", "p3", "p4"],
        {"p1": "p1", "p2": "p2", "p3": "p3", "p4": "p4"},
        {("p1", "p2"): 1, ("p2", "p3"): 2, ("p3", "p4"): 1,
         ("p1", "p3"): 3, ("p2", "p4"): 3, ("p1", "p4"): 4},
    )
    dg = build_chain_digraph(sys, 4)
    comp = chain_components(dg)[0]
    dec = cyclic_classes(dg, comp)
    assert compute_delta_n(dec, 2) == 4  # the maximum pairwise distance


def test_sft_delta_n(full2, goldenmean):
    assert sft_delta_n(full2, 2) == (Fraction(1), True)
    assert sft_delta_n(full2, 3) == (Fraction(1, 2), True)
    assert sft_delta_n(full2, 5) == (Fraction(1, 4), True)
    assert sft_delta_n(goldenmean, 2) == (Fraction(1), True)
    # single cycle: every class holds exactly one point
    four_cycle = SftGraph((
        (0, 1, 0, 0),
        (0, 0, 1, 0),
        (0, 0, 0, 1),
        (1, 0, 0, 0),
    ))
    assert sft_delta_n(four_cycle, 2) == (Fraction(0), False)


def test_check_condition3_negative_cases(full2):
    x = SftPoint((), (0, 1))
    v = check_condition3(full2, (x, x), Fraction(1, 4), "LIYORKE", 512)
    assert not v.ok  # S empty for equal coordinates
    y = SftPoint((), (1, 0))
    v2 = check_condition3(full2, (x, y), Fraction(1, 2), "LIYORKE", 512)
    assert not v2.ok  # distance 1 forever: T(eps) empty below 1
    assert v2.s_verdict.member


def test_construct_witness_dc1(full2):
    built = construct_witness(full2, 2, "DC1", 2048)
    assert built.delta_n == Fraction(1, 2)
    for level in ("DC1", "IAPSTAR", "LIYORKE"):
        assert check_condition3(full2, built.points, built.delta_n, level, 2048).ok
    # prefix density of the separation window reaches 0.99
    stats = tuple_stats(full2, built.points, [Fraction(1, 2)], [Fraction(1, 32)], 2048)
    bits = stats.s_sets[Fraction(1, 2)].members
    best = max(Fraction(sum(bits[:k]), k) for k in range(1024, 2049))
    assert best >= Fraction(99, 100)
    # proximal times appear in the tail
    t_bits = stats.t_sets[Fraction(1, 32)].members
    assert any(t_bits[1024:])


def test_construct_witness_liyorke_counts(full2):
    built = construct_witness(full2, 2, "LIYORKE", 1024)
    stats = tuple_stats(full2, built.points, [built.delta_n], [Fraction(1, 32)], 1024)
    tail_s = stats.s_sets[built.delta_n].members[512:]
    tail_t = stats.t_sets[Fraction(1, 32)].members[512:]
    assert sum(tail_s) >= 10 and sum(tail_t) >= 10


def test_construct_witness_golden_mean_admissible(goldenmean):
    built = construct_witness(goldenmean, 2, "DC1", 1024)
    for p in built.points:
        word = p.expand(1100)
        assert all(not (a == 1 and b == 1) for a, b in zip(word, word[1:]))
    assert check_condition3(goldenmean, built.points, built.delta_n, "DC1", 1024).ok


def test_construct_witness_merges_tails(full2):
    # the points agree from some time within the horizon on
    built = construct_witness(full2, 3, "DC1", 1024)
    p0, p1, p2 = built.points
    assert shift_by(p0, 1024) == shift_by(p1, 1024) == shift_by(p2, 1024)


def test_construct_witness_rejects_n1(full2):
    with pytest.raises(SpecError):
        construct_witness(full2, 1, "DC1", 1024)


def test_witness_construction_on_periodic_graph():
    g = SftGraph((
        (0, 0, 1, 1),
        (0, 0, 1, 1),
        (1, 1, 0, 0),
        (1, 1, 0, 0),
    ))
    from chainscope.sft import vertex_classes

    built = construct_witness(g, 2, "DC1", 1024)
    assert check_condition3(g, built.points, built.delta_n, "DC1", 1024).ok
    assert {vertex_classes(g)[p.symbol(0)] for p in built.points} == {0}
    rep = classify_sft(g, 2, ClassifyParams(horizon=1024, with_witness=True))
    assert rep.level == "DC1"
    assert rep.per_n[0].upgrade_audit_ok


def test_budget_guards(sys3):
    from chainscope import slimit_modulus

    with pytest.raises(BudgetExceeded):
        slimit_modulus(sys3, Fraction(1, 2), budget=2)


def test_witness_passes_own_level_and_weaker(full2, goldenmean):
    ladder = ("DC1", "IAPSTAR", "LIYORKE")
    for g in (full2, goldenmean):
        for start, level in enumerate(ladder):
            built = construct_witness(g, 2, level, 2048)
            for weaker in ladder[start:]:
                assert check_condition3(g, built.points, built.delta_n,
                                        weaker, 2048).ok, (level, weaker)


def test_perturbed_witness_trials(full2):
    ok, total = perturbed_witness_trials(full2, 2, "DC1", 1024, 10, seed=99)
    assert total == 10 and ok >= 9


def test_classify_sft_full_shift(full2):
    rep = classify_sft(full2, 3, ClassifyParams(horizon=2048, with_witness=True))
    assert rep.level == "DC1"
    assert not rep.all_classes_singleton
    assert abs(rep.entropy - math.log(2)) < 1e-6
    by_n = {t.n: t for t in rep.per_n}
    assert by_n[2].tier == "DC1" and by_n[2].distal_delta == Fraction(1, 2)
    assert by_n[3].tier == "DC1" and by_n[3].distal_delta == Fraction(1, 4)
    assert by_n[2].delta_n_value == 1
    assert by_n[2].class_cardinality_ok and by_n[3].class_cardinality_ok
    assert by_n[2].condition3_agrees and by_n[3].condition3_agrees
    assert by_n[2].upgrade_audit_ok


def test_classify_sft_golden_mean(goldenmean):
    rep = classify_sft(goldenmean, 2, ClassifyParams(horizon=2048, with_witness=True))
    assert rep.level == "DC1"
    assert abs(rep.entropy - math.log((1 + math.sqrt(5)) / 2)) < 1e-6


def test_classify_sft_single_cycle_is_none():
    four_cycle = SftGraph((
        (0, 1, 0, 0),
        (0, 0, 1, 0),
        (0, 0, 0, 1),
        (1, 0, 0, 0),
    ))
    rep = classify_sft(four_cycle, 3, ClassifyParams(with_witness=False))
    assert rep.level == "NONE"
    assert rep.all_classes_singleton
    assert rep.entropy == 0.0


def test_classify_finite_components(sys2id, rotation4):
    dg = build_chain_digraph(sys2id, Fraction(1, 2))
    for comp in chain_components(dg):
        dec = cyclic_classes(dg, comp)
        rep = classify_finite_component(dec, 3)
        assert rep.level == "NONE" and rep.all_classes_singleton
    dgr = build_chain_digraph(rotation4, 0)
    comp = chain_components(dgr)[0]
    rep = classify_finite_component(cyclic_classes(dgr, comp), 3)
    assert rep.level == "NONE" and rep.all_classes_singleton


def test_classify_finite_dc1_like_component(sys3):
    # at delta=1 the whole system is one period-1 component with spread 1
    dg = build_chain_digraph(sys3, 1)
    dec = cyclic_classes(dg, chain_components(dg)[0])
    rep = classify_finite_component(dec, 2)
    tr = rep.per_n[0]
    assert tr.tier == "DC1"
    assert tr.delta_n_value == 1
    assert tr.distal_witness is not None
    assert orbit_min_separation(dec.system, tr.distal_witness) > 0


def test_hierarchy_monotonicity_in_reports(full2, goldenmean, sys3):
    reps = [classify_sft(full2, 3, ClassifyParams(with_witness=False)),
            classify_sft(goldenmean, 3, ClassifyParams(with_witness=False))]
    dg = build_chain_digraph(sys3, 1)
    reps.append(classify_finite_component(
        cyclic_classes(dg, chain_components(dg)[0]), 3))
    for rep in reps:
        for tr in rep.per_n:
            if tr.distal_witness is not None:
                assert tr.delta_n_value > 0
                assert tr.delta_n_value >= tr.distal_delta
            if tr.delta_n_value > 0:
                assert tr.class_cardinality_ok


def test_witness_recovered_from_recurring_blocks(full2, goldenmean):
    # extract the distal times' symbol blocks from a constructed witness and
    # reassemble a genuinely distal tuple from blocks that recur
    for g, n in ((full2, 2), (full2, 3), (goldenmean, 2), (goldenmean, 3)):
        built = construct_witness(g, n, "DC1", 1024)
        t = 0
        while Fraction(1, 2 ** (t + 1)) > built.delta_n:
            t += 1
        width = t + 1
        stats = tuple_stats(g, built.points, [built.delta_n], [Fraction(1, 2)], 1024)
        s_bits = stats.s_sets[built.delta_n].members
        blocks = {}
        for i in range(1024 - width):
            if s_bits[i]:
                key = tuple(tuple(p.expand(i + width)[i:]) for p in built.points)
                blocks[key] = blocks.get(key, 0) + 1
        recurring = [k for k, c in blocks.items() if c >= 2]
        assert recurring, "distal windows must recur"
        # the recurring windows pairwise differ, so the separation floor of
        # the original distal tuple is reproducible from observed data
        key = max(recurring, key=blocks.get)
        assert all(a != b for i, a in enumerate(key) for b in key[i + 1:])
        # and an exact search confirms a genuine distal tuple at that floor
        assert _sft_distal_search(g, n, t, 10**6) is not None


def test_classify_sft_searches_once_per_n_and_t(monkeypatch):
    from chainscope import chaos

    g = SftGraph((
        (0, 0, 1, 1),
        (0, 0, 1, 1),
        (1, 1, 0, 0),
        (1, 1, 0, 0),
    ))
    calls = []
    original = chaos._sft_distal_search

    def counting(g, n, t, budget=10**6):
        calls.append((n, t))
        return original(g, n, t, budget=budget)

    monkeypatch.setattr(chaos, "_sft_distal_search", counting)
    rep = classify_sft(g, 3, ClassifyParams(with_witness=False))
    # a witness at separation 2^-t is reported with distal_delta 2^-(t+1)
    tried = [(tr.n, t) for tr in rep.per_n
             for t in range(tr.distal_delta.denominator.bit_length() - 1)]
    assert all(tr.tier == "DC1" and tr.upgrade_audit_ok for tr in rep.per_n)
    assert calls == tried


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32))
def test_integer_enumeration_matches_fraction_oracles(seed):
    rng = random.Random(seed)
    sys = random_system(rng, max_points=9)
    pts = sorted(sys.points)
    for n in range(2, min(4, len(pts)) + 1):
        for combo in combinations(pts, n):
            assert _orbit_min_separation(sys, combo) == orbit_min_separation(sys, combo)
    crit = critical_deltas(sys)
    for delta in (crit[0], rng.choice(crit), crit[-1]):
        dg = build_chain_digraph(sys, delta)
        for comp in chain_components(dg):
            dec = cyclic_classes(dg, comp)
            classes = dec.classes()
            rep = classify_finite_component(dec, 3)
            for tr in rep.per_n:
                n = tr.n
                spreads = [best_spread(sys, c, n) if len(c) >= n else 0 for c in classes]
                assert compute_delta_n(dec, n) == tr.delta_n_value == min(spreads)
                # the witness: the first class with a positive orbit floor,
                # and its first n-subset of largest floor
                floors = [max((orbit_min_separation(sys, c) for c in combinations(cls, n)),
                              default=0) for cls in classes]
                first = next((i for i, f in enumerate(floors) if f > 0), None)
                if first is None:
                    assert tr.distal_witness is None and tr.distal_delta is None
                    continue
                cls = classes[first]
                assert tr.distal_witness == next(
                    c for c in combinations(cls, n)
                    if orbit_min_separation(sys, c) == floors[first])
                assert tr.distal_delta == floors[first] / 2
                assert tr.upgrade_audit_ok == all(f > 0 for f in floors)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_widest_matches_subset_enumeration(data):
    # few distinct values make ties common, so the tie-break is exercised;
    # one pass over the class answers every n, asked in any order
    k, top = data.draw(st.integers(0, 11)), data.draw(st.integers(0, 5))
    names = [f"p{i}" for i in range(k)]
    index = {u: i for i, u in enumerate(names)}
    rows = [[0] * k for _ in range(k)]
    for i in range(k):
        for j in range(i + 1, k):
            rows[i][j] = rows[j][i] = data.draw(st.integers(0, top))
    table = {u: tuple(rows[i]) for i, u in enumerate(names)}
    members = data.draw(st.permutations(names))
    widest = _Widest(table, index, members)
    for n in data.draw(st.permutations(range(2, 6))):
        found = widest(n)
        assert found == widest_bruteforce(table, index, members, n)
        if k < n:
            assert found == (0, None)


def test_finite_classification_enumerates_no_subsets(monkeypatch):
    # the only spread left is the witness separation, one per n
    from chainscope import chaos, compile_finite

    sys = compile_finite(_line_system(24))
    dg = build_chain_digraph(sys, 1)
    (comp,) = chain_components(dg)
    dec = cyclic_classes(dg, comp)
    assert len(dec.classes()) == 1
    calls = []
    spread = chaos._spread

    def counting(table, index, combo):
        calls.append(combo)
        return spread(table, index, combo)

    monkeypatch.setattr(chaos, "_spread", counting)
    rep = classify_finite_component(dec, 3)
    assert len(calls) <= len(rep.per_n) == 2


def test_a_budget_short_of_n3_runs_no_n3_clique_search(monkeypatch):
    # C(24, 2) subsets fit the budget and C(24, 3) do not: n = 3 is marked
    # budget_exceeded, and its clique search never runs
    from chainscope import chaos, compile_finite

    sys = compile_finite(_line_system(24))
    dg = build_chain_digraph(sys, 1)
    dec = cyclic_classes(dg, chain_components(dg)[0])
    (cls,) = dec.classes()
    calls = []
    first_clique = chaos._first_clique
    monkeypatch.setattr(chaos, "_first_clique",
                        lambda nb, cand, r: calls.append(r) or first_clique(nb, cand, r))
    rep = classify_finite_component(dec, 3, ClassifyParams(budget=math.comb(len(cls), 2)))
    searched = len(calls)
    calls.clear()
    assert classify_finite_component(dec, 2).per_n == rep.per_n[:1]
    assert len(calls) == searched
    assert rep.per_n[1] == TierReport(3, "LIYORKE", None, None, None, Fraction(0), True,
                                      budget_exceeded=True)


def test_enumeration_budget_counts_every_subset():
    # one class of four points: six pairs fit a budget of 6, not one of 3,
    # and the error names the subset past the budget, as a count one by one
    # would
    pts = ["a", "b", "c", "d"]
    sys = finite_system(pts, {"a": "b", "b": "c", "c": "d", "d": "a"},
                        {(u, v): 1 for i, u in enumerate(pts) for v in pts[i + 1:]})
    dg = build_chain_digraph(sys, 1)
    dec = cyclic_classes(dg, chain_components(dg)[0])
    assert compute_delta_n(dec, 2, budget=6) == 1
    with pytest.raises(BudgetExceeded) as exc:
        compute_delta_n(dec, 2, budget=3)
    assert exc.value.spent == 4
    rep = classify_finite_component(dec, 2, ClassifyParams(budget=5))
    assert rep.per_n[0].budget_exceeded


def _count_searches(monkeypatch):
    from chainscope import chaos

    calls = []
    original = chaos._sft_distal_search

    def counting(g, n, t, budget=10**6):
        calls.append((n, t))
        return original(g, n, t, budget=budget)

    monkeypatch.setattr(chaos, "_sft_distal_search", counting)
    return calls


def test_witness_construction_reuses_the_classification_search(full2, monkeypatch):
    calls = _count_searches(monkeypatch)
    rep = classify_sft(full2, 3, ClassifyParams(horizon=1024, with_witness=True))
    tried = [(tr.n, t) for tr in rep.per_n
             for t in range(tr.distal_delta.denominator.bit_length() - 1)]
    assert all(tr.tier == "DC1" and tr.condition3_agrees for tr in rep.per_n)
    assert calls == tried


def test_perturbed_trials_search_once(full2, monkeypatch):
    calls = _count_searches(monkeypatch)
    ok, total = perturbed_witness_trials(full2, 3, "DC1", 1024, 4, seed=5)
    assert total == 4 and ok >= 3
    # a distal triple of the full 2-shift needs windows of length 2
    assert calls == [(3, 0), (3, 1)]


def test_check_condition3_rejects_an_empty_dyadic_ladder(full2):
    x = SftPoint((), (0,))
    y = SftPoint((), (1,))
    with pytest.raises(SpecError, match="eps_depth"):
        check_condition3(full2, (x, y), Fraction(1, 2), "DC1", 512, eps_depth=0)


@pytest.mark.parametrize("kwargs", [{"horizon": 63}, {"horizon": -5}, {"eps_depth": 0},
                                    {"eps_depth": -1}])
def test_classify_params_reject_unusable_windows(kwargs):
    with pytest.raises(SpecError):
        ClassifyParams(**kwargs)


def _line_system(n):
    rng = random.Random(n)
    xs = rng.sample(range(1, 997), n)
    names = [f"q{i:02d}" for i in range(n)]
    return {"points": names,
            "map": {names[i]: names[(i * i + 3) % n] for i in range(n)},
            "metric": [[names[i], names[j], f"{abs(xs[i] - xs[j])}/997"]
                       for i in range(n) for j in range(i + 1, n)]}


def test_finite_path_does_no_fraction_arithmetic(monkeypatch):
    from chainscope import compile_finite

    desc = _line_system(30)
    counts = {"add": 0, "compare": 0}
    add, richcmp = Fraction.__add__, Fraction._richcmp

    def counting_add(a, b):
        counts["add"] += 1
        return add(a, b)

    def counting_richcmp(a, b, op):
        counts["compare"] += 1
        return richcmp(a, b, op)

    monkeypatch.setattr(Fraction, "__add__", counting_add)
    monkeypatch.setattr(Fraction, "_richcmp", counting_richcmp)
    sys = compile_finite(desc)
    assert counts["add"] == 0
    dg = build_chain_digraph(sys, 1)
    (comp,) = chain_components(dg)
    dec = cyclic_classes(dg, comp)
    sys.orbit_floor  # the rank sort before it compares Fractions, once per system
    counts["compare"] = 0
    rep = classify_finite_component(dec, 3)
    assert counts["compare"] == 0
    assert [tr.tier for tr in rep.per_n] == ["DC1", "DC1"]


@settings(max_examples=100, deadline=None)
@given(irreducible_graphs(), st.sampled_from([2, 3]), st.sampled_from([0, 1]))
def test_lazy_distal_search_matches_eager_oracle(g, n, t):
    from chainscope import chaos
    from chainscope.sft import vertex_classes

    cycle = eager_distal_cycle(g.adjacency, vertex_classes(g), n, t)
    expected = None if cycle is None else chaos._points_from_cycle(g, cycle, n, t)
    assert chaos._sft_distal_search(g, n, t, 10**6) == expected


def test_lazy_distal_search_touches_few_product_states(monkeypatch):
    from chainscope import chaos
    from chainscope.sft import graph_period

    g = SftGraph(ring_with_chords(60, RING60_CHORDS))
    assert graph_period(g) == 2
    touched = []
    original = chaos._valid_state

    def counting(state, n, classes):
        touched.append(state)
        return original(state, n, classes)

    monkeypatch.setattr(chaos, "_valid_state", counting)
    for n, t in ((3, 0), (3, 1)):
        touched.clear()
        assert chaos._sft_distal_search(g, n, t, 10**6) is not None
        states = len(chaos._admissible_words(g, t + 1)) ** n
        # each state is tested once, and only the few the DFS reaches
        assert len(touched) == len(set(touched))
        assert len(touched) * 100 < states


def test_a_classification_of_singleton_classes_builds_no_orbit_floors():
    # at delta 0 the components are the periodic cycles and every cyclic
    # class is one point, so no distal search reads the floor table
    for seed in range(30):
        sys = random_system(random.Random(seed), max_points=12)
        decomps = LadderWalk(sys, [Fraction(0)]).decompositions(0)
        got = [classify_finite_component(dec, 3) for dec in decomps]
        assert all(r.all_classes_singleton for r in got)
        assert "orbit_floor" not in sys.__dict__
        # and the classification is the one made with the table built first
        sys.orbit_floor
        assert [classify_finite_component(dec, 3) for dec in decomps] == got
    # a class of two points reads it
    sys = load_corpus("sysns")
    top = LadderWalk(sys, [max(critical_deltas(sys))])
    reports = [classify_finite_component(dec, 2) for dec in top.decompositions(0)]
    assert not all(r.all_classes_singleton for r in reports)
    assert "orbit_floor" in sys.__dict__
