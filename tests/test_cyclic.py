import math
import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chainscope import (LadderWalk, assign_basins, build_chain_digraph, chain_components,
                        component_period, critical_deltas, cyclic_classes, finite_system,
                        proximal_partition, transient_index)
from chainscope.errors import EmptyLadder, InvariantViolation, NotAComponent, SpecError

from conftest import line_system, random_digraph, random_system
import oracles
from oracles import (CyclicSweep, brute_proximal, cycle_gcd, digraph_from_edges,
                     ladder_digraphs, path_length_sets, proximal_loop)


def test_period_sys3(sys3):
    dg_half = build_chain_digraph(sys3, Fraction(1, 2))
    comp = chain_components(dg_half)[0]
    assert component_period(dg_half, comp) == 3
    dg_one = build_chain_digraph(sys3, 1)
    assert component_period(dg_one, chain_components(dg_one)[0]) == 1


def test_period_two_and_three_cycles_sharing_a_node(sys3):
    edges = [("a", "b"), ("b", "a"), ("a", "c"), ("c", "d"), ("d", "a")]
    sys = finite_system(
        ["a", "b", "c", "d"],
        {"a": "b", "b": "a", "c": "d", "d": "a"},
        {(u, v): 1 for u in "abcd" for v in "abcd" if u < v},
    )
    dg = digraph_from_edges(sys, Fraction(1, 2), edges)
    comp = chain_components(dg)[0]
    assert comp == frozenset("abcd")
    assert component_period(dg, comp) == 1
    assert cycle_gcd(sys.points, dg.succ) == math.gcd(2, 3)


def test_not_a_component_rejected(sys3):
    dg = build_chain_digraph(sys3, Fraction(1, 2))
    with pytest.raises(NotAComponent):
        component_period(dg, {"a", "b"})


def test_cyclic_classes_sys3(sys3):
    dg = build_chain_digraph(sys3, Fraction(1, 2))
    comp = chain_components(dg)[0]
    dec = cyclic_classes(dg, comp)
    assert dec.period == 3
    assert dec.classes() == (("a",), ("b",), ("c",))
    for u in comp:
        assert dec.class_of[sys3.apply(u)] == (dec.class_of[u] + 1) % 3
    dg1 = build_chain_digraph(sys3, 1)
    dec1 = cyclic_classes(dg1, chain_components(dg1)[0])
    assert dec1.period == 1
    assert dec1.classes() == (("a", "b", "c"),)


def test_cyclic_classes_singleton(sys2id):
    dg = build_chain_digraph(sys2id, Fraction(1, 2))
    dec = cyclic_classes(dg, frozenset({"p"}))
    assert dec.period == 1 and dec.classes() == (("p",),)


def test_class_merge_violation_on_injected_digraph(sys3):
    # injected period-2 digraph a<->b<->c: b and c sit at opposite classes
    # while the metric keeps them within delta
    sys = finite_system(
        ["a", "b", "c"],
        {"a": "b", "b": "a", "c": "b"},
        {("a", "b"): 2, ("a", "c"): 2, ("b", "c"): 1},
    )
    edges = [("a", "b"), ("b", "a"), ("b", "c"), ("c", "b")]
    dg = digraph_from_edges(sys, 1, edges)
    comp = chain_components(dg)[0]
    assert comp == frozenset("abc")
    assert component_period(dg, comp) == 2
    dec = cyclic_classes(dg, comp)
    assert dec.p2_violations == (("b", "c"),)


def test_class_merge_can_fail_even_for_metric_built_digraphs():
    # six-point system whose delta-digraph has one period-2 component with
    # u, v at distance exactly delta but opposite classes
    delta = Fraction(1)
    big = Fraction(2)
    pts = ["a", "a2", "b", "b2", "u", "v"]
    close = {("a2", "u"), ("b2", "v"), ("u", "v"), ("a2", "b")}
    metric = {}
    for i, x in enumerate(pts):
        for y in pts[i + 1:]:
            metric[(x, y)] = delta if ((x, y) in close or (y, x) in close) else big
    sys = finite_system(
        pts,
        {"u": "a", "a": "a2", "a2": "a", "v": "b", "b": "b2", "b2": "b"},
        metric,
    )
    dg = build_chain_digraph(sys, delta)
    comps = chain_components(dg)
    assert len(comps) == 1 and comps[0] == frozenset(pts)
    assert component_period(dg, comps[0]) == 2
    dec = cyclic_classes(dg, comps[0])
    assert ("u", "v") in dec.p2_violations


def test_transient_index_examples(sys3):
    dg = build_chain_digraph(sys3, Fraction(1, 2))
    comp = chain_components(dg)[0]
    assert transient_index(dg, comp) == 1
    dg1 = build_chain_digraph(sys3, 1)
    assert transient_index(dg1, chain_components(dg1)[0]) == 1


def test_transient_index_matches_brute_force_lengths():
    # one SCC with cycles of lengths 2 and 3 sharing node a: period 1,
    # saturation at the point where every pair realizes every length
    sys = finite_system(
        ["a", "b", "c", "d"],
        {"a": "b", "b": "a", "c": "d", "d": "a"},
        {(u, v): 1 for u in "abcd" for v in "abcd" if u < v},
    )
    edges = [("a", "b"), ("b", "a"), ("a", "c"), ("c", "d"), ("d", "a")]
    dg = digraph_from_edges(sys, Fraction(1, 2), edges)
    comp = chain_components(dg)[0]
    cap = (len(comp) - 1) ** 2 + 2
    n_star = transient_index(dg, comp)
    lengths = path_length_sets(sys.points, dg.succ, comp, cap)
    brute = next(
        n for n in range(1, cap + 1)
        if all(all(m in lengths[u][v] for m in range(n, cap + 1))
               for u in comp for v in comp))
    assert n_star == brute
    # minimality: some pair misses length n_star - 1
    if n_star > 1:
        assert any(n_star - 1 not in lengths[u][v] for u in comp for v in comp)


def _brute_transient_index(sys, succ, comp):
    """Smallest n such that every pair joined by a path of length divisible
    by the cycle gcd m is joined by one of each length m*j, n <= j <= cap,
    read off the path length sets alone."""
    m = cycle_gcd(comp, {u: tuple(v for v in succ[u] if v in comp) for u in comp},
                  max_len=len(comp))
    cap = (len(comp) - 1) ** 2 + 2
    lengths = path_length_sets(sys.points, succ, comp, m * cap)
    pairs = [ls for row in lengths.values() for ls in row.values()
             if any(length % m == 0 for length in ls)]
    return next(n for n in range(1, cap + 1)
                if all(m * j in ls for ls in pairs for j in range(n, cap + 1)))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_transient_index_matches_brute_force_on_non_injective_maps(seed):
    # fewer images than points, so some preimages share their successor
    # tuple and so their row in every boolean power: the case that the
    # product memo of the transient index search folds into one row
    rng = random.Random(seed)
    k = rng.randint(3, 8)
    pts = [f"n{i}" for i in range(k)]
    xs = rng.sample(range(40), k)
    images = rng.sample(pts, rng.randint(1, k - 1))
    sys = finite_system(pts, {u: rng.choice(images) for u in pts},
                        {(pts[i], pts[j]): abs(xs[i] - xs[j])
                         for i in range(k) for j in range(i + 1, k)})
    crit = critical_deltas(sys)
    walked = LadderWalk(sys, crit)
    for j, delta in enumerate(crit):
        dg = build_chain_digraph(sys, delta)
        for comp, dec in zip(chain_components(dg), walked.decompositions(j), strict=True):
            brute = _brute_transient_index(sys, dg.succ, comp)
            assert transient_index(dg, comp) == dec.transient_index == brute


@pytest.mark.parametrize("k", range(2, 9))
def test_wielandt_digraph_saturates_at_the_bound_below_the_cap(k):
    # the k-cycle 0 -> 1 -> ... -> k-1 -> 0 with the chord k-1 -> 1 is
    # Wielandt's primitive digraph of largest exponent, (k-1)^2 + 1, the
    # last power the transient index search tries
    pts = [f"w{i}" for i in range(k)]
    sys = finite_system(pts, {u: u for u in pts},
                        {(u, v): 1 for i, u in enumerate(pts) for v in pts[i + 1:]})
    edges = [(pts[i], pts[(i + 1) % k]) for i in range(k)] + [(pts[-1], pts[1])]
    dg = digraph_from_edges(sys, Fraction(1, 2), edges)
    (comp,) = chain_components(dg)
    assert transient_index(dg, comp) == (k - 1) ** 2 + 1
    dec = cyclic_classes(dg, comp)
    assert dec.transient_index == (k - 1) ** 2 + 1


def test_saturation_persists_to_cap_on_corpus(sys3, sysns, rotation4):
    # every same-class pair realizes every multiple-length up to the default
    # cap once the transient index is reached
    for sys in (sys3, sysns, rotation4):
        for delta in critical_deltas(sys):
            dg = build_chain_digraph(sys, delta)
            for comp in chain_components(dg):
                dec = cyclic_classes(dg, comp)
                n_star = dec.transient_index
                assert n_star is not None
                cap = (len(comp) - 1) ** 2 + 2
                lengths = path_length_sets(sys.points, dg.succ, comp,
                                           dec.period * cap)
                for u in comp:
                    for v in comp:
                        if dec.class_of[u] != dec.class_of[v]:
                            continue
                        for n in range(n_star, cap + 1):
                            assert dec.period * n in lengths[u][v]


def test_proximal_agrees_with_class_and_brute_force():
    rng = random.Random(7)
    for _ in range(25):
        sys = random_system(rng, max_points=8)
        for delta in critical_deltas(sys):
            dg = build_chain_digraph(sys, delta)
            for comp in chain_components(dg):
                dec = cyclic_classes(dg, comp)
                for x in sorted(comp):
                    for y in sorted(comp):
                        assert brute_proximal(sys.points, dg.succ, comp, x, y) == (
                            dec.class_of[x] == dec.class_of[y])


def test_period_matches_cycle_gcd_on_random_digraphs(sys3):
    rng = random.Random(8)
    for _ in range(40):
        nodes, succ = random_digraph(rng, max_nodes=9)
        metric = {(u, v): 1 for i, u in enumerate(sorted(nodes)) for v in sorted(nodes)[i + 1:]}
        mapping = {u: succ[u][0] for u in nodes}
        sys = finite_system(nodes, mapping, metric)
        dg = digraph_from_edges(sys, Fraction(1, 2), [(u, v) for u in nodes for v in succ[u]])
        for comp in chain_components(dg):
            sub_succ = {u: tuple(v for v in dg.succ[u] if v in comp) for u in comp}
            expected = cycle_gcd(comp, sub_succ, max_len=len(comp))
            assert component_period(dg, comp) == expected


def test_class_shift_law_random_sweep():
    rng = random.Random(9)
    for _ in range(30):
        sys = random_system(rng, max_points=8)
        for delta in critical_deltas(sys):
            dg = build_chain_digraph(sys, delta)
            for comp in chain_components(dg):
                dec = cyclic_classes(dg, comp)
                for u in comp:
                    if sys.apply(u) in comp:
                        assert dec.class_of[sys.apply(u)] == (
                            dec.class_of[u] + 1) % dec.period


def test_proximal_partition_sys3(sys3):
    dg = build_chain_digraph(sys3, Fraction(1, 2))
    comp = chain_components(dg)[0]
    pp = proximal_partition(sys3, comp, [Fraction(1), Fraction(1, 2)])
    assert pp.classes == (("a",), ("b",), ("c",))
    assert pp.split_at is None
    assert [d.period for d in pp.per_delta] == [1, 3]


def test_proximal_partition_singleton(sys2id):
    pp = proximal_partition(sys2id, {"p"}, [Fraction(1, 2)])
    assert pp.classes == (("p",),)


def test_proximal_partition_rotation(rotation4):
    # with the closed step threshold, delta=1/4 still admits neighbor-cell
    # jumps (centers are exactly 1/4 apart); the pure 4-cycle digraph lives
    # strictly below the first positive critical value
    dg = build_chain_digraph(rotation4, Fraction(1, 2))
    comp = chain_components(dg)[0]
    coarse = proximal_partition(rotation4, comp, [Fraction(1, 2), Fraction(1, 4)])
    assert coarse.classes == (("c0", "c1", "c2", "c3"),)
    pp = proximal_partition(rotation4, comp, [Fraction(1, 2), Fraction(0)])
    assert len(pp.classes) == 4
    assert all(len(c) == 1 for c in pp.classes)
    assert pp.per_delta[1].period == 4


def test_proximal_partition_split_marker(sysns):
    # {n} and {s} split immediately below delta=1; the component {n,s,t}
    # only exists at delta=1
    dg1 = build_chain_digraph(sysns, 1)
    comp = chain_components(dg1)[0]
    assert comp == frozenset({"n", "s", "t"})
    pp = proximal_partition(sysns, comp, [Fraction(1), Fraction(1, 2)])
    assert pp.split_at == Fraction(1, 2)
    assert pp.ladder == (Fraction(1),)


def test_proximal_partition_refuses_a_negative_resolution_up_front(sysns):
    # the component {n, s, t} splits below delta 1, so a loop down the
    # ladder stopped before -1; the walk up the ladder starts there
    with pytest.raises(SpecError, match="nonnegative"):
        proximal_partition(sysns, {"n", "s", "t"}, [Fraction(1), Fraction(1, 2), Fraction(-1)])
    with pytest.raises(SpecError, match="nonnegative"):
        proximal_partition(sysns, {"n", "s", "t"}, [Fraction(1), Fraction(-1), Fraction(-2)])


def test_proximal_partition_refinement_monotone():
    rng = random.Random(10)
    for _ in range(15):
        sys = random_system(rng, max_points=7)
        crits = critical_deltas(sys)
        ladder = sorted(crits, reverse=True)
        dg = build_chain_digraph(sys, ladder[0])
        for comp in chain_components(dg):
            full = proximal_partition(sys, comp, ladder)
            for cut in range(1, len(full.ladder) + 1):
                pref = proximal_partition(sys, comp, ladder[:cut])
                # the longer-prefix partition refines the shorter one
                for cls in full.classes:
                    assert any(set(cls) <= set(big) for big in pref.classes)


def test_proximal_partition_validation(sys3):
    with pytest.raises(EmptyLadder):
        proximal_partition(sys3, {"a", "b", "c"}, [])
    with pytest.raises(EmptyLadder):
        proximal_partition(sys3, {"a", "b", "c"}, [Fraction(1, 2), Fraction(1)])
    with pytest.raises(NotAComponent):
        proximal_partition(sys3, {"a", "b"}, [Fraction(1, 2)])


def _sweep_system(kind, rng):
    """Random systems for the sweep tests; all but the first two have many
    ties, and "two_cycle" often breaks the class merge law."""
    if kind == "random":
        return random_system(rng, max_points=8, min_points=3)
    if kind == "line":
        return line_system(rng.randint(5, 10), rng.randrange(10**6), cycles=(2, 3))
    if kind == "two_level":
        pts = [f"t{i}" for i in range(rng.randint(3, 8))]
        metric = {(u, v): rng.choice((1, 2)) for i, u in enumerate(pts) for v in pts[i + 1:]}
        return finite_system(pts, {u: rng.choice(pts) for u in pts}, metric)
    if kind == "two_cycle":
        # integer points on a line; the two ends swap and every other point
        # maps to an end, so classes of close inner points can differ
        n = rng.randint(4, 8)
        xs = sorted(rng.sample(range(40), n))
        pts = [f"e{i}" for i in range(n)]
        mapping = {u: rng.choice((pts[0], pts[-1])) for u in pts[1:-1]}
        mapping.update({pts[0]: pts[-1], pts[-1]: pts[0]})
        metric = {(pts[i], pts[j]): xs[j] - xs[i] for i in range(n) for j in range(i + 1, n)}
        return finite_system(pts, mapping, metric)
    cells = [(x, y) for x in range(3) for y in range(rng.randint(1, 3))]
    names = [f"g{x}{y}" for x, y in cells]
    metric = {(names[i], names[j]): abs(a[0] - b[0]) + abs(a[1] - b[1])
              for i, a in enumerate(cells) for j, b in enumerate(cells) if i < j}
    return finite_system(names, {u: rng.choice(names) for u in names}, metric)


def _sweep_deltas(sys):
    """Critical values, the midpoints between them and one value above."""
    crit = critical_deltas(sys)
    return sorted(set(crit) | {(a + b) / 2 for a, b in zip(crit, crit[1:])} | {crit[-1] + 1})


def _fields(dec):
    return (dec.component, dec.delta, dec.period, dict(dec.class_of), dec.classes(),
            dec.transient_index, dec.p2_violations)


def _check_sweep(sys, starts):
    """Compare the ladder walk and the per-step sweep oracle over the system
    with the per-step decompositions, and their proximal partitions from the
    resolutions in ``starts`` with the per-step loop; returns the number of
    merge-law violations seen.  A second sweep, fed the oracle walk's
    digraphs, must equal the first, whose digraphs are built separately."""
    deltas = _sweep_deltas(sys)
    with mock.patch.object(oracles, "_labels", wraps=oracles._labels) as labels:
        sweep = CyclicSweep(build_chain_digraph(sys, d) for d in deltas)
    walked = CyclicSweep(ladder_digraphs(sys, deltas))
    walk = LadderWalk(sys, deltas)
    seen = 0
    segments = 0
    before: dict = {}
    for j, d in enumerate(deltas):
        dg = build_chain_digraph(sys, d)
        comps = chain_components(dg)
        assert tuple(sweep.components(d)) == comps
        decs = sweep.decompositions(d)
        assert tuple(walked.components(d)) == comps
        assert [_fields(w) for w in walked.decompositions(d)] == [_fields(x) for x in decs]
        assert walk.components(j) == comps
        assert [_fields(w) for w in walk.decompositions(j)] == [_fields(x) for x in decs]
        here = {}
        for comp, dec in zip(comps, decs, strict=True):
            ref = cyclic_classes(dg, comp)
            assert _fields(dec) == _fields(ref)
            seen += len(dec.p2_violations)
            # a segment starts where the vertex set or the period is new
            segments += before.get(comp) != ref.period
            here[comp] = ref.period
            if starts(deltas, d):
                down = [x for x in reversed(deltas) if x <= d]
                pp = sweep.proximal(comp, down)
                assert (pp.ladder, pp.classes, pp.split_at) == proximal_loop(sys, comp, down)
                assert proximal_partition(sys, comp, down) == pp
                assert walk.proximal(comp, range(j, -1, -1)) == pp
        shared = assign_basins(sys, decs)
        own = [cyclic_classes(dg, c) for c in chain_components(dg)]
        assert shared.class_of_basin == assign_basins(sys, own).class_of_basin
        before = here
    # one BFS labelling per segment, in the sweep and in the walk
    assert labels.call_count == segments
    assert sum(len(walk._track(comp)) for comp in walk._spans) == segments
    return seen


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       kind=st.sampled_from(["random", "line", "two_level", "two_cycle", "grid"]))
def test_sweep_matches_per_step_decomposition(seed, kind):
    rng = random.Random(seed)
    sys = _sweep_system(kind, rng)
    pick = rng.randrange(10**6)
    _check_sweep(sys, lambda deltas, d: d in (deltas[0], deltas[len(deltas) // 2],
                                              deltas[pick % len(deltas)]))


def test_sweep_records_merge_violations_like_each_step():
    # positions 0, 1, 2, 3 with a <-> b at the ends, c -> b and e -> a: at
    # delta 1, c and e lie in different classes of {a, b, c, e} though 1 apart
    sys = finite_system(["a", "c", "e", "b"], {"a": "b", "b": "a", "c": "b", "e": "a"},
                        {("a", "c"): 1, ("a", "e"): 2, ("a", "b"): 3, ("c", "e"): 1,
                         ("c", "b"): 2, ("e", "b"): 1})
    crit = critical_deltas(sys)
    (dec,) = LadderWalk(sys, crit).decompositions(crit.index(Fraction(1)))
    assert dec.period == 2 and dec.p2_violations == (("c", "e"),)
    rng = random.Random(13)
    seen = sum(_check_sweep(_sweep_system("two_cycle", rng), lambda deltas, d: True)
               for _ in range(60))
    assert seen > 0


def test_sweep_rejects_misuse(sys3):
    # a walk takes strictly ascending resolutions, and reads a proximal
    # partition only from a rung where the set is a component
    with pytest.raises(InvariantViolation):
        LadderWalk(sys3, [Fraction(1), Fraction(1, 2)])
    with pytest.raises(InvariantViolation):
        LadderWalk(sys3, [Fraction(1, 2), Fraction(1, 2)])
    with pytest.raises(EmptyLadder):
        LadderWalk(sys3, [])
    walk = LadderWalk(sys3, [Fraction(1, 2), Fraction(1)])
    assert walk.decomposition(0, frozenset("ab")) is None
    with pytest.raises(NotAComponent):
        walk.proximal({"a", "b"}, [1, 0])


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_proximal_partition_matches_the_proximal_oracle(seed):
    # two points share a class iff they are chain proximal at every
    # resolution the partition refines over
    rng = random.Random(seed)
    sys = random_system(rng, max_points=8)
    crit = critical_deltas(sys)
    for top in {crit[0], crit[len(crit) // 2], crit[-1], rng.choice(crit)}:
        down = [d for d in reversed(crit) if d <= top]
        for comp in chain_components(build_chain_digraph(sys, top)):
            pp = proximal_partition(sys, comp, down)
            class_of = {u: i for i, cls in enumerate(pp.classes) for u in cls}
            succs = [build_chain_digraph(sys, d).succ for d in pp.ladder]
            nodes = sorted(comp)
            for i, x in enumerate(nodes):
                for y in nodes[i:]:
                    assert (class_of[x] == class_of[y]) == all(
                        brute_proximal(sys.points, succ, comp, x, y) for succ in succs)
