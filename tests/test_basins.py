import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chainscope import (LadderWalk, assign_basins, build_chain_digraph, chain_components,
                        critical_deltas, cyclic_classes, finite_system, verify_partition_laws)
from chainscope.errors import OmegaNotInComponent

from conftest import random_system
from oracles import brute_proximal, closure_components, digraph_from_edges, omega


def basins(sys, dg):
    return assign_basins(sys, [cyclic_classes(dg, comp) for comp in chain_components(dg)])


def test_omega_limit_examples(sysns, sys3, sys2id):
    # the basin table's omega column, and the oracle the check below reads
    for sys, x, want in ((sysns, "t", {"s"}), (sys3, "a", {"a", "b", "c"}),
                         (sys2id, "p", {"p"})):
        dg = build_chain_digraph(sys, critical_deltas(sys)[0])
        assert basins(sys, dg).omega[x] == omega(sys, x) == want


def test_assign_basins_sysns(sysns):
    dg = build_chain_digraph(sysns, Fraction(1, 2))
    ba = basins(sysns, dg)
    comp_of_name = {x: sorted(ba.components[ba.component_of[x]]) for x in sysns.points}
    assert comp_of_name == {"n": ["n"], "s": ["s"], "t": ["s"]}
    basin_of_s = {x for x in sysns.points
                  if ba.components[ba.component_of[x]] == frozenset({"s"})}
    assert basin_of_s == {"s", "t"}


def test_assign_basins_sys3_phases(sys3):
    dg = build_chain_digraph(sys3, Fraction(1, 2))
    ba = basins(sys3, dg)
    dec = ba.decompositions[0]
    # classes are singletons rooted at a; phases reproduce the class labels
    assert ba.class_of_basin["a"] == (0, dec.class_of["a"])
    assert ba.class_of_basin["b"] == (0, dec.class_of["b"])
    assert ba.class_of_basin["c"] == (0, dec.class_of["c"])
    dg1 = build_chain_digraph(sys3, 1)
    ba1 = basins(sys3, dg1)
    assert {ba1.class_of_basin[x] for x in sys3.points} == {(0, 0)}


def test_phase_law_explicit_orbit(sys3):
    dg = build_chain_digraph(sys3, Fraction(1, 2))
    ba = basins(sys3, dg)
    dec = ba.decompositions[0]
    j = ba.class_of_basin["a"][1]
    u = "a"
    for i in range(12):
        assert dec.class_of[u] == (j + i) % 3
        u = sys3.apply(u)


def test_partition_laws_corpus(sys3, sysns, sys2id, rotation4):
    for sys in (sys3, sysns, sys2id, rotation4):
        for delta in critical_deltas(sys):
            ba = basins(sys, build_chain_digraph(sys, delta))
            report = verify_partition_laws(ba)
            assert report.ok, report.violations


def test_partition_laws_random_sweep():
    rng = random.Random(21)
    for _ in range(60):
        sys = random_system(rng, max_points=10)
        for delta in critical_deltas(sys):
            ba = basins(sys, build_chain_digraph(sys, delta))
            report = verify_partition_laws(ba)
            assert report.ok, report.violations


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_partition_laws_hold_on_the_basins_of_a_random_rung(seed):
    # the audit reports wrote up to v3 never fires on what assign_basins
    # builds from a walk's decompositions, which is why v4 dropped it
    rng = random.Random(seed)
    sys = random_system(rng, max_points=16)
    walk = LadderWalk(sys, critical_deltas(sys))
    ba = assign_basins(sys, walk.decompositions(rng.randrange(len(walk.deltas))))
    report = verify_partition_laws(ba)
    assert report.ok, report.violations


def test_recurrent_nodes_keep_their_class_when_component_invariant():
    rng = random.Random(22)
    for _ in range(40):
        sys = random_system(rng, max_points=9)
        for delta in critical_deltas(sys):
            dg = build_chain_digraph(sys, delta)
            ba = basins(sys, dg)
            for comp_idx, comp in enumerate(ba.components):
                if not all(sys.apply(u) in comp for u in comp):
                    continue  # fixed-resolution artifact: component not map-invariant
                dec = ba.decompositions[comp_idx]
                for u in comp:
                    assert ba.component_of[u] == comp_idx
                    assert ba.class_of_basin[u] == (comp_idx, dec.class_of[u])


def test_settle_time_independence_of_phase():
    # the phase value (class(orbit[T]) - T) mod m must not depend on which
    # in-component time is used
    rng = random.Random(23)
    for _ in range(30):
        sys = random_system(rng, max_points=8)
        dg = build_chain_digraph(sys, critical_deltas(sys)[0])
        ba = basins(sys, dg)
        for x in sys.points:
            ci, phase = ba.class_of_basin[x]
            comp = ba.components[ci]
            dec = ba.decompositions[ci]
            u = x
            for t in range(ba.settle_time[x] + 8):
                if t >= ba.settle_time[x]:
                    assert (dec.class_of[u] - t) % dec.period == phase
                u = sys.apply(u)


def test_omega_outside_every_component_is_refused(sys3):
    # an injected digraph whose only cycles are the loops at a, b and c:
    # the orbit cycle a -> b -> c -> a lies in none of its components
    dg = digraph_from_edges(sys3, Fraction(1, 2), [("a", "a"), ("b", "b"), ("c", "c")])
    assert chain_components(dg) == (frozenset("a"), frozenset("b"), frozenset("c"))
    with pytest.raises(OmegaNotInComponent, match="omega set of 'a'"):
        basins(sys3, dg)


def test_map_invariance_can_fail_at_fixed_resolution():
    # recurrent x whose image is transient: {x, a} is a component but
    # f(x) = y falls out of it; the orbit-based basin of a is {z}'s basin
    sys = finite_system(
        ["x", "y", "z", "a"],
        {"x": "y", "y": "z", "z": "z", "a": "x"},
        {("x", "y"): 2, ("x", "z"): 2, ("x", "a"): 2,
         ("y", "z"): 2, ("y", "a"): 1, ("z", "a"): 2},
    )
    dg = build_chain_digraph(sys, 1)
    comps = set(chain_components(dg))
    assert frozenset({"x", "a"}) in comps and frozenset({"z"}) in comps
    assert sys.apply("x") == "y"
    assert all("y" not in comp for comp in comps)
    ba = basins(sys, dg)
    # a is recurrent in {x, a} but its true orbit falls into {z}
    assert ba.components[ba.component_of["a"]] == frozenset({"z"})
    assert verify_partition_laws(ba).ok


def _iterate(sys, x, steps):
    for _ in range(steps):
        x = sys.apply(x)
    return x


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_basins_match_the_closure_and_proximal_oracles(seed):
    rng = random.Random(seed)
    sys = random_system(rng, max_points=8)
    points = sorted(sys.points)
    for delta in critical_deltas(sys):
        dg = build_chain_digraph(sys, delta)
        ba = basins(sys, dg)
        closure, _ = closure_components(sys.points, dg.succ)
        for x in points:
            # the component basin: the closure component holding omega(x)
            (home,) = [c for c in closure if omega(sys, x) <= c]
            assert ba.components[ba.component_of[x]] == home
        for i, x in enumerate(points):
            for y in points[i:]:
                # past both settle times the two orbits lie in their components,
                # where sharing a class basin is chain proximality
                T = max(ba.settle_time[x], ba.settle_time[y])
                comp = ba.components[ba.component_of[x]]
                shared = (ba.component_of[x] == ba.component_of[y]
                          and brute_proximal(sys.points, dg.succ, comp,
                                             _iterate(sys, x, T), _iterate(sys, y, T)))
                assert (ba.class_of_basin[x] == ba.class_of_basin[y]) == shared
