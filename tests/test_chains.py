import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chainscope import (LadderWalk, build_chain_digraph, chain_components, chain_recurrent_set,
                        chains, complete_lyapunov, critical_deltas, cyclic_classes,
                        finite_system, graph)
from chainscope.report import AnalysisConfig, cmd_analyze

from conftest import line_system, random_system, save_system
from oracles import (closure_components, digraph_from_edges, fraction_lyapunov,
                     fraction_table, ladder_digraphs, reaches)
from test_cyclic import _sweep_deltas, _sweep_system


def edges_of(dg):
    return {(u, v) for u in dg.succ for v in dg.succ[u]}


def test_sys3_digraph_at_half(sys3):
    dg = build_chain_digraph(sys3, Fraction(1, 2))
    assert edges_of(dg) == {("a", "b"), ("b", "c"), ("c", "a")}


def test_sys3_digraph_at_one_is_complete(sys3):
    dg = build_chain_digraph(sys3, 1)
    assert edges_of(dg) == {(u, v) for u in "abc" for v in "abc"}


def test_sys2id_digraph(sys2id):
    dg = build_chain_digraph(sys2id, Fraction(1, 2))
    assert edges_of(dg) == {("p", "p"), ("q", "q")}


def test_map_edge_always_present(sysns):
    for delta in critical_deltas(sysns):
        dg = build_chain_digraph(sysns, delta)
        for u in sysns.points:
            assert sysns.apply(u) in dg.succ[u]


def tie_heavy_systems(rng):
    """Metrics with many equal distances: the discrete metric, and the L1
    metric of a 3 x 4 integer grid; random maps."""
    pts = [f"d{i}" for i in range(7)]
    yield finite_system(pts, {u: rng.choice(pts) for u in pts},
                        {(u, v): 1 for i, u in enumerate(pts) for v in pts[i + 1:]})
    cells = [(x, y) for x in range(3) for y in range(4)]
    names = [f"g{x}{y}" for x, y in cells]
    metric = {(names[i], names[j]): abs(a[0] - b[0]) + abs(a[1] - b[1])
              for i, a in enumerate(cells) for j, b in enumerate(cells) if i < j}
    yield finite_system(names, {u: rng.choice(names) for u in names}, metric)


def probe_deltas(sys):
    """Every critical value, the midpoints between consecutive ones, a value
    above the maximum, and the pairwise distances that are no step value."""
    crit = critical_deltas(sys)
    mids = [(a + b) / 2 for a, b in zip(crit, crit[1:])]
    off_ladder = sorted(set(fraction_table(sys).values()) - set(crit))
    return crit + mids + [crit[-1] + 1] + off_ladder


def test_rank_kernel_matches_rational_predicate():
    rng = random.Random(11)
    systems = []
    for _ in range(10):
        sys = random_system(rng, max_points=9, min_points=5)
        # a map onto two points leaves most distances off the ladder
        narrow = {u: rng.choice(sys.points[:2]) for u in sys.points}
        systems += [sys, finite_system(sys.points, narrow, fraction_table(sys))]
    for _ in range(3):
        systems.extend(tie_heavy_systems(rng))
    for sys in systems:
        d = fraction_table(sys)
        names = sorted(sys.points)
        steps = {d[(sys.apply(u), v)] for u in names for v in names}
        assert critical_deltas(sys) == sorted(steps)
        # one cycle through every point: singleton classes, so every pair
        # within delta breaks the merge law
        ring = list(zip(names, names[1:] + names[:1]))
        for delta in probe_deltas(sys):
            dg = build_chain_digraph(sys, delta)
            for u in sys.points:
                want = tuple(v for v in names if d[(sys.apply(u), v)] <= delta)
                assert dg.succ[u] == want, (u, delta)
            graphs = [(dg, comp) for comp in chain_components(dg)]
            graphs.append((digraph_from_edges(sys, delta, ring), frozenset(names)))
            for graph, comp in graphs:
                dec = cyclic_classes(graph, comp)
                nodes = sorted(comp)
                merge_pairs = tuple((u, v) for i, u in enumerate(nodes) for v in nodes[i + 1:]
                                    if d[(u, v)] <= delta
                                    and dec.class_of[u] != dec.class_of[v])
                assert dec.p2_violations == merge_pairs, (comp, delta)


def test_edge_monotone_in_delta():
    rng = random.Random(1)
    for _ in range(20):
        sys = random_system(rng, max_points=7)
        crits = critical_deltas(sys)
        prev = set()
        for delta in crits:
            cur = edges_of(build_chain_digraph(sys, delta))
            assert prev <= cur
            prev = cur


def test_recurrent_sets(sys3, sysns):
    dg = build_chain_digraph(sys3, Fraction(1, 2))
    assert chain_recurrent_set(dg) == {"a", "b", "c"}
    dgn = build_chain_digraph(sysns, Fraction(1, 2))
    assert chain_recurrent_set(dgn) == {"n", "s"}


def test_no_cycle_means_empty_recurrent_set(sys3):
    dg = digraph_from_edges(sys3, Fraction(1, 2), [("a", "b"), ("b", "c")])
    assert chain_recurrent_set(dg) == frozenset()
    assert chain_components(dg) == ()


def test_components(sys3, sys2id, sysns):
    assert chain_components(build_chain_digraph(sys3, Fraction(1, 2))) == (
        frozenset({"a", "b", "c"}),)
    assert chain_components(build_chain_digraph(sys2id, Fraction(1, 2))) == (
        frozenset({"p"}), frozenset({"q"}))
    assert chain_components(build_chain_digraph(sysns, Fraction(1, 2))) == (
        frozenset({"n"}), frozenset({"s"}))


def test_reaches(sys3, sysns, sys2id):
    dg = build_chain_digraph(sys3, Fraction(1, 2))
    assert reaches(dg, "a", "c")
    dgn = build_chain_digraph(sysns, Fraction(1, 2))
    assert not reaches(dgn, "t", "n")
    assert reaches(dgn, "t", "s")
    dgi = build_chain_digraph(sys2id, Fraction(1, 2))
    assert reaches(dgi, "p", "p")


def test_reaches_self_iff_recurrent():
    rng = random.Random(2)
    for _ in range(30):
        sys = random_system(rng, max_points=8)
        for delta in critical_deltas(sys):
            dg = build_chain_digraph(sys, delta)
            rec = chain_recurrent_set(dg)
            for u in sys.points:
                assert reaches(dg, u, u) == (u in rec)


def test_critical_deltas(sys3, sys2id):
    assert critical_deltas(sys3) == [0, 1]
    assert critical_deltas(sys2id) == [0, 1]
    rng = random.Random(3)
    for _ in range(10):
        sys = random_system(rng, max_points=6)
        crits = critical_deltas(sys)
        assert crits[0] == 0
        assert crits == sorted(set(crits))


def lyapunov_postconditions(sys, dg):
    lam = complete_lyapunov(dg)
    rec = chain_recurrent_set(dg)
    comps = chain_components(dg)
    comp_of = {}
    for i, comp in enumerate(comps):
        for u in comp:
            comp_of[u] = i
    for x in sys.points:
        if x not in rec:
            assert lam[sys.apply(x)] < lam[x], f"(i) fails at {x}"
        assert (lam[x].denominator == 1) == (x in rec), "integer/non-integer split"
    for x in rec:
        for y in rec:
            same = comp_of[x] == comp_of[y]
            assert (lam[x] == lam[y]) == same, "(ii) fails"
    for x in rec:
        for y in rec:
            if comp_of[x] != comp_of[y] and reaches(dg, x, y):
                assert lam[x] > lam[y], "(iii) fails"


def test_lyapunov_sysns(sysns):
    dg = build_chain_digraph(sysns, Fraction(1, 2))
    lam = complete_lyapunov(dg)
    lyapunov_postconditions(sysns, dg)
    assert lam == {"n": Fraction(0), "s": Fraction(1), "t": Fraction(3, 2)}


def test_lyapunov_constant_on_single_component(sys3):
    dg = build_chain_digraph(sys3, Fraction(1, 2))
    assert set(complete_lyapunov(dg).values()) == {Fraction(0)}


def test_lyapunov_decreases_along_path_into_sink():
    sys = finite_system(
        ["u", "v", "w"],
        {"u": "v", "v": "w", "w": "w"},
        {("u", "v"): 1, ("u", "w"): 1, ("v", "w"): 1},
    )
    dg = build_chain_digraph(sys, Fraction(1, 2))
    assert edges_of(dg) == {("u", "v"), ("v", "w"), ("w", "w")}
    lam = complete_lyapunov(dg)
    assert lam["u"] > lam["v"] > lam["w"]
    lyapunov_postconditions(sys, dg)


def test_lyapunov_random_sweep():
    rng = random.Random(4)
    for _ in range(40):
        sys = random_system(rng, max_points=8)
        for delta in critical_deltas(sys):
            lyapunov_postconditions(sys, build_chain_digraph(sys, delta))


def test_components_match_closure_oracle():
    rng = random.Random(5)
    for _ in range(40):
        sys = random_system(rng, max_points=9)
        for delta in critical_deltas(sys):
            dg = build_chain_digraph(sys, delta)
            expected, rec = closure_components(sys.points, dg.succ)
            assert set(chain_components(dg)) == expected
            assert chain_recurrent_set(dg) == rec


def test_component_monotonicity_along_ladder():
    rng = random.Random(6)
    for _ in range(25):
        sys = random_system(rng, max_points=8)
        crits = critical_deltas(sys)
        for d1, d2 in zip(crits, crits[1:]):
            fine = chain_components(build_chain_digraph(sys, d1))
            coarse = chain_components(build_chain_digraph(sys, d2))
            for comp in fine:
                assert any(comp <= big for big in coarse)


def test_negative_delta_rejected(sys3):
    from chainscope.errors import SpecError

    with pytest.raises(SpecError):
        build_chain_digraph(sys3, Fraction(-1, 2))


def _digraph_fields(dg):
    return (dg.delta, dg.cut, dict(dg.succ), dg.sccs, dict(dg.scc_of), dg.cond_succ)


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       kind=st.sampled_from(["random", "line", "two_level", "two_cycle", "grid"]))
def test_ladder_walk_matches_each_build(seed, kind):
    rng = random.Random(seed)
    sys = _sweep_system(kind, rng)
    deltas = _sweep_deltas(sys)
    crit = critical_deltas(sys)
    top_k = crit[-rng.randint(1, len(crit)):]
    # deltas[0] is the first critical value, so this ladder starts above it
    above = deltas[rng.randrange(1, len(deltas)):]
    for ladder in (deltas, top_k, above):
        # every step is compared after the walk ends, so a step that changes
        # once a later one is built fails too
        walk = list(ladder_digraphs(sys, ladder))
        assert len(walk) == len(ladder)
        for dg, d in zip(walk, ladder):
            assert _digraph_fields(dg) == _digraph_fields(build_chain_digraph(sys, d))


def test_ladder_walk_runs_tarjan_only_where_the_sccs_change(tmp_path, monkeypatch):
    sys = line_system(24, 24)
    save_system(sys, tmp_path / "line.json")
    ladder = critical_deltas(sys)
    partitions = [build_chain_digraph(sys, d).sccs for d in ladder]
    changes = sum(a != b for a, b in zip(partitions, partitions[1:]))
    calls = []

    def counting(succ):
        calls.append(None)
        return graph.strongly_connected_components(succ)

    monkeypatch.setattr(chains, "strongly_connected_components", counting)
    doc = cmd_analyze(AnalysisConfig(spec=str(tmp_path / "line.json")))
    # one Tarjan per digraph built, and one is built per chain analysis
    # written: where the chain components change, which they do wherever the
    # SCC partition does and also where a point becomes recurrent alone
    assert len(calls) == len(doc["chain_analyses"])
    assert 1 + changes <= len(calls) < len(ladder)


def test_ladder_walk_refuses_a_descending_or_negative_resolution(sys3):
    from chainscope.errors import InvariantViolation, SpecError

    with pytest.raises(InvariantViolation):
        LadderWalk(sys3, [Fraction(1), Fraction(1, 2)])
    with pytest.raises(InvariantViolation):
        LadderWalk(sys3, [Fraction(1, 2), Fraction(1, 2)])
    with pytest.raises(SpecError):
        LadderWalk(sys3, [Fraction(-1, 2), Fraction(1)])


def test_ladder_walk_refuses_descending_resolutions_with_one_cut(sys3):
    from chainscope.errors import InvariantViolation

    # sys3's levels are 0 and 1: each pair shares its cut, so only the
    # resolutions themselves tell the order
    for deltas in ([Fraction(2, 3), Fraction(1, 3)], [Fraction(3), Fraction(2)],
                   [Fraction(0), Fraction(1, 2), Fraction(1, 4), Fraction(1)]):
        with pytest.raises(InvariantViolation):
            LadderWalk(sys3, deltas)
    assert LadderWalk(sys3, [Fraction(1, 3), Fraction(2, 3), Fraction(1)]).cuts == [0, 0, 1]


def test_ladder_walk_builds_the_condensation_only_where_a_section_reads_it(tmp_path,
                                                                           monkeypatch):
    from chainscope import cyclic, report

    sys = line_system(24, 24)
    save_system(sys, tmp_path / "line.json")
    ladder = critical_deltas(sys)
    steps, written = [], []
    build, section = cyclic.build_chain_digraph, report.chain_section

    def recording_build(*args):
        steps.append(build(*args))
        return steps[-1]

    def recording_section(dg):
        written.append(dg)
        return section(dg)

    monkeypatch.setattr(cyclic, "build_chain_digraph", recording_build)
    monkeypatch.setattr(report, "chain_section", recording_section)
    # the classification resolution on the ladder, then between two rungs
    for delta in (None, str((ladder[5] + ladder[6]) / 2)):
        steps.clear()
        written.clear()
        cmd_analyze(AnalysisConfig(spec=str(tmp_path / "line.json"), delta=delta))
        assert 0 < len(written) < len(ladder)
        # every digraph built is written: the components do not change
        # between two critical values, so the off-ladder rung is not built
        assert len(steps) == len(written)
        for dg in steps:
            assert ("cond_succ" in dg.__dict__) == any(dg is w for w in written)


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       kind=st.sampled_from(["random", "line", "two_level", "two_cycle", "grid"]))
def test_lyapunov_values_match_the_fraction_path(seed, kind):
    sys = _sweep_system(kind, random.Random(seed))
    for dg in ladder_digraphs(sys, _sweep_deltas(sys)):
        lam = complete_lyapunov(dg)
        expected = fraction_lyapunov(dg)
        assert lam == expected
        assert {u: str(v) for u, v in lam.items()} == {u: str(v) for u, v in expected.items()}
