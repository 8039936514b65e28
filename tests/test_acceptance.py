"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Every tolerance is pinned here; nothing is deferred.
"""

import hashlib
import math
import random
from fractions import Fraction
from itertools import product

from chainscope import (ClassifyParams, build_chain_digraph, chain_components,
                        chain_recurrent_set, check_condition3, classify_finite_component,
                        classify_sft, complete_lyapunov, construct_witness, critical_deltas,
                        cyclic_classes, family_member, finite_system, inclusion_audit,
                        load_corpus, sft_distance, sft_entropy, slimit_splice, sft_shadow,
                        transient_index, validate_pseudo_orbit, window_family_member)
from chainscope.cyclic import component_period
from chainscope.families import EventuallyPeriodicSet, WindowParams, rotation_time_set
from chainscope.report import AnalysisConfig, cmd_analyze, report_to_json
from chainscope.sft import shift_by, validate_point

from conftest import perturbed_witness_trials, random_pseudo_orbit, random_point, random_system
from oracles import (brute_iapstar, brute_proximal, brute_thick, closure_components, cycle_gcd,
                     digraph_from_edges)

CORPUS_FINITE = ("sys3", "sysns", "sys2id", "rotation4", "tent8")


def _ok(criterion: str, detail: str = "") -> None:
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {criterion}: PASS{suffix}")


def test_c01_chain_component_oracle_equivalence():
    rng = random.Random(101)
    checked = 0
    for _ in range(200):
        sys = random_system(rng, max_points=12)
        for delta in critical_deltas(sys):
            dg = build_chain_digraph(sys, delta)
            expected, recurrent = closure_components(sys.points, dg.succ)
            assert set(chain_components(dg)) == expected
            assert chain_recurrent_set(dg) == recurrent
            checked += 1
    _ok("01 chain-component oracle equivalence",
        f"200 systems, {checked} resolution checks, 0 failures")


def test_c02_graph_period_matches_cycle_gcd():
    rng = random.Random(102)
    graphs = 0
    comps = 0
    while graphs < 200:
        k = rng.randint(2, 10)
        nodes = [f"v{i}" for i in range(k)]
        succ = {}
        for u in nodes:
            out = {v for v in nodes if rng.random() < 2.2 / k}
            out.add(rng.choice(nodes))
            succ[u] = tuple(sorted(out))
        metric = {(u, v): 1 for i, u in enumerate(sorted(nodes))
                  for v in sorted(nodes)[i + 1:]}
        sys = finite_system(nodes, {u: succ[u][0] for u in nodes}, metric)
        dg = digraph_from_edges(sys, Fraction(1, 2),
                                [(u, v) for u in nodes for v in succ[u]])
        if not chain_components(dg):
            continue
        graphs += 1
        for comp in chain_components(dg):
            sub = {u: tuple(v for v in dg.succ[u] if v in comp) for u in comp}
            assert component_period(dg, comp) == cycle_gcd(comp, sub, max_len=len(comp))
            comps += 1
    _ok("02 graph period equals cycle-length gcd",
        f"200 digraphs, {comps} components, 0 failures")


def _bool_power_step(rows, step, k):
    out = [0] * k
    for i in range(k):
        bits = rows[i]
        acc = 0
        while bits:
            j = (bits & -bits).bit_length() - 1
            bits &= bits - 1
            acc |= step[j]
        out[i] = acc
    return out


def _component_suite(sys, dg, comp):
    """Class-shift, length-multiple return loops, and saturation checks."""
    dec = cyclic_classes(dg, comp)
    m = dec.period
    # class shift law for images that stay inside the component
    for u in comp:
        if sys.apply(u) in comp:
            assert dec.class_of[sys.apply(u)] == (dec.class_of[u] + 1) % m
    nodes = sorted(comp)
    idx = {u: i for i, u in enumerate(nodes)}
    k = len(nodes)
    adj = [0] * k
    for u in comp:
        for v in dg.succ[u]:
            if v in comp:
                adj[idx[u]] |= 1 << idx[v]
    step = adj
    for _ in range(m - 1):
        step = _bool_power_step(adj, step, k)
    # return loops: a path of length m*n exists from every node, ending in
    # the node's own class, for n <= 5
    power = step
    for n in range(1, 6):
        for i, u in enumerate(nodes):
            assert power[i] != 0
            bits = power[i]
            while bits:
                j = (bits & -bits).bit_length() - 1
                bits &= bits - 1
                assert dec.class_of[nodes[j]] == dec.class_of[u]
        power = _bool_power_step(power, step, k)
    # saturation at the computed transient index, and its minimality
    n_star = transient_index(dg, comp)
    want = [0] * k
    for i in range(k):
        for j in range(k):
            if dec.class_of[nodes[i]] == dec.class_of[nodes[j]]:
                want[i] |= 1 << j
    power = step
    for _ in range(n_star - 1):
        power = _bool_power_step(power, step, k)
    for extra in range(3):
        assert all((power[i] & want[i]) == want[i] for i in range(k)), \
            f"saturation fails {extra} steps past the index"
        power = _bool_power_step(power, step, k)
    if n_star > 1:
        below = step
        for _ in range(n_star - 2):
            below = _bool_power_step(below, step, k)
        assert any((below[i] & want[i]) != want[i] for i in range(k)), \
            "transient index is not minimal"


def test_c03_cyclic_structure_suite():
    rng = random.Random(103)
    comps = 0
    for name in CORPUS_FINITE:
        sys = load_corpus(name)
        for delta in critical_deltas(sys):
            dg = build_chain_digraph(sys, delta)
            for comp in chain_components(dg):
                _component_suite(sys, dg, comp)
                comps += 1
    for _ in range(200):
        sys = random_system(rng, max_points=10)
        crits = critical_deltas(sys)
        picks = sorted({crits[0], crits[len(crits) // 2], crits[-1]})
        for delta in picks:
            dg = build_chain_digraph(sys, delta)
            for comp in chain_components(dg):
                _component_suite(sys, dg, comp)
                comps += 1
    _ok("03 class-shift / return-loop / saturation suite",
        f"corpus + 200 random systems, {comps} components, 0 failures")


def test_c04_proximal_iff_equal_class():
    rng = random.Random(104)
    pairs = 0
    for _ in range(100):
        sys = random_system(rng, max_points=10)
        for delta in critical_deltas(sys):
            dg = build_chain_digraph(sys, delta)
            for comp in chain_components(dg):
                dec = cyclic_classes(dg, comp)
                for x in comp:
                    for y in comp:
                        assert brute_proximal(sys.points, dg.succ, comp, x, y) == (
                            dec.class_of[x] == dec.class_of[y])
                        pairs += 1
    _ok("04 chain-proximal iff equal cyclic class",
        f"100 systems, {pairs} ordered pairs, 0 failures")


def _lyapunov_check(sys, dg):
    lam = complete_lyapunov(dg)
    rec = chain_recurrent_set(dg)
    comps = chain_components(dg)
    comp_of = {u: i for i, c in enumerate(comps) for u in c}
    nodes = sorted(sys.points)
    idx = {u: i for i, u in enumerate(nodes)}
    k = len(nodes)
    reach = [0] * k
    for u in nodes:
        for v in dg.succ[u]:
            reach[idx[u]] |= 1 << idx[v]
    for mid in range(k):
        for i in range(k):
            if reach[i] >> mid & 1:
                reach[i] |= reach[mid]
    for x in nodes:
        if x not in rec:
            assert lam[sys.apply(x)] < lam[x]
        assert (lam[x].denominator == 1) == (x in rec)
    rec_nodes = sorted(rec)
    for x in rec_nodes:
        for y in rec_nodes:
            if comp_of[x] == comp_of[y]:
                assert lam[x] == lam[y]
            else:
                assert lam[x] != lam[y]
                if reach[idx[x]] >> idx[y] & 1:
                    assert lam[x] > lam[y]


def test_c05_lyapunov_postconditions():
    rng = random.Random(105)
    swept = 0
    for name in CORPUS_FINITE:
        sys = load_corpus(name)
        for delta in critical_deltas(sys):
            _lyapunov_check(sys, build_chain_digraph(sys, delta))
            swept += 1
    for _ in range(500):
        sys = random_system(rng, max_points=9)
        for delta in critical_deltas(sys):
            _lyapunov_check(sys, build_chain_digraph(sys, delta))
            swept += 1
    _ok("05 complete Lyapunov postconditions",
        f"corpus + 500 random systems, {swept} resolutions, 0 failures")


def test_c06_family_deciders_match_brute_force():
    iap_cache: dict = {}
    thick_cache: dict = {}
    sets = 0
    for L in range(0, 7):
        for P in range(1, 9):
            for pre in product((0, 1), repeat=L):
                for pat in product((0, 1), repeat=P):
                    a = EventuallyPeriodicSet(pre, pat)
                    if pat not in iap_cache:
                        iap_cache[pat] = brute_iapstar((), pat)[0]
                        thick_cache[pat] = brute_thick((), pat)
                    assert family_member(a, "IAPSTAR").member == iap_cache[pat]
                    assert family_member(a, "THICK").member == thick_cache[pat]
                    assert inclusion_audit(a).monotone
                    sets += 1
    rng = random.Random(106)
    for _ in range(1000):
        L = rng.randint(0, 20)
        P = rng.randint(1, 24)
        a = EventuallyPeriodicSet(tuple(rng.randrange(2) for _ in range(L)),
                                  tuple(rng.randrange(2) for _ in range(P)))
        assert inclusion_audit(a).monotone
    _ok("06 exact family deciders vs brute force",
        f"{sets} exhaustive sets + 1000 random, 0 failures")


def test_c07_rotation_demo():
    alpha = (math.sqrt(5) - 1) / 2
    w = rotation_time_set(alpha, 10_000)
    assert window_family_member(w, "IAPSTAR", WindowParams(m_max=20)).member
    assert not window_family_member(w, "THICK", WindowParams(run_req=100)).member
    density = sum(w.members) / w.horizon
    assert abs(density - 0.5) <= 0.02
    _ok("07 irrational rotation demo", f"H=10^4, density={density:.4f}")


def test_c08_shadowing_bound():
    rng = random.Random(108)
    orbits = 0
    for name in ("full2", "goldenmean"):
        g = load_corpus(name)
        for depth in (2, 3, 4):
            for _ in range(84):
                states = random_pseudo_orbit(g, rng, depth, 200)
                po = validate_pseudo_orbit(g, states, Fraction(1, 2**depth))
                res = sft_shadow(g, po, depth)
                validate_point(g, res.point)
                assert res.epsilon <= Fraction(1, 2**(depth + 1))
                orbits += 1
    assert orbits >= 500
    _ok("08 shift shadowing bound", f"{orbits} pseudo-orbits, 0 failures")


def test_c09_splice_postconditions():
    rng = random.Random(109)
    done = 0
    for name in ("full2", "goldenmean"):
        g = load_corpus(name)
        for _ in range(100):
            x = random_point(g, rng)
            y = random_point(g, rng)
            n = rng.randint(1, 6)
            eps = Fraction(1, 2**n)
            z = slimit_splice(g, x, y, eps)
            validate_point(g, z)
            assert sft_distance(g, y, z) <= eps
            k = max(len(z.head), len(x.head)) + 1
            assert shift_by(z, k) == shift_by(x, k)
            done += 1
    _ok("09 splice postconditions", f"{done} instances, 0 failures")


def test_c10_theorem_hierarchy_audit():
    full2 = load_corpus("full2")
    rep = classify_sft(full2, 3, ClassifyParams(horizon=2048, with_witness=True))
    by_n = {t.n: t for t in rep.per_n}
    assert by_n[2].distal_witness is not None and by_n[2].distal_delta == Fraction(1, 2)
    assert by_n[3].distal_witness is not None and by_n[3].distal_delta == Fraction(1, 4)
    assert by_n[2].delta_n_value == 1
    assert by_n[2].class_cardinality_ok and by_n[3].class_cardinality_ok
    built = construct_witness(full2, 2, "DC1", 2048)
    for level in ("DC1", "IAPSTAR", "LIYORKE"):
        assert check_condition3(full2, built.points, built.delta_n, level, 2048).ok
    assert rep.level == "DC1"

    gm = load_corpus("goldenmean")
    rep_gm = classify_sft(gm, 2, ClassifyParams(horizon=2048, with_witness=True))
    assert rep_gm.level == "DC1"

    sys2id = load_corpus("sys2id")
    dg = build_chain_digraph(sys2id, Fraction(1, 2))
    for comp in chain_components(dg):
        r = classify_finite_component(cyclic_classes(dg, comp), 3)
        assert r.level == "NONE" and r.all_classes_singleton

    rot = load_corpus("rotation4")
    dgr = build_chain_digraph(rot, 0)
    comp = chain_components(dgr)[0]
    r = classify_finite_component(cyclic_classes(dgr, comp), 3)
    assert r.level == "NONE" and r.all_classes_singleton
    _ok("10 hierarchy audit",
        "full shift DC1 (n=2,3), golden mean DC1, degenerate systems NONE")


def test_c11_perturbed_witness_surrogate():
    g = load_corpus("full2")
    ok, total = perturbed_witness_trials(g, 2, "DC1", 2048, 50, seed=111)
    assert total == 50
    assert ok / total >= 0.95
    _ok("11 perturbed witness surrogate", f"{ok}/{total} trials passed")


def test_c12_entropy_values():
    full2 = load_corpus("full2")
    gm = load_corpus("goldenmean")
    e1 = sft_entropy(full2)
    e2 = sft_entropy(gm)
    assert abs(e1 - math.log(2)) <= 1e-6
    assert abs(e2 - math.log((1 + math.sqrt(5)) / 2)) <= 1e-6
    _ok("12 entropy", f"ln2 err={abs(e1 - math.log(2)):.2e}, "
        f"golden err={abs(e2 - math.log((1 + math.sqrt(5)) / 2)):.2e}")


def test_c13_report_determinism():
    from chainscope.corpus import corpus_names

    digests = []
    for name in corpus_names():
        cfg = AnalysisConfig(spec=f"corpus:{name}")
        first = report_to_json(cmd_analyze(cfg)).encode()
        second = report_to_json(cmd_analyze(cfg)).encode()
        assert hashlib.sha256(first).hexdigest() == hashlib.sha256(second).hexdigest()
        digests.append(hashlib.sha256(first).hexdigest()[:8])
    _ok("13 byte-identical reports", f"corpus digests {','.join(digests)}")
