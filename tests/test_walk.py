"""The ladder walk against the per-step path it replaced (``oracles.step_analyze``,
``oracles.ladder_digraphs`` and ``oracles.CyclicSweep``): the same change rungs,
components, cyclic rows, proximal answers and basins, with digraphs built only
where a report writes them."""

import hashlib
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chainscope import LadderWalk, chain_components, critical_deltas, cyclic
from chainscope.report import AnalysisConfig, cmd_analyze, cyclic_section, report_to_json

from conftest import rand_system, random_system, save_system
from oracles import CyclicSweep, ladder_digraphs, report_v3, step_analyze, step_cyclic_rows
from test_cyclic import _sweep_deltas, _sweep_system
from test_report import _config

SECTIONS = ("chain_analyses", "cyclic", "basins", "proximal", "chaos")


def _check_walk(sys, deltas):
    """The walk's change rungs, components and decompositions at every rung
    equal the per-step sweep's."""
    steps = list(ladder_digraphs(sys, deltas))
    comps = [chain_components(dg) for dg in steps]
    walk = LadderWalk(sys, deltas)
    assert walk.changes == [0] + [j for j in range(1, len(comps))
                                  if set(comps[j]) != set(comps[j - 1])]
    sweep = CyclicSweep(steps)
    for j, d in enumerate(walk.deltas):
        assert walk.components(j) == comps[j] == tuple(sweep.components(d))
        assert walk.decompositions(j) == sweep.decompositions(d)


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       kind=st.sampled_from(["random", "line", "two_level", "two_cycle", "grid"]),
       policy=st.sampled_from(["all-critical", "top-k", "explicit"]))
def test_walk_matches_the_per_step_oracle(seed, kind, policy, tmp_path_factory):
    # the classification resolution on the ladder, between two rungs or
    # above them all (``_config``); every section that reads the walk is
    # compared with the per-step path's
    rng = random.Random(seed)
    sys = random_system(rng, max_points=9) if kind == "random" else _sweep_system(kind, rng)
    path = tmp_path_factory.mktemp("walk") / "sys.json"
    save_system(sys, path)
    config = _config(sys, policy, rng, str(path))
    doc = report_v3(config)
    want, steps, _ = step_analyze(config)
    for key in SECTIONS:
        assert doc[key] == want[key], key
    deltas = [dg.delta for dg in steps]
    _check_walk(sys, deltas)
    # and every walk of a ladder suffix or of a sparse pick of rungs
    _check_walk(sys, deltas[rng.randrange(len(deltas)):])
    _check_walk(sys, sorted(rng.sample(deltas, rng.randint(1, len(deltas)))))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       kind=st.sampled_from(["random", "line", "two_level", "two_cycle", "grid"]))
def test_walk_proximal_and_rows_match_the_oracle_on_every_rung(seed, kind):
    rng = random.Random(seed)
    sys = _sweep_system(kind, rng)
    deltas = _sweep_deltas(sys)
    walk = LadderWalk(sys, deltas)
    sweep = CyclicSweep(ladder_digraphs(sys, deltas))
    for j, d in enumerate(deltas):
        down = deltas[j::-1]
        for comp in walk.components(j):
            assert walk.proximal(comp, range(j, -1, -1)) == sweep.proximal(comp, down)
    # the rows of every rung, of every other rung, and of the rungs at the
    # critical values alone
    crit = set(critical_deltas(sys))
    for rungs in (list(range(len(deltas))), list(range(0, len(deltas), 2)),
                  [j for j, d in enumerate(deltas) if d in crit]):
        assert cyclic_section(walk, rungs) == step_cyclic_rows(
            sweep, [deltas[j] for j in rungs])


@pytest.mark.parametrize("where", ["on", "between", "below"])
def test_analyze_builds_a_digraph_per_written_analysis(where, tmp_path, monkeypatch):
    # rand64: 1,741 rungs, 24 chain analyses written on the all-critical
    # ladder; the walk builds one digraph per analysis written, and one more
    # for a classification resolution off the ladder only where the
    # components change there: never between two critical values, always
    # at the first rung of a walk that starts below a top-k ladder.  It
    # probes the transient index no more often than the per-step sweep: 97
    # times at the parent of the walk, on the all-critical ladder
    monkeypatch.chdir(tmp_path)
    sys = rand_system(64)
    save_system(sys, "rand64.json")
    crit = critical_deltas(sys)
    config = {"on": AnalysisConfig(spec="rand64.json"),
              "between": AnalysisConfig(spec="rand64.json", delta=str((crit[10] + crit[11]) / 2)),
              "below": AnalysisConfig(spec="rand64.json", ladder_policy="top-k",
                                      delta=str(crit[-20]))}[where]
    builds, probes = [], []
    build, probe = cyclic.build_chain_digraph, cyclic._transient_index
    monkeypatch.setattr(cyclic, "build_chain_digraph",
                        lambda *args: builds.append(args) or build(*args))
    monkeypatch.setattr(cyclic, "_transient_index",
                        lambda *args: probes.append(args) or probe(*args))
    doc = cmd_analyze(config)
    assert len(doc["chain_analyses"]) == (24 if where != "below" else 1)
    assert len(builds) == len(doc["chain_analyses"]) + (where == "below")
    assert len(probes) <= 97
    walked = len(probes)
    probes.clear()
    step_analyze(config)
    assert walked <= len(probes)


# sha256 of the analyze reports of rand16-rand128 in their v3 form
# (``oracles.report_v3``), recorded before the walk replaced the per-step
# path: the explicit ladder is the midpoints of consecutive critical values,
# classified at a critical value off it
RAND_DIGESTS = {
    (16, "all-critical"):
        "68c2ab8446bf799d5c21128905dc7fe22f1b59fc81145e5b93349f98a6a974bc",
    (16, "top-k"):
        "fe83e7138f08637e48a42ef6c7e2130592bf3952111e71c5ad954b807fcd9af4",
    (16, "explicit"):
        "765f1808c5f29248d8317a734651e216cfbae45ca0fcfd54876fdea239d36e39",
    (32, "all-critical"):
        "0e2345f48c9d86dac50726bc16fb631787c3b6c71bf179a97050ca7268032197",
    (32, "top-k"):
        "77b0c56cd7708a10e593f0f7cdc441e52f5abe228fb635e3470fa99fed6e7bfd",
    (32, "explicit"):
        "5b4e3df69a8c249fbc34933026bfad5971789ce617c5700f3fa2fead2bbc43c3",
    (64, "all-critical"):
        "8e90cd99ad740b3374e7cb640a8388610fa837355f3da774cf0a6c8b629508c9",
    (64, "top-k"):
        "af3eda205efa5f8ebd9cb4d4d8e492571391936ac73e28056cdb8d095436ecb4",
    (64, "explicit"):
        "58b7ca842b7504378f03fdf46ec8ccf13d21c93d02bd6f9b8733b3eb8b116316",
    (128, "all-critical"):
        "88de35bd6028ee4f84a6b88d56032da8a7f8e5c7034e7cebe594404327ab2ff6",
    (128, "top-k"):
        "58aa0957058a571004263c3cd6f48aa8687b7810bd4192d32a787a768e8cad64",
    (128, "explicit"):
        "92d43bac5769dc1c6bd0494448ad3decbe97f7cdab0672d4fc857bd2b25172dd",
}


def _rand_config(k, policy):
    """The config of the rand``k`` lock under ``policy``, its spec saved in
    the working directory."""
    sys = rand_system(k)
    save_system(sys, f"rand{k}.json")
    crit = critical_deltas(sys)
    extra = {"all-critical": {},
             "top-k": {"top_k": len(crit) // 2},
             "explicit": {"ladder": tuple(str((a + b) / 2) for a, b in zip(crit, crit[1:])),
                          "delta": str(crit[len(crit) // 3])}}
    return AnalysisConfig(spec=f"rand{k}.json", ladder_policy=policy, **extra[policy])


@pytest.mark.parametrize("k, policy", sorted(RAND_DIGESTS))
def test_rand_report_bytes_match_recorded_digest(k, policy, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    config = _rand_config(k, policy)
    digest = hashlib.sha256(report_to_json(report_v3(config)).encode()).hexdigest()
    assert digest == RAND_DIGESTS[k, policy]


# the v4 reports of the same configs
RAND_V4_DIGESTS = {
    (16, "all-critical"):
        "6e48492d10be2ade741d51ca3fa76926fa8fb415036c0eed209df3778fa34efd",
    (16, "explicit"):
        "a88b2d41357e9610d5a56a0c46b17648056217ab52d2ffc5d89b660f92268873",
    (16, "top-k"):
        "40434897f2e4284c723b9c5a9e85e5b2bab26c59b840b8aae79e8ebb3043d5c3",
    (32, "all-critical"):
        "2b13dafb7387dc156b48183968d9b81d11fa43b96106dcfbb9fc1490c74308b3",
    (32, "explicit"):
        "237f5f8a81edd75861bc11896526266a7201d684b5374f4bea60fc07c2e9b382",
    (32, "top-k"):
        "244ac85e8cfcf1ab65878ae97290071b255d915141c0eaf263ccf25442036078",
    (64, "all-critical"):
        "27048e91fb0c3dfab3154e3fdd9fe9fce8f7ecb82a64f90ef9ce6b7d42156237",
    (64, "explicit"):
        "87eb31de22fa92ee7dd3676ecac266b6a410f007d7ff28ccbe7f51b6dba34512",
    (64, "top-k"):
        "6f4f94f40c0037f98b07e580d918d5cfb9f69420fb51b3d12f1e117829266451",
    (128, "all-critical"):
        "00468547ba1ba83df5d0e4b4f942d45bb1ecacc50651bc37f58f41129ba8ef6e",
    (128, "explicit"):
        "ba1c25e2a8ec61f4e784ad41ce2ad28897e1deef99bb571fe27d7f29fcf92e33",
    (128, "top-k"):
        "c646f1b38c22658b20fce4e3b743fa1ed9a6a9c13fd30350738e4774651b8b9a",
}


@pytest.mark.parametrize("k, policy", sorted(RAND_V4_DIGESTS))
def test_rand_v4_report_bytes_match_recorded_digest(k, policy, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    config = _rand_config(k, policy)
    digest = hashlib.sha256(report_to_json(cmd_analyze(config)).encode()).hexdigest()
    assert digest == RAND_V4_DIGESTS[k, policy]


def test_walk_refuses_a_component_it_does_not_hold(sys3):
    walk = LadderWalk(sys3, [Fraction(1, 2), Fraction(1)])
    assert walk.span(frozenset("abc")) == (0, 1)
    assert walk.span(frozenset("ab")) is None
