import hashlib
import json
from fractions import Fraction
from pathlib import Path

import pytest

from chainscope import basins, cyclic, report
from chainscope.chains import ChainDigraph, complete_lyapunov
from chainscope.cli import main
from chainscope.corpus import corpus_names, load_corpus
from chainscope.errors import InternalError
from chainscope.report import AnalysisConfig, cmd_analyze, condensation_dot, report_to_json
from chainscope.specio import load_system, save_system
from chainscope import build_chain_digraph

from conftest import RING41_CHORDS, RING60_CHORDS, line_system, ring_with_chords
from oracles import report_v1


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_corpus_listing(capsys):
    code, out, _ = run_cli(["corpus"], capsys)
    assert code == 0
    for name in corpus_names():
        assert name in out


def test_spec_round_trip(tmp_path):
    for name in corpus_names():
        model = load_corpus(name)
        path = tmp_path / f"{name}.json"
        save_system(model, path)
        again = load_system(path)
        assert again == model


def test_spec_round_trip_keeps_labels(tmp_path):
    from chainscope import finite_system

    model = finite_system(["a", "b"], {"a": "b", "b": "a"}, {("a", "b"): 1},
                          labels={"a": "north pole", "b": "south pole"})
    path = tmp_path / "labeled.json"
    save_system(model, path)
    assert load_system(path) == model


def test_analyze_writes_report(tmp_path, capsys):
    out_path = tmp_path / "r.json"
    code, out, _ = run_cli(["analyze", "corpus:sysns", "--out", str(out_path)], capsys)
    assert code == 0
    report = json.loads(out_path.read_text())
    assert report["schema"] == "chainscope-report-v2"
    assert report["system"]["kind"] == "finite"
    # two trivial components plus the basin of s swallowing t
    basin = report["basins"][0]
    srow = next(r for r in basin["rows"] if r["node"] == "t")
    comp = basin["components"][srow["component"]]
    assert comp == ["s"]
    assert basin["partition_laws_ok"]


def test_analyze_full_shift_report(tmp_path, capsys):
    out_path = tmp_path / "full2.json"
    code, _, _ = run_cli(["analyze", "corpus:full2", "--horizon", "512",
                          "--out", str(out_path)], capsys)
    assert code == 0
    report = json.loads(out_path.read_text())
    assert report["system"]["kind"] == "sft"
    assert report["chaos"][0]["level"] == "DC1"


def test_analyze_rejects_bad_spec(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "schema": "chainscope-v1", "kind": "finite",
        "points": ["a", "b", "c"],
        "map": {"a": "b", "b": "c", "c": "a"},
        "metric": [["a", "b", "5"], ["b", "c", "1"], ["a", "c", "1"]],
    }))
    code, _, err = run_cli(["analyze", str(bad)], capsys)
    assert code == 2
    assert "triangle" in err


@pytest.mark.parametrize("k", ["0", "-2"])
def test_analyze_rejects_top_k_below_one(k, tmp_path, capsys):
    out_path = tmp_path / "r.json"
    code, _, err = run_cli(["analyze", "corpus:tent8", "--ladder-policy", "top-k",
                            "--top-k", k, "--out", str(out_path)], capsys)
    assert code == 2
    assert "top_k" in err
    assert not out_path.exists()


def test_internal_invariant_failure_exits_4(monkeypatch, capsys):
    # two SCCs that are each other's condensation successor: no condensation
    # order exists, which a digraph built from a metric never produces
    broken = ChainDigraph(load_corpus("sys3"), Fraction(0),
                          {"a": ("b",), "b": ("c",), "c": ("a", "b")},
                          (("a",), ("b", "c")), {"a": 0, "b": 1, "c": 1}, ((1,), (0,)))
    with pytest.raises(InternalError):
        complete_lyapunov(broken)
    monkeypatch.setattr(report, "build_chain_digraph", lambda model, delta: broken)
    code, _, err = run_cli(["analyze", "corpus:sys3"], capsys)
    assert code == 4
    assert "internal invariant failure" in err


def test_chains_emit_dot(tmp_path, capsys):
    dot = tmp_path / "c.dot"
    code, _, _ = run_cli(["chains", "corpus:sysns", "--delta", "1/2",
                          "--emit-dot", str(dot)], capsys)
    assert code == 0
    text = dot.read_text()
    assert text.startswith("digraph")
    assert "->" in text


def test_condensation_dot_structure(sysns):
    from fractions import Fraction

    dg = build_chain_digraph(sysns, Fraction(1, 2))
    dot = condensation_dot(dg)
    assert dot.count("shape=box") == 2  # two recurrent components
    assert dot.count("shape=ellipse") == 1  # the transient node


def test_furstenberg_cli_eventually_periodic(capsys):
    code, out, _ = run_cli(["furstenberg", "--eventually-periodic", "pre=", "pat=10"],
                           capsys)
    assert code == 0
    verdicts = {v["family"]: v["member"] for v in json.loads(out)["verdicts"]}
    assert verdicts == {"UD1": False, "THICK": False, "IAPSTAR": False, "INFINITE": True}


def test_furstenberg_cli_all_ones(capsys):
    code, out, _ = run_cli(["furstenberg", "--eventually-periodic", "pre=", "pat=1"],
                           capsys)
    assert code == 0
    assert all(v["member"] for v in json.loads(out)["verdicts"])


def test_furstenberg_cli_rotation(capsys):
    code, out, _ = run_cli(["furstenberg", "--rotation", "alpha=golden", "H=10000",
                            "--m-max", "20"], capsys)
    assert code == 0
    verdicts = {v["family"]: v["member"] for v in json.loads(out)["verdicts"]}
    assert verdicts["IAPSTAR"] is True
    assert verdicts["THICK"] is False


def test_shadow_cli_true_orbit(tmp_path, capsys):
    orbit = tmp_path / "orbit.txt"
    orbit.write_text("|0 1\n1|0 1\n|0 1\n")
    csv_path = tmp_path / "trace.csv"
    svg_path = tmp_path / "trace.svg"
    code, out, _ = run_cli(["shadow", "corpus:full2", "--orbit", str(orbit),
                            "--depth", "3", "--emit-csv", str(csv_path),
                            "--emit-svg", str(svg_path)], capsys)
    assert code == 0
    payload = json.loads(out.split("wrote")[0])
    assert payload["shadow_point"] == "|0 1"
    assert payload["achieved_bound"] == "0"
    assert csv_path.read_text().startswith("i,")
    assert svg_path.read_text().startswith("<svg")


def test_shadow_cli_step_violation(tmp_path, capsys):
    orbit = tmp_path / "orbit.txt"
    orbit.write_text("p\nq\n")
    code, _, err = run_cli(["shadow", "corpus:sys2id", "--orbit", str(orbit),
                            "--delta", "1/2"], capsys)
    assert code == 2
    assert "step 0" in err


def test_classify_cli(capsys):
    code, out, _ = run_cli(["classify-chaos", "corpus:sys2id", "--delta", "1/2"],
                           capsys)
    assert code == 0
    payload = json.loads(out)
    assert [c["level"] for c in payload["chaos"]] == ["NONE", "NONE"]
    assert all(c["all_classes_singleton"] for c in payload["chaos"])


def test_report_validates_against_shipped_schema(tmp_path):
    jsonschema = pytest.importorskip("jsonschema")
    schema = json.loads(
        (Path(__file__).resolve().parents[1] / "src" / "chainscope"
         / "report_schema.json").read_text())
    for name in ("sys3", "sysns", "full2", "rotation4"):
        report = cmd_analyze(AnalysisConfig(spec=f"corpus:{name}", horizon=256))
        jsonschema.validate(report, schema)


def test_determinism_across_runs():
    for name in corpus_names():
        cfg = AnalysisConfig(spec=f"corpus:{name}", seed=123)
        assert report_to_json(cmd_analyze(cfg)) == report_to_json(cmd_analyze(cfg))


def test_corpus_export_cli(tmp_path, capsys):
    out = tmp_path / "sys3.json"
    code, _, _ = run_cli(["corpus", "--export", "sys3", "--out", str(out)], capsys)
    assert code == 0
    spec = json.loads(out.read_text())
    assert spec["kind"] == "finite" and spec["schema"] == "chainscope-v1"


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


# sha256 of `analyze` reports in their v1 form (``oracles.report_v1``): the
# report bytes are part of the contract, so a change of any digest must be
# deliberate.  These were recorded from the v1 reports themselves, before
# v2 wrote the ladder sparsely.
REPORT_DIGESTS = [
    ({"spec": "corpus:sys3"},
     "7a8b92183a388346e068f2f28ad28a424650fd6963d3ba42b238b41a3c4f9d23"),
    ({"spec": "corpus:sysns"},
     "3580353a7dda756b91a6477b5566085db91150ae03c62403a578e2faec1e5cec"),
    ({"spec": "corpus:sys2id"},
     "6df61ab6414aad2a20e026e3d8fa093d5d374857c5663e76ebdba4bf925c8270"),
    ({"spec": "corpus:rotation4"},
     "3efe63196400f63556dbec9779ecee5efdb1b2a202b643fe2ddb2a019bde1fc4"),
    ({"spec": "corpus:tent8"},
     "a3621b1eedd7023c23bd4dcc2f6b3bd3cfc2e0aa5da512ac2e52093de20967f0"),
    ({"spec": "corpus:sysns", "ladder_policy": "explicit", "ladder": ("1/3", "1", "2"),
      "delta": "3/4"},
     "a72663ffc45d51064a20d856b3b6eadc7668d5454e6de238f380b7ecccab89b1"),
    ({"spec": "corpus:tent8", "ladder_policy": "top-k", "top_k": 3, "delta": "1/16"},
     "d1c62304a2e71b8e3af6c043226b57fd3c3b86aed1ca87b83aceb5555468d51e"),
]


@pytest.mark.parametrize("config, digest", REPORT_DIGESTS)
def test_report_bytes_match_recorded_digest(config, digest):
    assert sha256(report_to_json(report_v1(AnalysisConfig(**config)))) == digest


# the v2 reports of the same configs, in REPORT_DIGESTS order
REPORT_V2_DIGESTS = [
    "3353b345a36e9ff973274ca653533b18499d84135c819e3f204862e2177db6b4",
    "e663e4662dd0a7b352766d1b31482fa2e087c15fcf6c2cda050185de2148eecd",
    "12f8bf1ee48a9b287ed777f2539a51b574d60c1062bfd9e6cbf168c642c78b89",
    "507ab64b411c4aefd93e90b0d2a7a3e24a99b972e8db858cc3ab946efbc000d3",
    "fbabf9e8b1a21814591a7af9e7a1cad56a745fe04bb6e70b34cfcf3e6f34f07c",
    "6e7dee62302d283bacf7df483fd4ac05764e6130543b63760287d4c355e1024b",
    "7c1b1c5b42b85b19f4f3f0e8df7e83fe8cbf960f572156328c7bf82a424208f1",
]


@pytest.mark.parametrize("i", range(len(REPORT_DIGESTS)))
def test_v2_report_bytes_match_recorded_digest(i):
    config = AnalysisConfig(**REPORT_DIGESTS[i][0])
    assert sha256(report_to_json(cmd_analyze(config))) == REPORT_V2_DIGESTS[i]


@pytest.mark.parametrize("config", [
    {"spec": "corpus:tent8"},
    {"spec": "corpus:tent8", "delta": "1/16"},
    {"spec": "corpus:rotation4", "ladder_policy": "top-k", "top_k": 2},
])
def test_analyze_builds_each_ladder_digraph_once(config, monkeypatch):
    builds = {"report": 0, "cyclic": 0}
    for module in (report, cyclic):
        name = module.__name__.rsplit(".", 1)[1]

        def build(sys, delta, _name=name, _original=module.build_chain_digraph):
            builds[_name] += 1
            return _original(sys, delta)

        monkeypatch.setattr(module, "build_chain_digraph", build)
    doc = cmd_analyze(AnalysisConfig(**config))
    ladder = [Fraction(d) for d in doc["ladder"]]
    delta = Fraction(config.get("delta", ladder[0]))
    # the sweep, plus the classification digraph only when it is off the ladder
    assert builds["report"] == len(ladder) + (delta not in ladder)
    # the proximal section reads the sweep and builds no digraph of its own
    assert builds["cyclic"] == 0


# irreducible period-2 symbol graph with branching: vertices 0, 1 form one
# cyclic class and 2, 3 the other
PERIOD_TWO_SPEC = {"schema": "chainscope-v1", "kind": "sft",
                   "adjacency": [[0, 0, 1, 1], [0, 0, 1, 1], [1, 1, 0, 0], [1, 1, 0, 0]]}


def test_period_two_shift_report_bytes_match_recorded_digest(tmp_path, monkeypatch):
    # the digest of the report built from one distal search per cyclic class
    monkeypatch.chdir(tmp_path)
    Path("p2.json").write_text(json.dumps(PERIOD_TWO_SPEC))
    config = AnalysisConfig(spec="p2.json")
    assert (sha256(report_to_json(report_v1(config)))
            == "37851f3f285b793a86d98e6ba578157f5ff3803129e6a698522d5207e451d991")
    assert (sha256(report_to_json(cmd_analyze(config)))
            == "a92580c6239d08b3971b65c64c2e04c5fb627d4dc3e385edf0bc99a1502df754")


@pytest.mark.parametrize("argv, budget_env", [
    (["analyze", "corpus:nosuch"], None),
    (["analyze", "missing.json"], None),
    (["shadow", "corpus:full2", "--orbit", "missing.txt"], None),
    (["furstenberg", "--set-file", "missing.txt"], None),
    (["analyze", "corpus:sys3"], "abc"),
    (["furstenberg", "--rotation", "alpha=xyz"], None),
    (["furstenberg", "--rotation", "alpha=nan"], None),
    (["furstenberg", "--rotation", "H=abc"], None),
    (["furstenberg", "--eventually-periodic", "pat=1x"], None),
    (["analyze", "corpus:sys3", "--delta", "abc"], None),
    (["analyze", "corpus:sys3", "--delta", "1/0"], None),
    (["chains", "corpus:sys3", "--delta", "abc"], None),
    (["classify-chaos", "corpus:sys3", "--delta", "abc"], None),
    (["analyze", "corpus:sys3", "--ladder-policy", "explicit", "--ladder", "1,x"], None),
    (["shadow", "corpus:sys3", "--orbit", "orbit.txt", "--delta", "abc"], None),
    (["shadow", "corpus:sys3", "--orbit", "orbit.txt", "--epsilon", "abc"], None),
])
def test_malformed_input_exits_2(argv, budget_env, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    Path("orbit.txt").write_text("a\nb\nc\n")
    if budget_env is None:
        monkeypatch.delenv("CHAINSCOPE_BUDGET", raising=False)
    else:
        monkeypatch.setenv("CHAINSCOPE_BUDGET", budget_env)
    code, out, err = run_cli(argv, capsys)
    assert code == 2
    assert err.startswith("error: ")
    assert out == ""


@pytest.mark.parametrize("spec", ["corpus:full2", "corpus:sys3"])
def test_classify_rejects_n_max_below_two(spec, capsys):
    code, out, err = run_cli(["classify-chaos", spec, "--n-max", "1"], capsys)
    assert code == 2
    assert "n_max" in err
    assert out == ""


def test_line_system_report_bytes_match_recorded_digest(tmp_path, monkeypatch):
    # 40 points at distinct multiples of 1/997 with the map i -> i^2 + 3
    # (mod 40); at delta 1 every point lies in one period-1 component, so
    # the chaos section enumerates every pair and triple of the 40 points
    import random

    n = 40
    rng = random.Random(40)
    xs = rng.sample(range(1, 997), n)
    names = [f"q{i:02d}" for i in range(n)]
    spec = {"schema": "chainscope-v1", "kind": "finite", "points": names,
            "map": {names[i]: names[(i * i + 3) % n] for i in range(n)},
            "metric": [[names[i], names[j], str(Fraction(abs(xs[i] - xs[j]), 997))]
                       for i in range(n) for j in range(i + 1, n)]}
    monkeypatch.chdir(tmp_path)
    Path("line40.json").write_text(json.dumps(spec))
    config = AnalysisConfig(spec="line40.json", ladder_policy="top-k", top_k=3, delta="1")
    assert (sha256(report_to_json(report_v1(config)))
            == "47975afab19f852343db94fddf5b1ec843a59cc842cca29ab1181b312b9f62f0")
    assert (sha256(report_to_json(cmd_analyze(config)))
            == "deaf40f0499ba83d29df69bf40a93badf4977f135e833ace8517e7d48988bf77")


@pytest.mark.parametrize("command", ["analyze", "classify-chaos"])
@pytest.mark.parametrize("spec, extra, message", [
    ("corpus:full2", ["--eps-depth", "0"], "eps_depth"),
    ("corpus:sys3", ["--eps-depth", "-1"], "eps_depth"),
    ("corpus:full2", ["--horizon", "-5"], "horizon"),
    ("corpus:sys3", ["--horizon", "63"], "horizon"),
    ("corpus:full2", ["--delta", "abc"], "bad rational"),
    ("corpus:full2", ["--delta", "1/2"], "vertex shift"),
])
def test_unusable_settings_exit_2(command, spec, extra, message, capsys):
    code, out, err = run_cli([command, spec, *extra], capsys)
    assert code == 2
    assert err.startswith("error: ") and message in err
    assert out == ""


RING_V2_DIGESTS = {
    "ring60": "dcdab5a8a2bd4be9a333ccde33c6128bf17f640a93b138eb45f7a7acf66dfc30",
    "aring41": "82ba904a565de0d746a4ea5ba9cd0a1fd168ea718159f96035ebbb4ba15fdab9",
}


@pytest.mark.parametrize("name, n, chords, digest", [
    ("ring60", 60, RING60_CHORDS,
     "641cb356c05ab6d08beeabe74f35104a6b5401e5aa7203a92892f4711b633df0"),
    ("aring41", 41, RING41_CHORDS,
     "97a9a455203ab29ccdd9dd87a813ad2d47d76a87358bd946252ce24da883a7d4"),
])
def test_ring_with_chords_report_bytes_match_recorded_digest(name, n, chords, digest,
                                                             tmp_path, monkeypatch):
    # a period-2 and an aperiodic ring: entropy, distal search and witness
    monkeypatch.chdir(tmp_path)
    spec = {"schema": "chainscope-v1", "kind": "sft",
            "adjacency": [list(row) for row in ring_with_chords(n, chords)]}
    Path(f"{name}.json").write_text(json.dumps(spec))
    config = AnalysisConfig(spec=f"{name}.json")
    assert sha256(report_to_json(report_v1(config))) == digest
    assert sha256(report_to_json(cmd_analyze(config))) == RING_V2_DIGESTS[name]


def test_shadow_rejects_a_negative_depth(tmp_path, capsys):
    orbit = tmp_path / "orbit.txt"
    orbit.write_text("|0 1\n1|0 1\n|0 1\n")
    code, out, err = run_cli(["shadow", "corpus:full2", "--orbit", str(orbit),
                              "--depth", "-1"], capsys)
    assert code == 2
    assert err.startswith("error: ") and "depth" in err
    assert out == ""


@pytest.mark.parametrize("argv, message", [
    (["furstenberg", "--set-file", "w.rle", "--m-max", "0"], "m_max"),
    (["furstenberg", "--set-file", "w.rle", "--run-req", "0"], "run_req"),
    (["furstenberg", "--set-file", "w.rle", "--run-req", "-3"], "run_req"),
    (["analyze", "corpus:full2", "--m-max", "0"], "m_max"),
    (["analyze", "corpus:sys3", "--m-max", "-1"], "m_max"),
])
def test_window_bounds_below_one_exit_2(argv, message, tmp_path, monkeypatch, capsys):
    # two members in 400 steps: neither THICK nor IAPSTAR may pass vacuously
    monkeypatch.chdir(tmp_path)
    Path("w.rle").write_text("1x2 0x398\n")
    code, out, err = run_cli(argv, capsys)
    assert code == 2
    assert err.startswith("error: ") and message in err
    assert out == ""


@pytest.mark.parametrize("argv, budget_env", [
    (["analyze", "corpus:sys3", "--budget", "-1"], None),
    (["analyze", "corpus:full2", "--budget", "-5"], None),
    (["classify-chaos", "corpus:sys3", "--budget", "-1"], None),
    (["classify-chaos", "corpus:full2"], "-3"),
    (["analyze", "corpus:sys3"], "-2"),
])
def test_negative_budget_exits_2(argv, budget_env, monkeypatch, capsys):
    # a negative budget used to flag budget_exceeded on every tier and exit 0
    if budget_env is None:
        monkeypatch.delenv("CHAINSCOPE_BUDGET", raising=False)
    else:
        monkeypatch.setenv("CHAINSCOPE_BUDGET", budget_env)
    code, out, err = run_cli(argv, capsys)
    assert code == 2
    assert err.startswith("error: ") and "budget" in err
    assert out == ""


def test_zero_budget_is_legal(capsys):
    # a budget of 0 runs and flags each enumeration it skips
    code, out, _ = run_cli(["analyze", "corpus:sys3", "--budget", "0", "--delta", "1"], capsys)
    assert code == 0
    per_n = json.loads(out)["chaos"][0]["per_n"]
    assert all(entry["budget_exceeded"] for entry in per_n)


def test_line_system_ladder_report_bytes_match_recorded_digest(tmp_path, monkeypatch):
    # all-critical analyze of a seeded 24-point line system (211 ladder
    # values, components of period 1, 3 and 5)
    monkeypatch.chdir(tmp_path)
    save_system(line_system(24, 24), "line24.json")
    config = AnalysisConfig(spec="line24.json")
    assert (sha256(report_to_json(report_v1(config)))
            == "9df0ba57b0f0fc8bd2c9278416c32c1a9fc56c510cb41d3b90f2c42118c47a8a")
    assert (sha256(report_to_json(cmd_analyze(config)))
            == "1267c5fc7d32799f49ee2d676b5886c90f1dcd244bd971312ed169bcd0c47a63")


def test_analyze_evaluates_fewer_transient_indices_than_steps(tmp_path, monkeypatch):
    # the sweep evaluates the transient index at the ends of each segment and
    # where they differ, not once per (step, component)
    calls = []
    original = cyclic._transient_index

    def counting(*args):
        calls.append(args)
        return original(*args)

    def forbidden(*args, **kwargs):
        raise AssertionError("analyze reads every decomposition from its sweep")

    monkeypatch.setattr(cyclic, "_transient_index", counting)
    for module in (basins, cyclic):
        monkeypatch.setattr(module, "cyclic_classes", forbidden)
    monkeypatch.chdir(tmp_path)
    save_system(line_system(24, 24), "line24.json")
    config = AnalysisConfig(spec="line24.json")
    cmd_analyze(config)
    evaluated = len(calls)
    # every (step, component) pair, counted in the report's v1 form
    full = report_v1(config)
    pairs = len(full["cyclic"])
    assert pairs == sum(len(step["components"]) for step in full["chain_analyses"])
    assert 0 < evaluated < pairs // 2


FINITE_SPEC = {"schema": "chainscope-v1", "kind": "finite", "points": ["a", "b"],
               "map": {"a": "b", "b": "a"}, "metric": [["a", "b", "1"]]}


@pytest.mark.parametrize("spec", [
    {"schema": "chainscope-v1", "kind": "grid", "family": "tent", "cells": "abc",
     "slope": "2"},
    {"schema": "chainscope-v1", "kind": "grid", "family": "rotation", "cells": 8,
     "alpha": "x"},
    {"schema": "chainscope-v1", "kind": "grid", "family": "piecewise-linear", "cells": 8,
     "breakpoints": [[1]]},
    dict(FINITE_SPEC, map=["a", "b"]),
    dict(FINITE_SPEC, metric=[5]),
    dict(FINITE_SPEC, metric=[["a", "b", float("inf")]]),
    dict(FINITE_SPEC, labels=[1]),
    dict(FINITE_SPEC, points=[], map={}, metric=[]),
], ids=["grid-cells", "grid-alpha", "grid-breakpoints", "finite-map-list",
        "finite-metric-int", "finite-metric-1e400", "finite-labels-list",
        "finite-no-points"])
def test_malformed_spec_exits_2(spec, tmp_path, monkeypatch, capsys):
    # each of these exited 1 with a traceback before the loader caught it
    monkeypatch.chdir(tmp_path)
    # json writes inf as Infinity; 1e400 is what a spec file would hold
    Path("bad.json").write_text(json.dumps(spec).replace("Infinity", "1e400"))
    code, out, err = run_cli(["analyze", "bad.json", "--out", "r.json"], capsys)
    assert code == 2
    assert err.startswith("error: ")
    assert not Path("r.json").exists()
