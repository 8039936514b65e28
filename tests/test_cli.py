import contextlib
import copy
import hashlib
import io
import json
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chainscope import chains, cli, cyclic, report, sft
from chainscope.chains import ChainDigraph, complete_lyapunov
from chainscope.chaos import ClassifyParams
from chainscope.cli import main
from chainscope.corpus import corpus_names, load_corpus
from chainscope.errors import InternalError
from chainscope.families import MAX_WINDOW
from chainscope.report import AnalysisConfig, cmd_analyze, condensation_dot, report_to_json
from chainscope.specio import dump_system, load_system
from chainscope import assign_basins, build_chain_digraph, critical_deltas, verify_partition_laws

from conftest import RING41_CHORDS, RING60_CHORDS, line_system, ring_with_chords, save_system
from oracles import report_v1, report_v2, report_v3


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_corpus_listing(capsys):
    code, out, _ = run_cli(["corpus"], capsys)
    assert code == 0
    for name in corpus_names():
        assert name in out


def test_main_builds_its_parser_once(monkeypatch, capsys):
    built = []
    original = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(original()) or built[-1])
    cli._parser.cache_clear()
    try:
        for _ in range(3):
            assert run_cli(["corpus"], capsys)[0] == 0
    finally:
        cli._parser.cache_clear()  # the next call builds with the real builder
    assert len(built) == 1


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
    assert report["schema"] == "chainscope-report-v4"
    assert report["system"]["kind"] == "finite"
    # two trivial components plus the basin of s swallowing t
    basin = report["basins"][0]
    srow = next(r for r in basin["rows"] if r["node"] == "t")
    comp = basin["components"][srow["component"]]
    assert comp == ["s"]
    model = load_corpus("sysns")
    walk = cyclic.LadderWalk(model, [Fraction(basin["delta"])])
    assert verify_partition_laws(assign_basins(model, walk.decompositions(0))).ok


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
    sys3 = load_corpus("sys3")
    broken = ChainDigraph(sys3, Fraction(0),
                          {"a": ("b",), "b": ("c",), "c": ("a", "b")},
                          (("a",), ("b", "c")), {"a": 0, "b": 1, "c": 1},
                          sys3.ranks.cut(Fraction(0)))
    with pytest.raises(InternalError):
        complete_lyapunov(broken)
    # the walk builds every digraph it reads or writes through one name
    monkeypatch.setattr(cyclic, "build_chain_digraph", lambda model, delta: broken)
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


def test_chains_emit_csv_writes_the_basin_rows(tmp_path, capsys):
    path = tmp_path / "basins.csv"
    code, out, err = run_cli(["chains", "corpus:sysns", "--delta", "1/2",
                              "--emit-csv", str(path)], capsys)
    assert (code, err) == (0, "")
    text, wrote = out.rsplit("wrote ", 1)
    assert wrote == f"{path}\n"
    rows = json.loads(text)["basins"]["rows"]
    assert path.read_text().splitlines() == ["node,component,class"] + [
        f"{r['node']},{r['component']},{r['class']}" for r in rows]


def test_furstenberg_set_file_matches_the_eventually_periodic_form(tmp_path, capsys):
    # the evens, observed on 1024 times and given exactly
    path = tmp_path / "evens.rle"
    path.write_text("1x1 0x1\n" * 512)
    code, out, err = run_cli(["furstenberg", "--set-file", str(path)], capsys)
    assert (code, err) == (0, "")
    windowed = json.loads(out)["verdicts"]
    code, out, _ = run_cli(["furstenberg", "--eventually-periodic", "pre=", "pat=10"], capsys)
    assert code == 0
    exact = json.loads(out)["verdicts"]
    assert ([(v["family"], v["member"]) for v in windowed]
            == [(v["family"], v["member"]) for v in exact]
            == [("UD1", False), ("THICK", False), ("IAPSTAR", False), ("INFINITE", True)])
    assert {v["mode"] for v in windowed} == {"windowed"}


@pytest.mark.parametrize("argv, message", [
    (["furstenberg"], "choose one of --eventually-periodic, --rotation, --set-file"),
    (["furstenberg", "--rotation", "golden"], "expected key=value, got 'golden'"),
    (["furstenberg", "--rotation", "beta=1"], "unknown key 'beta'; allowed: ['H', 'alpha']"),
    (["chains", "corpus:full2"], "chain analysis applies to finite systems"),
    (["analyze", "corpus:sys3", "--ladder-policy", "explicit"],
     "explicit ladder policy needs ladder values"),
    (["analyze", "bad.json"], "bad.json: not valid JSON: "),
    (["analyze", "partial.json"], "map is not defined at point 'b'"),
], ids=["furstenberg-no-subject", "rotation-no-equals", "rotation-unknown-key",
        "chains-vertex-shift", "explicit-without-ladder", "spec-not-json", "map-misses-a-point"])
def test_refused_command_lines_exit_2(argv, message, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    Path("bad.json").write_text("{not json")
    Path("partial.json").write_text(json.dumps(dict(FINITE_SPEC, map={"a": "b"})))
    code, out, err = run_cli(argv + ["--out", "o.json"], capsys)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {message}")
    assert not Path("o.json").exists()


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
        cfg = AnalysisConfig(spec=f"corpus:{name}")
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


# the v2 forms (``oracles.report_v2``) of the same configs, in REPORT_DIGESTS order
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
    assert sha256(report_to_json(report_v2(config))) == REPORT_V2_DIGESTS[i]


# the v3 forms (``oracles.report_v3``) of the same configs and of two vertex
# shifts, recorded as v3 reports when v3 only dropped keys from v2
REPORT_V3_DIGESTS = list(zip([config for config, _ in REPORT_DIGESTS], [
    "0503012a3b5101e87e8015fbf571faebd2a4e74c5e5b64e12fde979cd1e3dbf9",
    "d20caedd3bd91d61e49527ac52d46ce10169b8144e8589fcb10ae728cebf9ee3",
    "9b09068445e4c4f0fa216148d1dd348a6b3d73bc436b3bcaf45994a93df79be2",
    "d5892e0d552c95b5eee091b3280eaccf5e5fc9d5958dd6aa5df9726b8c579682",
    "f73cb1abe90a96f3a39977877a7d5a07bf268b5c777403d7d7c6cc15c3cb1a73",
    "cdaa5ee8db3d048703fb14f3097ecc0fc2fbc4f2329fd57b049fdae4ad346245",
    "f2ed37edad6ef977fe5da23edf05468c80ebdbd7cf1923400b2c008dbe387193",
])) + [
    ({"spec": "corpus:full2"},
     "c0ab5f6b81e8be432df0f3e4f22b9446ac4f0bb8f2bd4f4595a6a4d16b97f3d4"),
    ({"spec": "corpus:goldenmean", "horizon": 256},
     "0aecc5fd2aee7d21a06ef0b3dc38c9ee89c738d02377e6b3a938e210d0c30d25"),
]


@pytest.mark.parametrize("config, digest", REPORT_V3_DIGESTS)
def test_v3_report_bytes_match_recorded_digest(config, digest):
    assert sha256(report_to_json(report_v3(AnalysisConfig(**config)))) == digest


# the v4 reports of the same configs
REPORT_V4_DIGESTS = list(zip([config for config, _ in REPORT_V3_DIGESTS], [
    "89a029450f5dcdbc70d396991daaaeda07c7d40a5fcd7bb778581ae93833c9ee",
    "1f9a01823b7f764b01facfb2a08899e6ffefefa10f032b745efe249565db6d06",
    "c5b14fa286e0945fa833650e3f02b70ff53ac5f05d22f92b4b77946ae49cfe8b",
    "9340753575d3d0775748cb82d63688c301eeeaf7f5591afa89f1850afb4e6436",
    "f7a3a5f0028784a2f42e69c441a46749271b7cdbb762d954ba02ec9dea4dad00",
    "ec292bbb483eb7060e500178013b3051aa1fefc51b772f51a3cba2d60b2247b7",
    "66a341f2cf2957f04c11a1562037eab52d39a69d797e249240bb9434304119ec",
    "e87540482391bca092015a5e8206a3d63c3561cffc6882773953bcb76d94f1d3",
    "2de2f6566230af5219ea3d2eb4b6d6406ca390049a305ceed7f60b2e5c373158",
]))


@pytest.mark.parametrize("config, digest", REPORT_V4_DIGESTS)
def test_v4_report_bytes_match_recorded_digest(config, digest):
    assert sha256(report_to_json(cmd_analyze(AnalysisConfig(**config)))) == digest


@pytest.mark.parametrize("config", [
    {"spec": "corpus:tent8"},
    {"spec": "corpus:tent8", "delta": "1/16"},
    {"spec": "corpus:rotation4", "ladder_policy": "top-k", "top_k": 2},
])
def test_analyze_builds_each_ladder_digraph_once(config, monkeypatch):
    builds = {"chains": 0, "cyclic": 0}
    for module in (chains, cyclic):
        name = module.__name__.rsplit(".", 1)[1]

        def build(*args, _name=name, _original=module.build_chain_digraph):
            builds[_name] += 1
            return _original(*args)

        monkeypatch.setattr(module, "build_chain_digraph", build)
    doc = cmd_analyze(AnalysisConfig(**config))
    built = dict(builds)
    # the walk builds a digraph where it writes a chain analysis, and at the
    # classification resolution when that is off the ladder and the chain
    # components change there
    ladder = [Fraction(d) for d in doc["ladder"]]
    delta = Fraction(config.get("delta", ladder[0]))
    walk = sorted({*ladder, delta})
    off = delta not in ladder and walk.index(delta) in cyclic.LadderWalk(
        load_corpus(config["spec"].split(":")[1]), walk).changes
    assert built["cyclic"] == len(doc["chain_analyses"]) + off
    # the proximal section reads the walk and builds no digraph of its own
    assert built["chains"] == 0


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
    assert (sha256(report_to_json(report_v2(config)))
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
    # a window one step past MAX_WINDOW, and run counts below 1 (each of
    # these used to be built, or dropped, and exit 0)
    (["furstenberg", "--set-file", "long.rle"], None),
    (["furstenberg", "--rotation", "alpha=golden", f"H={MAX_WINDOW + 1}"], None),
    (["furstenberg", "--set-file", "negative.rle"], None),
    (["furstenberg", "--set-file", "zero.rle"], None),
    # a vertex shift has no resolution ladder
    (["analyze", "corpus:goldenmean", "--ladder-policy", "explicit", "--ladder", "1/2"], None),
    (["analyze", "corpus:full2", "--ladder-policy", "top-k", "--top-k", "2"], None),
    (["analyze", "corpus:full2", "--ladder-policy", "top-k"], None),
])
def test_malformed_input_exits_2(argv, budget_env, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    Path("orbit.txt").write_text("a\nb\nc\n")
    Path("long.rle").write_text(f"1x{MAX_WINDOW // 2} 0x{MAX_WINDOW // 2 + 1}\n")
    Path("negative.rle").write_text("1x2 0x-3 1x400\n")
    Path("zero.rle").write_text("1x0 0x400\n")
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
    assert (sha256(report_to_json(report_v2(config)))
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


@pytest.mark.parametrize("command", ["analyze", "classify-chaos"])
def test_horizon_past_the_window_cap_exits_2_before_the_search(command, monkeypatch, capsys):
    # a tenfold horizon took about 90 times as long, so the cap is checked
    # with the other settings, before any classification starts
    def forbidden(*args):
        raise AssertionError("the search started")

    monkeypatch.setattr(cli, "classify_sft", forbidden)
    monkeypatch.setattr(report, "classify_sft", forbidden)
    code, out, err = run_cli([command, "corpus:full2", "--horizon", str(MAX_WINDOW + 1)],
                             capsys)
    assert code == 2
    assert err == f"error: horizon must be at most {MAX_WINDOW}\n"
    assert out == ""
    assert ClassifyParams(horizon=MAX_WINDOW).horizon == MAX_WINDOW


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
    assert sha256(report_to_json(report_v2(config))) == RING_V2_DIGESTS[name]


@pytest.mark.parametrize("spec, orbit, extra, message", [
    ("corpus:sys3", "a\nb\nc\n", ["--epsilon", "-1"], "epsilon must be nonnegative"),
    ("corpus:sys3", "a\nb\nc\n", ["--delta", "-1"], "delta must be nonnegative"),
    ("corpus:full2", "|0 1\n1|0 1\n|0 1\n", ["--delta", "-1"], "delta must be nonnegative"),
])
def test_shadow_rejects_a_negative_bound(spec, orbit, extra, message, tmp_path, capsys):
    # a negative epsilon used to exit 0 with no shadow point, and a negative
    # delta to exit 2 naming a step of error 0
    path = tmp_path / "orbit.txt"
    path.write_text(orbit)
    code, out, err = run_cli(["shadow", spec, "--orbit", str(path), *extra], capsys)
    assert code == 2
    assert err.startswith("error: ") and message in err
    assert out == ""


def test_shadow_rejects_a_negative_depth(tmp_path, capsys):
    orbit = tmp_path / "orbit.txt"
    orbit.write_text("|0 1\n1|0 1\n|0 1\n")
    code, out, err = run_cli(["shadow", "corpus:full2", "--orbit", str(orbit),
                              "--depth", "-1"], capsys)
    assert code == 2
    assert err.startswith("error: ") and "depth" in err
    assert out == ""


@pytest.mark.parametrize("line, message", [
    ("1|", "cycle must be nonempty"),  # an InvalidPoint from the point's canonical form
    ("1|x", "bad"),  # a SpecError from the parser
])
def test_a_bad_orbit_state_names_its_file_and_line(line, message, tmp_path, capsys):
    orbit = tmp_path / "orbit.txt"
    orbit.write_text(f"|0 1\n# a comment\n{line}\n|0 1\n")
    code, out, err = run_cli(["shadow", "corpus:full2", "--orbit", str(orbit),
                              "--depth", "1"], capsys)
    assert code == 2 and out == ""
    assert err.startswith(f"error: {orbit}:3: ") and message in err


def test_chains_and_shadow_build_few_fractions_on_a_64_point_line(tmp_path, monkeypatch):
    # a distance stays an int rank until it is written: each command builds
    # a Fraction per value it writes, not one per distinct distance (2,017
    # on this system, and over 2,000 per command when they were eager)
    import random

    sys = line_system(64, 11, cycles=(1, 3))
    spec, orbit = tmp_path / "line64.json", tmp_path / "orbit.txt"
    save_system(sys, spec)
    crit = critical_deltas(sys)
    delta, step = crit[len(crit) // 4], crit[len(crit) // 50]
    rng = random.Random(11)
    states = [sys.points[0]]
    for _ in range(199):  # true steps, some replaced by a jump of at most ``step``
        states.append(rng.choice([v for v in sys.points
                                  if sys.distance(sys.apply(states[-1]), v) <= step]))
    orbit.write_text("\n".join(states) + "\n")
    counts = {}
    new = Fraction.__new__

    def counting(cls, *args, **kwargs):
        counts[command] += 1
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", staticmethod(counting))
    for command, extra in (("chains", ["--delta", str(delta)]),
                           ("shadow", ["--orbit", str(orbit), "--delta", str(step),
                                       "--epsilon", str(delta)])):
        counts[command] = 0
        assert main([command, str(spec), *extra, "--out", str(tmp_path / "out.json")]) == 0
    monkeypatch.undo()
    assert counts["chains"] <= 64 and counts["shadow"] <= 64, counts


def test_shadow_finds_no_limit_shadow_on_the_finite_coarse_seed_1_orbit(tmp_path,
                                                                         monkeypatch):
    # no point shadows the benchmark's 400-state pseudo-orbit, so none
    # limit-shadows it; a check of its step errors at four checkpoints
    # called it ok
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "chainbench"))
    import gen

    monkeypatch.chdir(tmp_path)
    argv = dict(gen.generate("finite_coarse", 1, Path("work"))["ops"])["shadow"]
    assert main(argv) == 0
    out = json.loads(Path(argv[argv.index("--out") + 1]).read_text())
    assert out["shadow_point"] is None
    assert out["limit_verdict"] == {"ok": False}


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
    assert (sha256(report_to_json(report_v2(config)))
            == "1267c5fc7d32799f49ee2d676b5886c90f1dcd244bd971312ed169bcd0c47a63")


LONG_LADDER_DIGESTS = {
    "all-critical": "3c55721f037f21e853156f7d7f8e53e77dc2df3d7531565948405576663a9fd8",
    "top-k": "ae51ead73537785605c12ddba9caf9795b7ab27e373175734dc7495a2e2d936a",
    "explicit": "5891ec59c56ce3b56456a5f3c48939c9bf794f9f59ce4dcca47fd1648ed98b1f",
}


@pytest.mark.parametrize("policy", sorted(LONG_LADDER_DIGESTS))
def test_long_ladder_report_bytes_match_recorded_digest(policy, tmp_path, monkeypatch):
    # a seeded 30-point line system (316 critical values) under each ladder
    # policy, recorded before the sweep shared rows between steps: the explicit
    # ladder is the midpoints of consecutive critical values, so no step of
    # it is critical
    monkeypatch.chdir(tmp_path)
    sys = line_system(30, 30)
    save_system(sys, "line30.json")
    crit = critical_deltas(sys)
    extra = {"all-critical": {},
             "top-k": {"top_k": len(crit) // 2},
             "explicit": {"ladder": tuple(str((a + b) / 2) for a, b in zip(crit, crit[1:]))}}
    config = AnalysisConfig(spec="line30.json", ladder_policy=policy, **extra[policy])
    assert sha256(report_to_json(report_v2(config))) == LONG_LADDER_DIGESTS[policy]


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
    monkeypatch.setattr(cyclic, "cyclic_classes", forbidden)
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
    {"schema": "chainscope-v1", "kind": "grid", "family": "tent", "cells": 10**7,
     "slope": "2"},
    dict(FINITE_SPEC, map=["a", "b"]),
    dict(FINITE_SPEC, metric=[5]),
    dict(FINITE_SPEC, metric=[["a", "b", float("inf")]]),
    dict(FINITE_SPEC, labels=[1]),
    dict(FINITE_SPEC, points=[], map={}, metric=[]),
    *(dict(FINITE_SPEC, metric=[["a", "b", literal]])
      for literal in ("1/0", "abc", "1//2", "", "-1/2")),
    dict(FINITE_SPEC, metric=[["a", "b", "1"], ["a", "a", "5"]]),
    dict(FINITE_SPEC, metric=[["a", "b", "1"], ["a", "b", "2"]]),
    dict(FINITE_SPEC, metric=[["a", "b", "1"], ["b", "a", "2"]]),
    dict(FINITE_SPEC, metric=[["a", "b", "1e4000000"]]),
    dict(FINITE_SPEC, metric=[["a", "b", True]]),
    dict(FINITE_SPEC, points="ab"),
    dict(FINITE_SPEC, map=[["a", "b"], ["b", "a"]]),
    dict(FINITE_SPEC, points=[1, 2], map={"1": 2, "2": 1}),
    dict(FINITE_SPEC, labels=[["a", "north"]]),
    dict(FINITE_SPEC, metric=[["a", 2, "1"]], points=["a", "2"], map={"a": "2", "2": "a"}),
    {"schema": "chainscope-v1", "kind": "sft", "adjacency": [[1.5]]},
    {"schema": "chainscope-v1", "kind": "sft", "adjacency": [[True]]},
    {"schema": "chainscope-v1", "kind": "grid", "family": "tent", "cells": 4.7, "slope": "2"},
], ids=["grid-cells", "grid-alpha", "grid-breakpoints", "grid-cells-above-cap",
        "finite-map-list",
        "finite-metric-int", "finite-metric-1e400", "finite-labels-list",
        "finite-no-points", "metric-1/0", "metric-abc", "metric-1//2", "metric-empty",
        "metric-negative", "metric-diagonal", "metric-pair-twice", "metric-pair-reversed",
        "metric-exponent-past-bound", "metric-true", "points-string", "finite-map-pairs",
        "finite-points-numbers", "finite-labels-pairs", "finite-metric-number-name",
        "adjacency-float",
        "adjacency-true", "grid-cells-float"])
def test_malformed_spec_exits_2(spec, tmp_path, monkeypatch, capsys):
    # each of the first nine exited 1 with a traceback before the loader
    # caught it
    monkeypatch.chdir(tmp_path)
    # json writes inf as Infinity; 1e400 is what a spec file would hold
    Path("bad.json").write_text(json.dumps(spec).replace("Infinity", "1e400"))
    code, out, err = run_cli(["analyze", "bad.json", "--out", "r.json"], capsys)
    assert code == 2
    assert err.startswith("error: ")
    assert not Path("r.json").exists()


def test_entropy_iteration_cap_exits_3(tmp_path, monkeypatch, capsys):
    # the kernel reads the cap when it is called
    monkeypatch.setattr(sft, "ENTROPY_MAX_ITER", 2)
    monkeypatch.chdir(tmp_path)
    code, _, err = run_cli(["analyze", "corpus:goldenmean", "--out", "r.json"], capsys)
    assert code == 3
    assert err.startswith("budget exceeded: ")
    assert not Path("r.json").exists()


GRID_SPECS = [
    {"schema": "chainscope-v1", "kind": "grid", "family": "tent", "cells": 8, "slope": "2"},
    {"schema": "chainscope-v1", "kind": "grid", "family": "rotation", "geometry": "circle",
     "cells": 6, "alpha": "1/3"},
    {"schema": "chainscope-v1", "kind": "grid", "family": "piecewise-linear", "cells": 5,
     "breakpoints": [["0", "1/2"], ["1/2", "1"], ["1", "0"]]},
]
BASE_SPECS = [dump_system(load_corpus(name)) for name in corpus_names()] + GRID_SPECS
FINITE_SPECS = [spec for spec in BASE_SPECS if spec["kind"] == "finite"]
SFT_SPECS = [spec for spec in BASE_SPECS if spec["kind"] == "sft"]
# small values of every JSON type, so no mutation asks for a large system
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 9) | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner,
                                                                max_size=3),
    max_leaves=6)


def _replace_nested(draw, value):
    """``value`` with one drawn element, at any depth, replaced by a JSON value."""
    if not isinstance(value, (list, dict)) or not value or draw(st.booleans()):
        return draw(JSON_VALUES)
    key = draw(st.sampled_from(sorted(value) if isinstance(value, dict) else range(len(value))))
    value[key] = _replace_nested(draw, value[key])
    return value


@st.composite
def mutated_spec_texts(draw):
    """The text of a corpus or grid spec with one mutation: cut JSON, a
    changed kind or schema, a dropped key, a value of another type, a map
    that is not total, an asymmetric, negative or oddly written metric
    entry, or an adjacency row of zeros."""
    mutation = draw(st.sampled_from(
        ["json", "kind", "drop", "retype", "map", "metric", "zero-row"]))
    pool = {"map": FINITE_SPECS, "metric": FINITE_SPECS, "zero-row": SFT_SPECS}
    spec = copy.deepcopy(draw(st.sampled_from(pool.get(mutation, BASE_SPECS))))
    if mutation == "json":
        text = json.dumps(spec)
        return text[:draw(st.integers(0, len(text) - 1))] + draw(st.text(max_size=3))
    if mutation == "kind":
        spec[draw(st.sampled_from(["kind", "schema"]))] = draw(
            st.sampled_from(["finite", "sft", "grid", "chainscope-v2"]) | JSON_VALUES)
    elif mutation == "drop":
        del spec[draw(st.sampled_from(sorted(spec)))]
    elif mutation == "retype":
        key = draw(st.sampled_from(sorted(spec)))
        spec[key] = _replace_nested(draw, spec[key])
    elif mutation == "map":
        point = draw(st.sampled_from(sorted(spec["map"])))
        if draw(st.booleans()):
            del spec["map"][point]
        else:
            spec["map"][point] = draw(st.text(max_size=3))
    elif mutation == "metric":
        entry = draw(st.sampled_from(spec["metric"]))
        u, v, d = entry
        change = draw(st.sampled_from(["reverse", "negate", "literal"]))
        if change == "reverse":
            spec["metric"].append([v, u, draw(st.sampled_from(["0", "2", "1/3", d + "1"]))])
        elif change == "negate":
            entry[2] = "-" + d
        else:
            entry[2] = draw(st.sampled_from(
                ["007/010", "0/5", "3", "1/0", "+1/2", " 1/2", "1_0/3", "3.5", "1e3", "²",
                 "１/２"]))
    else:
        row = draw(st.integers(0, len(spec["adjacency"]) - 1))
        spec["adjacency"][row] = [0] * len(spec["adjacency"])
    return json.dumps(spec)


@settings(max_examples=200, deadline=None)
@given(mutated_spec_texts(), st.sampled_from([["analyze"], ["classify-chaos"],
                                              ["chains", "--delta", "1/2"]]))
def test_cli_on_mutated_specs_exits_with_a_documented_code(text, command):
    with tempfile.TemporaryDirectory() as work:
        spec, out = Path(work, "spec.json"), Path(work, "out.json")
        spec.write_text(text, encoding="utf-8")
        stderr = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
            code = main([*command[:1], str(spec), *command[1:], "--out", str(out)])
    assert code in (0, 2, 3, 4)
    assert "Traceback" not in stderr.getvalue()
    assert code == 0 or not out.exists()


def _fuzzed_run(argv, files: dict[str, str]) -> tuple[int, str]:
    """(exit code, standard error) of ``main`` on ``argv`` in a fresh
    directory holding ``files``; an argument the parser refuses exits 2
    through SystemExit, as the command would."""
    with tempfile.TemporaryDirectory() as work:
        for name, text in files.items():
            Path(work, name).write_text(text, encoding="utf-8")
        stderr = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
            try:
                code = main([arg.replace("{work}", work) for arg in argv])
            except SystemExit as exc:
                code = exc.code
            if code != 0:
                assert not Path(work, "out.json").exists()
    return code, stderr.getvalue()


# a drawn fragment of text: a value near a valid one of some input format,
# or digits (some not ASCII), separators and letters; short, so no fragment
# asks for much work
FRAGMENTS = st.sampled_from(
    ["0", "1", "c", "d", "1/3", "-1/2", "1e3", "0 1|1", "|1", "1|", "|", "2|0", "0|",
     "H=64", "H=0", "alpha=0.3", "alpha=nan", "alpha=1e-13", "1x0", "0x5", "2x1", "1x٣"]
) | st.text(alphabet="0123456789٣１ |#,/.:=_+-eHxalphgodnif\t", max_size=6)


def _mutated_lines(draw, lines: list[str]) -> list[str]:
    """``lines`` with one line replaced, inserted, dropped or cut short."""
    lines = list(lines)
    i = draw(st.integers(0, len(lines) - 1))
    mutation = draw(st.sampled_from(["replace", "insert", "drop", "cut"]))
    if mutation == "replace":
        lines[i] = draw(FRAGMENTS)
    elif mutation == "insert":
        lines.insert(i, draw(FRAGMENTS))
    elif mutation == "drop":
        del lines[i]
    else:
        lines[i] = lines[i][:draw(st.integers(0, len(lines[i])))] + draw(FRAGMENTS)
    return lines


# valid pseudo-orbits on a finite system and on a vertex shift
SHADOW_CASES = [("corpus:sys3", ["a", "b", "c", "a", "# a comment", "b"]),
                ("corpus:full2", ["|0 1", "1|0 1", "|0 1", "0 1|1", ""])]


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_shadow_on_mutated_orbits_exits_with_a_documented_code(data):
    spec, lines = data.draw(st.sampled_from(SHADOW_CASES))
    extra = data.draw(st.sampled_from([[], ["--depth", "2"], ["--delta", "1/4"],
                                       ["--epsilon", "1/2"], ["--emit-csv", "{work}/t.csv"]]))
    text = "\n".join(_mutated_lines(data.draw, lines))
    code, err = _fuzzed_run(["shadow", spec, "--orbit", "{work}/orbit.txt", *extra,
                             "--out", "{work}/out.json"], {"orbit.txt": text})
    assert code in (0, 2, 3, 4)
    assert "Traceback" not in err


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_mutated_option_values_exit_with_a_documented_code(data):
    # --ladder values, --rotation tokens and --set-file run-length text,
    # each a valid value with one mutation
    kind = data.draw(st.sampled_from(["ladder", "rotation", "set-file"]))
    files = {}
    if kind == "ladder":
        values = _mutated_lines(data.draw, ["1/2", "1", "0"])
        argv = ["analyze", data.draw(st.sampled_from(["corpus:sys3", "corpus:tent8"])),
                "--ladder-policy", "explicit", "--ladder=" + ",".join(values)]
    elif kind == "rotation":
        tokens = [t for t in _mutated_lines(data.draw, ["alpha=golden", "H=300"]) if t]
        argv = ["furstenberg", *(["--rotation", *tokens] if tokens else [])]
    else:
        files["set.txt"] = " ".join(_mutated_lines(data.draw, ["1x40", "0x3", "1x200"]))
        argv = ["furstenberg", "--set-file", "{work}/set.txt"]
    code, err = _fuzzed_run([*argv, "--out", "{work}/out.json"], files)
    assert code in (0, 2, 3, 4)
    assert "Traceback" not in err


def test_fullwidth_digit_metric_literal_is_a_value(tmp_path, monkeypatch, capsys):
    # Fraction(str) reads any Unicode decimal digits, so "１/２" is 1/2
    monkeypatch.chdir(tmp_path)
    for name, literal in (("wide.json", "１/２"), ("ascii.json", "1/2")):
        Path(name).write_text(json.dumps(dict(FINITE_SPEC, metric=[["a", "b", literal]])))
    code, _, err = run_cli(["analyze", "wide.json", "--out", "wide.out"], capsys)
    assert (code, err) == (0, "")
    assert run_cli(["analyze", "ascii.json", "--out", "ascii.out"], capsys)[0] == 0
    wide, ascii_ = (json.loads(Path(f).read_text()) for f in ("wide.out", "ascii.out"))
    assert wide["system"] == ascii_["system"]
