"""The CLI's option surface: every declared flag is read by its command, a
flag that cannot apply to the model kind is refused rather than ignored, and
classify-chaos classifies along the same path as analyze."""

import argparse
import hashlib
import inspect
import json
import re
from fractions import Fraction
from pathlib import Path

import pytest

from chainscope import GridMapSpec, build_chain_digraph, critical_deltas
from chainscope import chaos, cli
from chainscope.cli import build_parser, main
from chainscope.corpus import corpus_names, load_corpus
from chainscope.errors import SpecError
from chainscope.report import AnalysisConfig, cmd_analyze, condensation_dot, report_to_json
from chainscope.systems import MAX_EXHAUSTIVE_POINTS, FiniteSystem

from conftest import line_system, save_system
from oracles import indented


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


def _subcommands() -> dict[str, argparse.ArgumentParser]:
    parser = build_parser()
    action = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return dict(action.choices)


# functions a handler hands ``args`` to, whose reads count as the handler's
HANDLER_HELPERS = {"classify-chaos": (cli._emit_witness_traces,)}


def test_every_declared_option_is_read_by_its_handler():
    declared = 0
    for name, sub in _subcommands().items():
        handler = sub.get_default("func")
        source = "".join(inspect.getsource(f)
                         for f in (handler, *HANDLER_HELPERS.get(name, ())))
        dests = [a.dest for a in sub._actions if a.dest != "help"]
        unread = [d for d in dests if not re.search(rf"\bargs\.{d}\b", source)]
        assert not unread, f"{name} declares options its handler never reads: {unread}"
        declared += len(dests)
    assert declared == 44


@pytest.mark.parametrize("argv", [
    ["analyze", "corpus:sys3", "--seed", "9"],
    ["chains", "corpus:sys3", "--budget", "5"],
    ["chains", "corpus:sys3", "--seed", "9"],
    ["classify-chaos", "corpus:sys3", "--seed", "9"],
    ["furstenberg", "--eventually-periodic", "pre=", "pat=10", "--budget", "5"],
    ["furstenberg", "--eventually-periodic", "pre=", "pat=10", "--seed", "9"],
    ["shadow", "corpus:full2", "--orbit", "orbit.txt", "--budget", "5"],
    ["shadow", "corpus:full2", "--orbit", "orbit.txt", "--seed", "9"],
    ["corpus", "--budget", "5"],
    ["corpus", "--seed", "9"],
])
def test_a_flag_the_command_does_not_read_exits_2(argv, tmp_path, monkeypatch, capsys):
    # each of these used to exit 0 and ignore the flag; analyze used to
    # record --seed in provenance, and nothing read it
    monkeypatch.chdir(tmp_path)
    Path("orbit.txt").write_text("|0 1\n1|0 1\n|0 1\n")
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["analyze", "corpus:sys3", "--ladder", "1/2"],
    ["analyze", "corpus:sys3", "--ladder-policy", "top-k", "--ladder", "1/2"],
    ["analyze", "corpus:sys3", "--top-k", "1"],
    ["analyze", "corpus:sys3", "--ladder-policy", "explicit", "--ladder", "1/2",
     "--top-k", "1"],
])
def test_a_ladder_setting_of_another_policy_exits_2(argv, capsys):
    # each of these used to exit 0, ignore the setting and echo it
    code, out, err = run_cli(argv, capsys)
    assert code == 2 and out == ""
    assert "applies only to --ladder-policy" in err


@pytest.mark.parametrize("argv, top_k, ladder", [
    ([], 6, []),
    (["--ladder-policy", "top-k"], 6, []),
    (["--ladder-policy", "top-k", "--top-k", "1"], 1, []),
    (["--ladder-policy", "explicit", "--ladder", "1/2,1"], 6, ["1/2", "1"]),
])
def test_accepted_ladder_settings_echo_as_before(argv, top_k, ladder, capsys):
    # the settings of each run, as report v2 echoed them all; v3 echoes
    # top_k only under top-k and ladder only under explicit
    code, out, _ = run_cli(["analyze", "corpus:sys3", *argv], capsys)
    config = json.loads(out)["provenance"]["config"]
    assert code == 0
    assert (config.get("top_k", 6), config.get("ladder", [])) == (top_k, ladder)
    assert ("top_k" in config, "ladder" in config) == (
        config["ladder_policy"] == "top-k", config["ladder_policy"] == "explicit")


def test_unread_finite_settings_leave_the_report_unchanged(capsys):
    # only the vertex-shift chaos search reads these; a finite report used
    # to echo them into provenance.config all the same
    code, default, _ = run_cli(["analyze", "corpus:tent8"], capsys)
    assert code == 0
    code, given, _ = run_cli(["analyze", "corpus:tent8", "--horizon", "4096", "--eps-depth",
                              "1", "--no-witness", "--m-max", "3"], capsys)
    assert code == 0 and given == default


@pytest.mark.parametrize("argv, read", [
    (["corpus:tent8"], {"ladder_policy", "delta"}),
    (["corpus:tent8", "--ladder-policy", "top-k", "--delta", "1/2"],
     {"ladder_policy", "delta", "top_k"}),
    (["corpus:tent8", "--ladder-policy", "explicit", "--ladder", "1/2"],
     {"ladder_policy", "delta", "ladder"}),
    (["corpus:full2", "--no-witness"], {"horizon", "eps_depth", "with_witness", "m_max"}),
])
def test_provenance_echoes_only_the_settings_the_run_reads(argv, read, capsys):
    code, out, _ = run_cli(["analyze", *argv], capsys)
    provenance = json.loads(out)["provenance"]
    assert code == 0
    assert provenance.keys() == {"tool", "version", "config"}
    assert provenance["config"].keys() == {"spec", "n_max", "budget"} | read


@pytest.mark.parametrize("kwargs", [
    {"ladder": ("1/2",)},
    {"ladder": ("1/2",), "top_k": 1},
    {"top_k": 1},
    {"ladder_policy": "top-k", "ladder": ("1/2",)},
    {"ladder_policy": "explicit", "ladder": ("1/2",), "top_k": 1},
])
def test_a_config_ladder_setting_of_another_policy_is_refused(kwargs):
    # a library caller used to get the all-critical ladder with the setting echoed
    with pytest.raises(SpecError, match="applies only to the"):
        AnalysisConfig(spec="corpus:sys3", **kwargs)


@pytest.mark.parametrize("argv, kwargs", [
    ([], {}),
    (["--ladder-policy", "explicit", "--ladder", "1/2,1"],
     {"ladder_policy": "explicit", "ladder": ("1/2", "1")}),
])
def test_a_config_top_k_of_six_echoes_as_the_default(argv, kwargs, capsys):
    code, out, _ = run_cli(["analyze", "corpus:sys3", *argv], capsys)
    report = cmd_analyze(AnalysisConfig(spec="corpus:sys3", top_k=6, **kwargs))
    assert code == 0 and report_to_json(report) == out


def test_furstenberg_takes_one_time_set(capsys):
    # the second subject used to be ignored
    with pytest.raises(SystemExit) as exc:
        main(["furstenberg", "--eventually-periodic", "pre=", "pat=1",
              "--rotation", "alpha=golden"])
    assert exc.value.code == 2
    assert "not allowed with" in capsys.readouterr().err


def test_shadow_epsilon_on_a_vertex_shift_exits_2(tmp_path, monkeypatch, capsys):
    # a vertex shift is shadowed to --depth; --epsilon used to be ignored
    monkeypatch.chdir(tmp_path)
    Path("orbit.txt").write_text("|0 1\n1|0 1\n|0 1\n")
    code, out, err = run_cli(["shadow", "corpus:full2", "--orbit", "orbit.txt",
                              "--epsilon", "1/4", "--out", "s.json"], capsys)
    assert code == 2
    assert err.startswith("error: ") and "finite systems" in err
    assert out == ""
    assert not Path("s.json").exists()


@pytest.mark.parametrize("flags", [["--emit-csv", "t.csv"], ["--emit-svg", "t.svg"],
                                   ["--emit-csv", "t.csv", "--emit-svg", "t.svg"]])
def test_classify_witness_traces_on_a_finite_system_exit_2(flags, tmp_path, monkeypatch,
                                                           capsys):
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(["classify-chaos", "corpus:sys3", *flags, "--out", "r.json"],
                             capsys)
    assert code == 2
    assert err.startswith("error: ") and "vertex shifts" in err
    assert out == ""
    assert list(Path().iterdir()) == []


def test_analyze_emit_dot_on_a_vertex_shift_exits_2(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(["analyze", "corpus:full2", "--emit-dot", "c.dot",
                              "--out", "r.json"], capsys)
    assert code == 2
    assert err.startswith("error: ") and "finite systems" in err
    assert out == ""
    assert list(Path().iterdir()) == []


@pytest.mark.parametrize("extra", [
    ["--ladder-policy", "top-k", "--top-k", "2"],
    ["--ladder-policy", "explicit", "--ladder", "3/4,1/2"],
    ["--delta", "3/8"],
])
def test_analyze_emit_dot_draws_the_classification_resolution(extra, tmp_path, capsys):
    dot = tmp_path / "c.dot"
    out = tmp_path / "r.json"
    code, _, _ = run_cli(["analyze", "corpus:tent8", *extra, "--emit-dot", str(dot),
                          "--out", str(out)], capsys)
    assert code == 0
    report = json.loads(out.read_text())
    model = load_corpus("tent8")
    delta = Fraction(report["basins"][0]["delta"])
    assert delta != critical_deltas(model)[0]
    assert dot.read_text() == condensation_dot(build_chain_digraph(model, delta))


def test_analyze_emit_dot_loads_the_spec_once(tmp_path, monkeypatch, capsys):
    # the DOT writer draws the model the report loaded, at the walk's own
    # step: one load of the spec file, and no digraph built again (the walk
    # builds one per chain analysis written, the drawn one among them)
    from chainscope import cyclic, report, specio

    spec = tmp_path / "tent8.json"
    save_system(load_corpus("tent8"), spec)
    counts = {"load_system": 0, "build_chain_digraph": 0}

    def counting(module, name):
        fn = getattr(module, name)

        def wrapped(*args):
            counts[name] += 1
            return fn(*args)
        monkeypatch.setattr(module, name, wrapped)

    for module, name in ((specio, "load_system"), (report, "load_system"),
                         (cyclic, "build_chain_digraph")):
        counting(module, name)
    code, _, _ = run_cli(["analyze", str(spec), "--emit-dot", str(tmp_path / "c.dot"),
                          "--out", str(tmp_path / "r.json")], capsys)
    assert code == 0
    written = len(json.loads((tmp_path / "r.json").read_text())["chain_analyses"])
    assert counts == {"load_system": 1, "build_chain_digraph": written}


@pytest.mark.parametrize("name", [n for n in corpus_names()
                                  if isinstance(load_corpus(n), FiniteSystem)])
@pytest.mark.parametrize("extra", [[], ["--delta", "1/3"], ["--ladder-policy", "top-k",
                                                            "--top-k", "1"]])
def test_analyze_emit_dot_draws_the_built_digraph_on_the_corpus(name, extra, tmp_path, capsys):
    dot, out = tmp_path / "c.dot", tmp_path / "r.json"
    code, _, _ = run_cli(["analyze", f"corpus:{name}", *extra, "--emit-dot", str(dot),
                          "--out", str(out)], capsys)
    assert code == 0
    delta = Fraction(json.loads(out.read_text())["basins"][0]["delta"])
    assert dot.read_text() == condensation_dot(build_chain_digraph(load_corpus(name), delta))


def _chaos_list(argv, capsys) -> str:
    code, out, err = run_cli(argv, capsys)
    assert code == 0, err
    return report_to_json(json.loads(out)["chaos"])


def _finite_cases():
    for name in corpus_names():
        model = load_corpus(name)
        if isinstance(model, FiniteSystem):
            # every critical resolution and one off the ladder
            for d in [*critical_deltas(model), Fraction(1, 3)]:
                yield f"corpus:{name}", str(d)


@pytest.mark.parametrize("spec, delta", list(_finite_cases()))
def test_classify_chaos_matches_analyze_on_the_corpus(spec, delta, capsys):
    # classify-chaos and analyze classify from the same decompositions
    assert (_chaos_list(["classify-chaos", spec, "--delta", delta], capsys)
            == _chaos_list(["analyze", spec, "--delta", delta], capsys))


@pytest.mark.parametrize("n, seed", [(12, 5), (16, 6), (20, 7)])
def test_classify_chaos_matches_analyze_on_line_systems(n, seed, tmp_path, monkeypatch,
                                                        capsys):
    monkeypatch.chdir(tmp_path)
    model = line_system(n, seed)
    save_system(model, "line.json")
    crit = critical_deltas(model)
    for d in (crit[0], crit[len(crit) // 2], crit[-1]):
        assert (_chaos_list(["classify-chaos", "line.json", "--delta", str(d)], capsys)
                == _chaos_list(["analyze", "line.json", "--ladder-policy", "top-k",
                                "--delta", str(d)], capsys))


def test_grid_cell_count_is_capped():
    GridMapSpec("tent", MAX_EXHAUSTIVE_POINTS, slope=Fraction(2))
    with pytest.raises(SpecError, match="cell_count"):
        GridMapSpec("tent", MAX_EXHAUSTIVE_POINTS + 1, slope=Fraction(2))
    with pytest.raises(SpecError, match="cell_count"):
        GridMapSpec("tent", 10**7, slope=Fraction(2))


THREE_CYCLE_SPEC = {"schema": "chainscope-v1", "kind": "sft",
                    "adjacency": [[0, 1, 0], [0, 0, 1], [1, 0, 0]]}


def _digest(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _report_digest(path) -> str:
    """The digest of a JSON output in the indented layout its lock was recorded in."""
    return hashlib.sha256(indented(json.loads(Path(path).read_text())).encode()).hexdigest()


@pytest.mark.parametrize("flags", [["--emit-csv", "t.csv"], ["--emit-svg", "t.svg"]])
def test_witness_traces_of_a_shift_without_a_distal_pair_exit_2(flags, tmp_path,
                                                                monkeypatch, capsys):
    # a 3-cycle has one vertex per cyclic class, so no distal pair: the trace
    # used to exit 3 as if a budget had run out
    monkeypatch.chdir(tmp_path)
    Path("c3.json").write_text(json.dumps(THREE_CYCLE_SPEC))
    code, out, err = run_cli(["classify-chaos", "c3.json", *flags, "--out", "r.json"], capsys)
    assert code == 2
    assert err.startswith("error: ") and "level NONE" in err
    assert out == ""
    assert sorted(p.name for p in Path().iterdir()) == ["c3.json"]


def test_witness_traces_whose_pair_search_runs_out_of_budget_exit_3(tmp_path, monkeypatch,
                                                                     capsys):
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(["classify-chaos", "corpus:full2", "--budget", "3",
                              "--emit-csv", "t.csv", "--out", "r.json"], capsys)
    assert code == 3
    assert err.startswith("budget exceeded: ")
    assert out == ""
    assert list(Path().iterdir()) == []


@pytest.mark.parametrize("horizon, csv_digest, svg_digest", [
    ("512", "ef46c58ead21fd53862dde90822e0bf8de19f2ef7c52da9b550acd5b69d93a04",
     "719b2389c3af8b1461880b29300f1455af004f78ebecc8102fe3bc8bf1c6fe10"),
    ("200", "a81f360779f593429ec2ee46de4c2c58c7ffc86d3e9259e01de3738089bce8b3",
     "65e725d60c9cdad4c793867dab7705b4612cc4d56c0c054b82e4a44293c0f52b"),
])
def test_witness_traces_of_full2_keep_their_bytes(horizon, csv_digest, svg_digest, tmp_path,
                                                  monkeypatch, capsys):
    # recorded when the trace still ran its own distal search; it now reuses
    # the classification's pair
    monkeypatch.chdir(tmp_path)
    searches = []
    original = chaos._first_distal

    def counting(*args):
        searches.append(args)
        return original(*args)

    monkeypatch.setattr(chaos, "_first_distal", counting)
    code, _, _ = run_cli(["classify-chaos", "corpus:full2", "--horizon", horizon,
                          "--n-max", "2", "--emit-csv", "t.csv", "--emit-svg", "t.svg",
                          "--out", "r.json"], capsys)
    assert code == 0
    assert (_digest("t.csv"), _digest("t.svg")) == (csv_digest, svg_digest)
    assert len(searches) == 1  # the classification's n = 2 search, and no other


ORBIT_TENT8 = "c0\nc0\nc1\nc2\nc5\nc3\nc6\nc1\n"  # step 4 has error 1/4


def test_shadow_depth_with_delta_on_a_finite_system_exits_2(tmp_path, monkeypatch, capsys):
    # --depth only sets the default delta there, so the pair used to write
    # the bytes of --delta alone whatever the depth
    monkeypatch.chdir(tmp_path)
    Path("o.txt").write_text(ORBIT_TENT8)
    code, out, err = run_cli(["shadow", "corpus:tent8", "--orbit", "o.txt", "--delta", "1/4",
                              "--depth", "7", "--out", "s.json"], capsys)
    assert code == 2
    assert err.startswith("error: ") and "--depth" in err
    assert out == ""
    assert sorted(p.name for p in Path().iterdir()) == ["o.txt"]


@pytest.mark.parametrize("spec, orbit, flags, digest", [
    ("corpus:tent8", ORBIT_TENT8, ["--delta", "1/4"],
     "ef884f26e05b886d039ea1529045df44ec2957374e66ec84b9f166037eb6e8b9"),
    ("corpus:tent8", ORBIT_TENT8, ["--depth", "2"],
     "ef884f26e05b886d039ea1529045df44ec2957374e66ec84b9f166037eb6e8b9"),
    ("corpus:full2", "|0 1\n1|0 1\n|0 1\n", [],
     "3912cf04babed381a1d386193088c959cf1a0f96397e6bb64ecea023ada32f99"),
    ("corpus:full2", "|0 1\n1|0 1\n|0 1\n", ["--depth", "3"],
     "3912cf04babed381a1d386193088c959cf1a0f96397e6bb64ecea023ada32f99"),
])
def test_shadow_without_the_pair_keeps_its_bytes(spec, orbit, flags, digest, tmp_path,
                                                 monkeypatch, capsys):
    # digests recorded when --depth defaulted to 3 in the parser, and
    # re-recorded when the limit_verdict.failing_checkpoint line was dropped
    monkeypatch.chdir(tmp_path)
    Path("o.txt").write_text(orbit)
    code, _, _ = run_cli(["shadow", spec, "--orbit", "o.txt", *flags, "--out", "s.json"],
                         capsys)
    assert code == 0
    assert _report_digest("s.json") == digest


def _readme_cli_flags() -> dict[str, set[str]]:
    """Flags of each command in the README "CLI" table."""
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    section = text.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    rows = [line for line in section.splitlines() if line.startswith("| `")]
    table = {}
    for row in rows:
        command_cell, flags_cell = row.strip("|").split("|", 1)
        command = re.search(r"`([a-z-]+)", command_cell).group(1)
        table[command] = set(re.findall(r"--[a-z][a-z-]*", flags_cell))
    return table


def test_readme_cli_table_lists_each_declared_flag():
    declared = {name: {opt for a in sub._actions for opt in a.option_strings
                       if opt.startswith("--") and opt != "--help"}
                for name, sub in _subcommands().items()}
    assert _readme_cli_flags() == declared
