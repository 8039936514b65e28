"""Report v2: the sparse ladder loses nothing, and every report validates
against the shipped schema."""

import contextlib
import io
import json
import random
import tempfile
from fractions import Fraction
from pathlib import Path
from unittest import mock

import jsonschema
from hypothesis import given, settings
from hypothesis import strategies as st

from chainscope import critical_deltas, finite_system, report
from chainscope.cli import main
from chainscope.report import AnalysisConfig, cmd_analyze
from chainscope.specio import dump_system, save_system

from conftest import line_system, random_system
from oracles import recover_step, report_v1
from test_cyclic import _sweep_system
from test_graph import irreducible_graphs

SCHEMA = json.loads((Path(report.__file__).parent / "report_schema.json").read_text())
LADDER_SECTIONS = ("chain_analyses", "cyclic")


def _dumps(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True)


def _config(sys, policy: str, rng: random.Random, path: str) -> AnalysisConfig:
    """A config of the given ladder policy, with the classification delta the
    first ladder value, between two critical values, or above them all."""
    crit = critical_deltas(sys)
    extra = {}
    if policy == "top-k":
        extra = {"top_k": rng.randint(1, len(crit) + 1)}
    elif policy == "explicit":
        mids = [(a + b) / 2 for a, b in zip(crit, crit[1:])]
        values = rng.sample(crit + mids, rng.randint(1, len(crit) + len(mids)))
        extra = {"ladder": tuple(str(v) for v in values)}
    pick = rng.randrange(3)
    if pick == 1 and len(crit) > 1:
        i = rng.randrange(len(crit) - 1)
        extra["delta"] = str((crit[i] + crit[i + 1]) / 2)
    elif pick == 2:
        extra["delta"] = str(crit[-1] + 1)
    return AnalysisConfig(spec=path, ladder_policy=policy, horizon=64, eps_depth=2,
                          n_max=2, **extra)


def _check_v2_against_v1(config: AnalysisConfig):
    v2 = cmd_analyze(config)
    v1 = report_v1(config)
    # the v1 pipeline: the same run with every ladder step written
    with mock.patch.object(report, "_changed", lambda last, here: True):
        dense = cmd_analyze(config)
    ladder = v2["ladder"]
    assert v1["ladder"] == ladder
    assert len(v1["chain_analyses"]) == len(ladder)
    assert dense["chain_analyses"] == v1["chain_analyses"]
    assert dense["cyclic"] == v1["cyclic"]
    # every step is recovered from system.spec and the latest entries below it
    v1_rows = {}
    for row in v1["cyclic"]:
        v1_rows.setdefault(row["delta"], []).append(row)
    for i, full in enumerate(v1["chain_analyses"]):
        chain, rows = recover_step(v2, i)
        assert chain == {k: full[k] for k in chain}
        assert rows == v1_rows.get(ladder[i], [])
    # an entry is written exactly where the rule says, byte-equal to v1
    want = [e for i, e in enumerate(v1["chain_analyses"])
            if i == 0 or e["components"] != v1["chain_analyses"][i - 1]["components"]]
    assert [_dumps(e) for e in v2["chain_analyses"]] == [_dumps(e) for e in want]
    want_rows, last = [], {}
    for d in ladder:
        here = {}
        for row in v1_rows.get(d, []):
            body = dict(row, delta=None)
            if last.get(tuple(row["component"])) != body:
                want_rows.append(row)
            here[tuple(row["component"])] = body
        last = here
    assert [_dumps(r) for r in v2["cyclic"]] == [_dumps(r) for r in want_rows]
    # every other section is byte-equal to the v1 pipeline's
    for key in v2.keys() - set(LADDER_SECTIONS) - {"schema"}:
        assert _dumps(v2[key]) == _dumps(dense[key])
    assert v2.keys() == dense.keys() == v1.keys()
    jsonschema.validate(v2, SCHEMA)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       kind=st.sampled_from(["random", "line", "two_cycle"]),
       policy=st.sampled_from(["all-critical", "top-k", "explicit"]))
def test_v2_report_recovers_every_step_of_v1(seed, kind, policy):
    rng = random.Random(seed)
    sys = _sweep_system(kind, rng)
    with tempfile.TemporaryDirectory() as tmp:
        path = str(Path(tmp) / "sys.json")
        save_system(sys, path)
        _check_v2_against_v1(_config(sys, policy, rng, path))


def test_v2_report_writes_a_row_whose_merge_violations_changed(tmp_path):
    # points 11, 15, 21, 22 with e0, e1 -> e3 and e2, e3 -> e0: one period-2
    # component from delta 4 on, with classes {e0, e1} and {e2, e3}; at
    # delta 6 only its merge-law pairs change, as e1 and e2 are 6 apart
    xs = [11, 15, 21, 22]
    pts = [f"e{i}" for i in range(4)]
    metric = {(pts[i], pts[j]): xs[j] - xs[i] for i in range(4) for j in range(i + 1, 4)}
    sys = finite_system(pts, {"e0": "e3", "e1": "e3", "e2": "e0", "e3": "e0"}, metric)
    path = str(tmp_path / "sys.json")
    save_system(sys, path)
    levels = sorted(set(sys.metric.values()))
    config = AnalysisConfig(spec=path, ladder_policy="explicit",
                            ladder=tuple(str(d) for d in levels), horizon=64, eps_depth=2,
                            n_max=2)
    _check_v2_against_v1(config)
    rows = {r["delta"]: r for r in cmd_analyze(config)["cyclic"] if r["component"] == pts}
    assert rows["4"]["class_merge_violations"] == []
    assert rows["6"]["class_merge_violations"] == [["e1", "e2"]]
    assert dict(rows["4"], delta=None, class_merge_violations=None) == dict(
        rows["6"], delta=None, class_merge_violations=None)


def test_v2_report_with_the_classification_delta_below_the_ladder(tmp_path):
    # the off-ladder step is not a ladder step: step 0 is written even where
    # the components at the classification delta are the same
    path = str(tmp_path / "sys.json")
    rng = random.Random(7)
    for _ in range(20):
        sys = _sweep_system("two_cycle", rng)
        crit = critical_deltas(sys)
        if len(crit) > 2:
            save_system(sys, path)
            _check_v2_against_v1(AnalysisConfig(
                spec=path, ladder_policy="top-k", top_k=2, delta=str((crit[-3] + crit[-2]) / 2),
                horizon=64, eps_depth=2, n_max=2))


def test_v2_report_is_sparse_on_a_line_system(tmp_path):
    # 211 ladder values; the chain components change at few of them
    path = tmp_path / "line24.json"
    save_system(line_system(24, 24), path)
    config = AnalysisConfig(spec=str(path))
    _check_v2_against_v1(config)
    v2 = cmd_analyze(config)
    assert len(v2["ladder"]) == 211
    assert len(v2["chain_analyses"]) < 211 // 8
    assert len(report.report_to_json(v2)) * 10 < len(report.report_to_json(report_v1(config)))


def test_shipped_schema_is_a_valid_draft7_schema():
    jsonschema.Draft7Validator.check_schema(SCHEMA)
    assert SCHEMA["properties"]["schema"] == {"const": report.REPORT_SCHEMA_VERSION}


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       policy=st.sampled_from(["all-critical", "top-k", "explicit"]))
def test_analyze_report_of_a_random_finite_system_validates(seed, policy):
    rng = random.Random(seed)
    sys = random_system(rng, max_points=9)
    with tempfile.TemporaryDirectory() as tmp:
        path = str(Path(tmp) / "sys.json")
        save_system(sys, path)
        jsonschema.validate(cmd_analyze(_config(sys, policy, rng, path)), SCHEMA)


@settings(max_examples=30, deadline=None)
@given(g=irreducible_graphs())
def test_analyze_report_of_an_irreducible_graph_validates(g):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "g.json"
        path.write_text(json.dumps(dump_system(g)))
        jsonschema.validate(cmd_analyze(AnalysisConfig(spec=str(path), horizon=64,
                                                       eps_depth=2, n_max=2)), SCHEMA)


# what `chains` writes: one chain entry, the cyclic rows and the basin table,
# each checked against the item schema of its report section
CHAINS_SCHEMA = {
    "type": "object", "required": ["chain", "cyclic", "basins"],
    "properties": {"chain": SCHEMA["properties"]["chain_analyses"]["items"],
                   "cyclic": SCHEMA["properties"]["cyclic"],
                   "basins": SCHEMA["properties"]["basins"]["items"]},
    "definitions": SCHEMA["definitions"],
}


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_chains_output_validates_against_the_item_schemas(seed):
    rng = random.Random(seed)
    sys = random_system(rng, max_points=9)
    crit = critical_deltas(sys)
    delta = rng.choice(crit + [crit[-1] + 1, Fraction(crit[0], 2)])
    with tempfile.TemporaryDirectory() as tmp:
        path, out = Path(tmp) / "sys.json", Path(tmp) / "chains.json"
        save_system(sys, path)
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["chains", str(path), "--delta", str(delta), "--out", str(out)]) == 0
        jsonschema.validate(json.loads(out.read_text()), CHAINS_SCHEMA)
