"""The benchmark's output checks, run as a test: one pass of every workload
that ``BENCHMARK.json`` declares, at seeds 0 and 1, passes the schema, oracle
and reference-digest checks of ``chainbench/answers.py``.  A report change
that the benchmark would count as an incorrect output fails here first."""

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "chainbench"))

import gen  # noqa: E402
import run  # noqa: E402

WORKLOADS = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
REFERENCE = json.loads((ROOT / "chainbench" / "reference.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_one_pass_gives_the_reference_answers(workload, seed, tmp_path, monkeypatch):
    import chainscope.cli as cli

    # a relative root, as the benchmark uses, keeps the reports path-free
    monkeypatch.chdir(tmp_path)
    inputs = gen.generate(workload, seed, Path("work"))
    reference = REFERENCE[workload][str(seed)]
    # every operation has a recorded answer digest to meet
    assert {op for op, _ in inputs["ops"]} == reference.keys()
    schema = json.loads(run.SCHEMA_PATH.read_text(encoding="utf-8"))
    bench = run.Workload(workload, inputs, schema, reference)
    m = run.Measurement(cli, bench)
    m.one_pass()
    assert m.attempted == len(reference)
    assert m.failed == 0, bench.problems
