"""Tests of the benchmark itself: generator, tracer and output checks.

Run from the repository root with ``PYTHONPATH=src python -m pytest chainbench/tests``.
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
sys.path.insert(0, str(BENCH))

import gen  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402

SCHEMA = json.loads(run.SCHEMA_PATH.read_text(encoding="utf-8"))


def _files(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_generator_is_deterministic_for_a_fixed_seed(tmp_path, workload):
    first = gen.generate(workload, 7, tmp_path / "a")
    second = gen.generate(workload, 7, tmp_path / "b")
    other = gen.generate(workload, 8, tmp_path / "c")
    files = _files(tmp_path / "a")
    assert files and files == _files(tmp_path / "b")
    assert files != _files(tmp_path / "c")

    def argvs(inputs, root):
        return [[arg.replace(str(tmp_path / root), "") for arg in argv]
                for _, argv in inputs["ops"]]

    # the resolutions passed on the command line are seeded too
    assert argvs(first, "a") == argvs(second, "b")
    assert [name for name, _ in first["ops"]] == [name for name, _ in other["ops"]]


def test_line_systems_keep_their_shape_across_seeds():
    """Seeds move coordinates only: the ladder length is the same."""
    lengths = {len(gen.critical_values(gen.line_system(random.Random(s), 16, (3, 5))))
               for s in range(5)}
    assert lengths == {1 + 16 * 15 // 2 - 8 * 7 // 2}


def _small_workload(tmp_path: Path) -> run.Workload:
    """One analyze and one chains operation on a 10-point line system."""
    system = gen.line_system(random.Random(3), 10, (1, 3))
    spec = tmp_path / "line10.json"
    spec.write_text(json.dumps(system["spec"]), encoding="utf-8")
    delta = str(gen.coarse_delta(system))
    ops = [("analyze", ["analyze", str(spec), "--out", str(tmp_path / "a.json")]),
           ("chains", ["chains", str(spec), "--delta", delta,
                       "--out", str(tmp_path / "c.json")])]
    inputs = {"ops": ops, "specs": [str(spec)], "systems": {str(spec): system}, "shifts": {}}
    return run.Workload("small", inputs, SCHEMA, None)


def _chainscope_bindings() -> dict[tuple[str, str], object]:
    return {(name, key): value
            for name, module in list(sys.modules.items())
            if name == "chainscope" or name.startswith("chainscope.")
            for key, value in vars(module).items()}


def test_traced_pass_restores_every_binding_and_matches_untraced_bytes(tmp_path):
    import chainscope.cli as cli

    workload = _small_workload(tmp_path)
    before = _chainscope_bindings()
    m = run.Measurement(cli, workload)
    m.one_pass()
    tracer = spans.Tracer()
    tracer.install()
    try:
        m.one_pass(tracer)
    finally:
        tracer.uninstall()
    after = _chainscope_bindings()
    assert before.keys() == after.keys()
    assert all(after[k] is v for k, v in before.items())
    assert not any(getattr(v, "__chainbench_traced__", False) for v in after.values())
    assert m.attempted == 4 and m.failed == 0, workload.problems
    names = {span[3] for span in tracer.spans}
    assert {"cli.main", "chains.build_chain_digraph", "report.cmd_analyze"} <= names


def test_corrupted_or_schema_invalid_output_fails(tmp_path):
    import chainscope.cli as cli

    workload = _small_workload(tmp_path)
    op, argv = workload.ops[0]
    data, error = run.call_cli(cli, argv)
    assert error is None
    assert workload.check(op, argv, data)

    # a later repetition with any one byte changed no longer matches
    for pos in (0, len(data) // 3, len(data) // 2, len(data) - 2):
        bad = bytearray(data)
        bad[pos] = ord("7") if bad[pos] != ord("7") else ord("8")
        assert not workload.check(op, argv, bytes(bad))

    # first executions: a changed answer, a schema violation, broken JSON
    doc = json.loads(data)
    changed = dict(doc, ladder=doc["ladder"][:-1] + ["999/1000003"])
    invalid = dict(doc, schema="chainscope-report-v0")
    for bad in (json.dumps(changed), json.dumps(invalid), data.decode()[:-3]):
        fresh = _small_workload(tmp_path)
        assert not fresh.check(op, argv, bad.encode())
        assert fresh.problems


def test_reference_digest_mismatch_fails(tmp_path):
    import chainscope.cli as cli

    workload = _small_workload(tmp_path)
    op, argv = workload.ops[1]
    data, _ = run.call_cli(cli, argv)
    workload.reference = {op: "0" * 20}
    assert not workload.check(op, argv, data)
    assert "answer digest differs from the reference" in workload.problems[-1]


def test_shift_classify_makes_no_chain_or_cyclic_calls(tmp_path, monkeypatch):
    import chainscope.cli as cli

    monkeypatch.chdir(tmp_path)
    inputs = gen.generate("shift_classify", 0, Path("work"))
    workload = run.Workload("shift_classify", inputs, SCHEMA, None)
    m = run.Measurement(cli, workload)
    tracer = spans.Tracer()
    tracer.install()
    try:
        m.one_pass(tracer)
    finally:
        tracer.uninstall()
    metrics = spans.pass_metrics(tracer, 0)
    assert m.failed == 0, workload.problems
    assert metrics["chains.build_chain_digraph.calls"] == 0
    assert metrics["cyclic.cyclic_classes.calls"] == 0
    assert metrics["sft.vertex_classes.calls"] > 0
    assert metrics["families.window_family_member.calls"] > 0
