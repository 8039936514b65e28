"""chainscope benchmark: one workload, one seed, one process.

Usage (from the root of a checkout):

    python3 chainbench/run.py --workload finite_ladder --seed 0 --seconds 30 --trace 0

The workload's inputs are generated from the seed (``gen.py``).  The
operations run one after another in this process, a closed loop with one
client, by calling ``chainscope.cli.main(argv)`` with outputs written under
``.chainbench/work``.  Whole passes over the operation list repeat until
``--seconds`` have passed.  Every output is checked (``answers.py``); an
operation fails when it raises or exits non-zero, when its output does not
validate or disagrees with an oracle or the recorded reference, or when its
bytes differ from the first pass.

Times are calibrated seconds.  The machine's speed drifts by up to 2x over
seconds when the host is shared, and no in-run statistic removes a slow
phase that lasts a whole run.  So a fixed pure-Python calibration loop runs
right before and right after every timed interval, and the interval is
reported as ``raw * CALIBRATION_REF_S / calibration``: the time it would
take on a machine where the loop takes ``CALIBRATION_REF_S``.  Raw medians
go to standard error.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes and reports the per-layer metrics of the traced
ones (``spans.py``); it also checks that traced outputs are byte-identical
to untraced ones and writes the spans to ``.chainbench/trace-*.jsonl``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SCHEMA_PATH = SRC / "chainscope" / "report_schema.json"
WORK = Path(".chainbench")  # relative to ROOT, so reports carry no absolute path
SETUP_REPEATS = 5
CALIBRATION_REF_S = 0.02

import answers  # noqa: E402
import gen  # noqa: E402
import spans  # noqa: E402


def calibration() -> float:
    """Seconds taken by a fixed loop of the kind of work chainscope does:
    rational arithmetic and comparisons, small dict stores."""
    start = time.perf_counter()
    total = Fraction(0)
    seen = {}
    for i in range(1, 6000):
        total += Fraction(1, i % 89 + 1)
        seen[i % 101] = total < 3
    return time.perf_counter() - start


def timed(fn):
    """Run ``fn()``; returns (result, raw seconds, calibration factor)."""
    before = calibration()
    start = time.perf_counter()
    try:
        result = fn()
    finally:
        raw = time.perf_counter() - start
        factor = CALIBRATION_REF_S / ((before + calibration()) / 2)
    return result, raw, factor


def _import_program():
    """Import chainscope from this checkout's ``src`` afresh: drop any loaded
    chainscope module first so that each call pays the full import."""
    for name in [n for n in sys.modules if n == "chainscope" or n.startswith("chainscope.")]:
        del sys.modules[name]
    cli = importlib.import_module("chainscope.cli")
    specio = importlib.import_module("chainscope.specio")
    return cli, specio


def measure_setup(specs: list[str], repeats: int) -> tuple[float, float, object]:
    """Median (calibrated, raw) time to import chainscope and load every
    workload input once, and the imported CLI module."""
    def setup():
        cli, specio = _import_program()
        for spec in specs:
            specio.load_system(spec)
        return cli

    cal, raw = [], []
    for _ in range(repeats):
        gc.collect()
        cli, seconds, factor = timed(setup)
        cal.append(seconds * factor)
        raw.append(seconds)
    return statistics.median(cal), statistics.median(raw), cli


class Workload:
    """The operations of one workload and the checks on their outputs."""

    def __init__(self, name: str, inputs: dict, schema: dict,
                 reference: dict[str, str] | None):
        self.name = name
        self.inputs = inputs
        self.ops = self.inputs["ops"]
        self.validators = answers.validators(schema)
        self.reference = reference or {}
        self.first_hash: dict[str, str] = {}
        self.problems: list[str] = []
        self.budget_flags = 0

    def check(self, op: str, argv: list[str], data: bytes) -> bool:
        """True when this execution's output is correct."""
        digest = hashlib.sha256(data).hexdigest()
        if op in self.first_hash:
            if digest != self.first_hash[op]:
                self.problems.append(f"{op}: output bytes differ between repetitions")
                return False
            return True
        kind = argv[0]
        spec = argv[1] if kind != "furstenberg" else None
        problems, doc = answers.check(
            kind, argv, data, self.validators[kind],
            system=self.inputs["systems"].get(spec), shift=self.inputs["shifts"].get(spec),
            reference=self.reference.get(op))
        if problems:
            self.problems.extend(f"{op}: {p}" for p in problems)
            return False
        self.first_hash[op] = digest
        self.budget_flags += answers.budget_flags(kind, doc)
        return True


def call_cli(cli, argv: list[str]) -> tuple[bytes | None, str | None]:
    """Run one CLI operation; returns (output bytes, error)."""
    out = Path(argv[argv.index("--out") + 1])
    out.unlink(missing_ok=True)
    sink = io.StringIO()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code = cli.main(argv)
    except Exception as exc:  # a traceback is a failed operation, not a crash
        return None, f"raised {exc!r}"
    if code != 0:
        return None, f"exit code {code}: {sink.getvalue().strip()[:200]}"
    return out.read_bytes(), None


class Measurement:
    """Passes over the operation list, with per-op times and outcomes."""

    def __init__(self, cli, workload: Workload):
        self.cli = cli
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.report_bytes: list[int] = []
        self.peak_kb: int | None = None  # after the first pass, before any check

    def one_pass(self, tracer: spans.Tracer | None = None) -> tuple[dict, dict]:
        """Run every operation once; returns per-op calibrated and raw
        seconds.  Outputs are checked after the whole pass, so the checker's
        memory never adds to the operations' peak."""
        cal: dict[str, float] = {}
        raw: dict[str, float] = {}
        results = []
        for op, argv in self.workload.ops:
            gc.collect()
            op_id = self.attempted + len(results)
            if tracer is None:
                (data, error), seconds, factor = timed(lambda: call_cli(self.cli, argv))
            else:
                (data, error), seconds, factor = timed(
                    lambda: tracer.run_op(op_id, call_cli, self.cli, argv))
                tracer.factors[op_id] = factor
            cal[op] = seconds * factor
            raw[op] = seconds
            results.append((op, argv, data, error))
        if self.peak_kb is None:
            self.peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        written = 0
        for op, argv, data, error in results:
            self.attempted += 1
            if error is not None:
                self.workload.problems.append(f"{op}: {error}")
                self.failed += 1
                continue
            if not self.workload.check(op, argv, data):
                self.failed += 1
            written += len(data)
        self.report_bytes.append(written)
        return cal, raw


def _medians(samples: list[dict[str, float]]) -> dict[str, float]:
    return {op: statistics.median(s[op] for s in samples) for op in samples[0]}


def end_to_end(cli, workload: Workload, seconds: float,
               setup: tuple[float, float]) -> tuple[dict, Measurement]:
    m = Measurement(cli, workload)
    cal, raw = [], []
    start = time.perf_counter()
    while not cal or time.perf_counter() - start < seconds:
        c, r = m.one_pass()
        cal.append(c)
        raw.append(r)
    per_op = _medians(cal)
    metrics = {
        "wall_s": (sum(per_op.values()), "s"),
        "op_max_s": (max(per_op.values()), "s"),
        "setup_s": (setup[0], "s"),
        "peak_rss_mb": (m.peak_kb / 1024, "MB"),
        "report_bytes": (statistics.median(m.report_bytes), "bytes"),
        "ok_ratio": ((m.attempted - m.failed) / m.attempted, "ok/attempted"),
    }
    raw_ops = _medians(raw)
    print(f"{workload.name}: {len(cal)} passes; raw wall_s {sum(raw_ops.values()):.4f}, "
          f"raw setup_s {setup[1]:.4f}; per-op calibrated medians "
          + json.dumps({k: round(v, 4) for k, v in per_op.items()}), file=sys.stderr)
    return metrics, m


def traced(cli, workload: Workload, seconds: float, trace_file: Path) -> tuple[dict, Measurement]:
    """Alternate untraced and traced passes; per-layer metrics of the traced
    ones plus the tracing overhead on the pass wall time."""
    m = Measurement(cli, workload)
    tracer = spans.Tracer()
    plain: list[float] = []
    with_trace: list[float] = []
    per_pass: list[dict[str, float]] = []
    t0 = time.perf_counter()
    while not with_trace or time.perf_counter() - t0 < seconds:
        cal, _ = m.one_pass()
        plain.append(sum(cal.values()))
        first = len(tracer.spans)
        tracer.reset_counts()
        tracer.install()
        try:
            cal, _ = m.one_pass(tracer)
        finally:
            tracer.uninstall()
        with_trace.append(sum(cal.values()))
        per_pass.append(spans.pass_metrics(tracer, first))
    tracer.write_jsonl(trace_file, t0)
    print(f"{workload.name}: untraced passes " + " ".join(f"{w:.3f}" for w in plain)
          + "; traced passes " + " ".join(f"{w:.3f}" for w in with_trace), file=sys.stderr)
    metrics = {}
    for key, value in spans.median_metrics(per_pass).items():
        unit = ("s" if key.endswith(".s") else
                "ratio" if key.endswith("unique_ratio") else "count")
        metrics[key] = (value, unit)
    metrics["chaos.budget_exceeded"] = (workload.budget_flags, "count")
    metrics["trace.overhead_s"] = (statistics.median(with_trace) - statistics.median(plain), "s")
    return metrics, m


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=gen.WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not SCHEMA_PATH.is_file():
        print(f"error: no chainscope sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.chdir(ROOT)
    work = WORK / "work"
    shutil.rmtree(work, ignore_errors=True)
    schema = json.loads(SCHEMA_PATH.read_text(encoding="utf-8"))
    reference = json.loads((HERE / "reference.json").read_text(encoding="utf-8"))
    workload = Workload(args.workload, gen.generate(args.workload, args.seed, work), schema,
                        reference.get(args.workload, {}).get(str(args.seed)))

    setup_cal, setup_raw, cli = measure_setup(workload.inputs["specs"], SETUP_REPEATS)
    if not Path(cli.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"error: chainscope was imported from {cli.__file__}", file=sys.stderr)
        return 2
    if args.trace:
        trace_file = WORK / f"trace-{args.workload}-seed{args.seed}.jsonl"
        metrics, m = traced(cli, workload, args.seconds, trace_file)
    else:
        metrics, m = end_to_end(cli, workload, args.seconds, (setup_cal, setup_raw))
    shutil.rmtree(work, ignore_errors=True)

    for problem in dict.fromkeys(workload.problems):
        print(f"FAILED {problem}", file=sys.stderr)
    for key, (value, unit) in metrics.items():
        print(f"{args.workload:15s} {key:42s} {value:14.6f} {unit}", file=sys.stderr)
    result = {
        "correct": m.failed == 0,
        "attempted": m.attempted,
        "failed": m.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
