"""Outside-in tracing of chainscope's layers.

The program has no tracing of its own, so the benchmark wraps the function
objects of each module's public entry points and re-binds every name that
refers to them in every loaded ``chainscope`` module (``report.py`` and
``cli.py`` use ``from .x import f``, so patching the defining module alone
would miss most calls).  ``Tracer.uninstall`` puts every original binding
back; no file of the program changes.

Each call records a span (id, parent span id, operation id, name, start,
end).  Spans stay in memory and are written as JSONL at the end.  A span's
self time is its duration minus the time covered by its child spans.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
from fractions import Fraction
from time import perf_counter

# Entry points timed per layer.  Hot leaf helpers (metric lookups, point
# shifts, rational parsing) are left unwrapped on purpose: their cost lands
# in the self time of the caller instead of being inflated by the wrapper.
TRACED = {
    "specio": ("load_system",),
    "chains": ("build_chain_digraph", "critical_deltas", "chain_analysis",
               "chain_components"),
    "cyclic": ("cyclic_classes", "transient_index", "component_period",
               "proximal_partition"),
    "basins": ("assign_basins", "verify_partition_laws"),
    "chaos": ("classify_finite_component", "compute_delta_n", "classify_sft",
              "sft_delta_n", "construct_witness", "check_condition3"),
    "sft": ("sft_entropy", "vertex_classes", "graph_period"),
    "families": ("window_family_member", "inclusion_audit"),
    "shadowing": ("validate_pseudo_orbit", "sft_shadow", "find_shadowing_point"),
    "report": ("chain_section", "cyclic_section", "basin_section", "chaos_section",
               "cmd_analyze", "report_to_json", "write_text"),
}

OP_SPAN = "cli.main"


def _digraph_key(args, kwargs):
    return id(args[0]), Fraction(args[1])


def _decomposition_key(args, kwargs):
    dg = args[0]
    return id(dg.system), dg.delta, frozenset(args[1])


def _graph_key(args, kwargs):
    return id(args[0])


# distinct-argument keys behind the unique_ratio counters; keys are scoped
# to one operation, inside which every model object stays alive
UNIQUE_KEYS = {
    "chains.build_chain_digraph": _digraph_key,
    "cyclic.cyclic_classes": _decomposition_key,
    "sft.vertex_classes": _graph_key,
}


def _edges(result) -> int:
    return sum(len(s) for s in result.succ.values())


def _metric_triples(result) -> int:
    points = getattr(result, "points", None)
    return len(points) ** 3 if points is not None else 0


# counters summed over return values: name of the traced function -> counter
RESULT_COUNTERS = {
    "chains.build_chain_digraph": ("chains.edges", _edges),
    "specio.load_system": ("systems.metric_triples", _metric_triples),
}


class Tracer:
    """Records spans and counters while installed."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [id, parent, op, name, start, end]
        self.counters: dict[str, int] = {}
        self.keys: dict[str, set] = {}
        self.factors: dict[int, float] = {}  # op id -> calibration factor
        self._stack: list[int] = []
        self._op: int | None = None
        self._bindings: list[tuple[object, str, object]] = []

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        """Wrap every traced function and re-bind each name bound to it."""
        if self._bindings:
            raise RuntimeError("tracer already installed")
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "chainscope" or name.startswith("chainscope."))]
        for short, names in TRACED.items():
            home = sys.modules[f"chainscope.{short}"]
            for attr in names:
                original = getattr(home, attr)
                wrapper = self._wrap(f"{short}.{attr}", original)
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, key, wrapper)
                            self._bindings.append((module, key, original))

    def uninstall(self) -> None:
        for module, key, original in reversed(self._bindings):
            setattr(module, key, original)
        self._bindings.clear()

    def _wrap(self, name: str, fn):
        tracer = self
        key_of = UNIQUE_KEYS.get(name)
        counter = RESULT_COUNTERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(rec)
            if key_of is not None:
                tracer.keys.setdefault(name, set()).add((rec[2], key_of(args, kwargs)))
            if counter is not None:
                cname, count = counter
                tracer.counters[cname] = tracer.counters.get(cname, 0) + count(result)
            return result

        wrapper.__chainbench_traced__ = True
        return wrapper

    # -- spans ---------------------------------------------------------------

    def open(self, name: str) -> list:
        rec = [len(self.spans), self._stack[-1] if self._stack else None,
               self._op, name, perf_counter(), None]
        self.spans.append(rec)
        self._stack.append(rec[0])
        return rec

    def close(self, rec: list) -> None:
        rec[5] = perf_counter()
        self._stack.pop()

    def run_op(self, op_id: int, fn, *args):
        """Call ``fn(*args)`` as operation ``op_id`` under a root span."""
        self._op = op_id
        rec = self.open(OP_SPAN)
        try:
            return fn(*args)
        finally:
            self.close(rec)
            self._op = None

    def reset_counts(self) -> None:
        self.counters = {}
        self.keys = {}

    def write_jsonl(self, path, t0: float) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, op, name, start, end in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "op": op, "name": name,
                                     "start": round(start - t0, 9),
                                     "end": round(end - t0, 9)}) + "\n")


def self_times(spans, first: int = 0,
               factors: dict[int, float] | None = None) -> tuple[dict[str, float], dict[str, int]]:
    """Per-name self time and call count over ``spans[first:]``; each
    span's self time is scaled by the calibration factor of its operation."""
    child: dict[int, float] = {}
    for sid, parent, _op, _name, start, end in spans[first:]:
        if parent is not None:
            child[parent] = child.get(parent, 0.0) + (end - start)
    self_s: dict[str, float] = {}
    calls: dict[str, int] = {}
    for sid, _parent, op, name, start, end in spans[first:]:
        scale = factors.get(op, 1.0) if factors else 1.0
        own = (end - start - child.get(sid, 0.0)) * scale
        self_s[name] = self_s.get(name, 0.0) + own
        calls[name] = calls.get(name, 0) + 1
    return self_s, calls


# functions whose self time (.s) and call count (.calls) a traced run reports
TIMED = (
    "specio.load_system", "chains.build_chain_digraph", "chains.critical_deltas",
    "chains.chain_analysis", "cyclic.cyclic_classes", "cyclic.transient_index",
    "cyclic.proximal_partition", "basins.assign_basins", "basins.verify_partition_laws",
    "chaos.classify_finite_component", "chaos.compute_delta_n", "chaos.classify_sft",
    "chaos.sft_delta_n", "chaos.construct_witness", "chaos.check_condition3",
    "sft.sft_entropy", "families.window_family_member", "families.inclusion_audit",
    "shadowing.validate_pseudo_orbit", "shadowing.sft_shadow",
    "shadowing.find_shadowing_point", "report.chain_section", "report.cyclic_section",
    "report.basin_section", "report.chaos_section", "report.cmd_analyze",
    "report.report_to_json", "report.write_text", OP_SPAN,
)
COUNTED = (
    "specio.load_system", "chains.build_chain_digraph", "chains.chain_components",
    "cyclic.cyclic_classes", "cyclic.transient_index", "cyclic.component_period",
    "sft.vertex_classes", "sft.graph_period", "families.window_family_member",
)
LAYERS = ("cli",) + tuple(TRACED)


def pass_metrics(tracer: Tracer, first_span: int) -> dict[str, float]:
    """Per-layer numbers of one traced pass (spans from ``first_span`` on,
    counters since the last ``reset_counts``)."""
    self_s, calls = self_times(tracer.spans, first_span, tracer.factors)
    out: dict[str, float] = {}
    for name in TIMED:
        out[f"{name}.s"] = self_s.get(name, 0.0)
    for name in COUNTED:
        out[f"{name}.calls"] = calls.get(name, 0)
    for name in UNIQUE_KEYS:
        n = calls.get(name, 0)
        out[f"{name}.unique_ratio"] = len(tracer.keys.get(name, ())) / n if n else 0.0
    for cname, _ in RESULT_COUNTERS.values():
        out[cname] = tracer.counters.get(cname, 0)
    for layer in LAYERS:
        out[f"layer.{layer}.s"] = sum(v for k, v in self_s.items()
                                      if k.split(".", 1)[0] == layer)
    return out


def median_metrics(per_pass: list[dict[str, float]]) -> dict[str, float]:
    return {k: statistics.median(p[k] for p in per_pass) for k in per_pass[0]}
