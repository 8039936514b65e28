"""Report assembly and sidecar emitters (DOT, CSV, SVG).

A report is a single JSON document; every numeric verdict carries its mode
(exact or windowed) and the parameters it was computed with.  Reports are
byte-deterministic for a fixed config and seed: keys are sorted, rationals
are serialized as "p/q" strings, and no timestamps are embedded.

Along the ladder a report writes only what changes: a chain analysis where
the chain components change and a cyclic row where a component's row does.
Every step can be recovered from the spec the report embeds (README
"Reports").
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Sequence

from . import __version__
from .basins import BasinAssignment, assign_basins, verify_partition_laws
from .chains import (ChainDigraph, _is_recurrent_scc, build_chain_digraph, chain_analysis,
                     critical_deltas)
from .chaos import ClassifyParams, classify_finite_component, classify_sft
from .cyclic import CyclicSweep
from .errors import SpecError
from .families import WindowParams
from .sft import SftGraph, graph_period, is_irreducible, vertex_classes
from .specio import dump_system, load_system
from .systems import FiniteSystem, as_fraction

REPORT_SCHEMA_VERSION = "chainscope-report-v2"


def _frac(x) -> str:
    return str(Fraction(x))


@dataclass(frozen=True)
class AnalysisConfig:
    """Everything cmd_analyze needs; fixed seed implies identical output."""

    spec: str
    ladder_policy: str = "all-critical"  # all-critical | explicit | top-k
    ladder: tuple[str, ...] = ()
    top_k: int = 6
    delta: str | None = None  # classification resolution; default first critical
    n_max: int = 3
    horizon: int = 512
    eps_depth: int = 6
    m_max: int | None = None
    run_req: int | None = None
    theta: str = "1/100"
    budget: int = 10**6
    seed: int = 0
    with_witness: bool = True

    def __post_init__(self):
        if self.n_max < 2:
            raise SpecError("n_max must be at least 2")
        if self.top_k < 1:
            raise SpecError("top_k must be at least 1")
        # rejects the window (run_req, m_max), horizon, eps_depth and budget
        self.classify_params()

    def window_params(self) -> WindowParams:
        return WindowParams(theta=Fraction(self.theta), run_req=self.run_req,
                            m_max=self.m_max)

    def classify_params(self) -> ClassifyParams:
        return ClassifyParams(horizon=self.horizon,
                              eps_depth=self.eps_depth, with_witness=self.with_witness,
                              budget=self.budget, window=self.window_params())

    def echo(self) -> dict:
        return {
            "spec": self.spec, "ladder_policy": self.ladder_policy,
            "ladder": list(self.ladder), "top_k": self.top_k, "delta": self.delta,
            "n_max": self.n_max, "horizon": self.horizon, "eps_depth": self.eps_depth,
            "m_max": self.m_max, "run_req": self.run_req, "theta": self.theta,
            "budget": self.budget, "seed": self.seed, "with_witness": self.with_witness,
        }


def resolve_model(spec: str):
    """Load a model from 'corpus:NAME' or a spec file path."""
    if spec.startswith("corpus:"):
        from .corpus import load_corpus

        return load_corpus(spec.split(":", 1)[1])
    return load_system(spec)


def reject_shift_delta(delta: str | None) -> None:
    """A vertex shift is classified without a resolution, so a given delta is
    an error rather than a value to ignore; a malformed one is named as such."""
    if delta is not None:
        as_fraction(delta)
        raise SpecError(f"delta {delta} given, but a vertex shift takes no resolution")


def _ladder_for(sys: FiniteSystem, config: AnalysisConfig) -> list[Fraction]:
    crit = critical_deltas(sys)
    if config.ladder_policy == "explicit":
        if not config.ladder:
            raise SpecError("explicit ladder policy needs ladder values")
        return sorted({as_fraction(v) for v in config.ladder})
    if config.ladder_policy == "top-k":
        return crit[-config.top_k:]
    if config.ladder_policy == "all-critical":
        return crit
    raise SpecError(f"unknown ladder policy {config.ladder_policy!r}")


def chain_section(dg: ChainDigraph) -> dict:
    ana = chain_analysis(dg)
    return {
        "delta": _frac(dg.delta),
        "edges": {u: list(dg.succ[u]) for u in sorted(dg.succ)},
        "recurrent": sorted(ana.recurrent),
        "components": [sorted(c) for c in ana.components],
        "lyapunov": {u: _frac(v) for u, v in sorted(ana.lyapunov.items())},
        "condensation": {
            "sccs": [list(c) for c in dg.sccs],
            "edges": [[i, j] for i, succs in enumerate(dg.cond_succ) for j in succs],
        },
    }


def cyclic_section(sweep: CyclicSweep, delta: Fraction) -> list[dict]:
    """Cyclic rows of every chain component at one swept resolution; for a
    single digraph dg, pass ``CyclicSweep([dg])`` and ``dg.delta``."""
    return [{
        "delta": _frac(delta),
        "component": sorted(dec.component),
        "period": dec.period,
        "classes": [list(c) for c in dec.classes()],
        "transient_index": dec.transient_index,
        "saturation_failed": dec.saturation_failed,
        "class_merge_violations": [list(p) for p in dec.p2_violations],
    } for dec in sweep.decompositions(delta)]


def _changed(last, here) -> bool:
    """The rule of report v2: a ladder step's entry is written when the
    previous step has none to compare with (``last`` is None) or a different
    one.  Whatever is not written equals the latest entry written below."""
    return last != here


def _changed_cyclic_rows(sweep: CyclicSweep, ladder: Sequence[Fraction]) -> list[dict]:
    """The cyclic rows of the ascending ladder that a component has new at a
    step, or that differ from its row at the previous step in any field but
    ``delta``."""
    rows: list[dict] = []
    last: dict[tuple[str, ...], dict] = {}
    for d in ladder:
        here = {}
        for row in cyclic_section(sweep, d):
            body = dict(row, delta=None)
            key = tuple(row["component"])
            if _changed(last.get(key), body):
                rows.append(row)
            here[key] = body
        last = here
    return rows


def basin_section(ba: BasinAssignment) -> dict:
    laws = verify_partition_laws(ba)
    return {
        "delta": _frac(ba.delta),
        "components": [sorted(c) for c in ba.components],
        "rows": [
            {
                "node": x,
                "component": ba.component_of[x],
                "class": ba.class_of_basin[x][1],
                "settle_time": ba.settle_time[x],
                "omega": sorted(ba.omega[x]),
            }
            for x in sorted(ba.component_of)
        ],
        "partition_laws_ok": laws.ok,
        "violations": list(laws.violations),
    }


def verdict_dict(v) -> dict:
    """JSON form of one family verdict."""
    return {"family": v.family, "member": v.member, "mode": v.mode,
            "certificate": _jsonable(v.certificate)}


def _jsonable(obj):
    if isinstance(obj, Fraction):
        return str(obj)
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    return obj


def chaos_section(report) -> dict:
    per_n = []
    appendix = []
    for tr in report.per_n:
        entry = {
            "n": tr.n,
            "tier": tr.tier,
            "distal_witness": [str(p) for p in tr.distal_witness] if tr.distal_witness else None,
            "distal_delta": _frac(tr.distal_delta) if tr.distal_delta is not None else None,
            "upgrade_audit_ok": tr.upgrade_audit_ok,
            "delta_n_value": _frac(tr.delta_n_value),
            "class_cardinality_ok": tr.class_cardinality_ok,
            "budget_exceeded": tr.budget_exceeded,
            "condition3_agrees": tr.condition3_agrees,
        }
        if tr.condition3 is not None:
            entry["condition3"] = {
                "level": tr.condition3.level,
                "delta_n": _frac(tr.condition3.delta_n),
                "ok": tr.condition3.ok,
                "separation": verdict_dict(tr.condition3.s_verdict),
                "proximity": [[_frac(e), verdict_dict(v)]
                              for e, v in tr.condition3.t_verdicts],
            }
            appendix.append(verdict_dict(tr.condition3.s_verdict))
            appendix.extend(verdict_dict(v) for _, v in tr.condition3.t_verdicts)
        per_n.append(entry)
    return {
        "component": report.component_id,
        "level": report.level,
        "all_classes_singleton": report.all_classes_singleton,
        "entropy": report.entropy,
        "audit_flags": list(report.audit_flags),
        "per_n": per_n,
    }, appendix


def cmd_analyze(config: AnalysisConfig) -> dict:
    """Full pipeline: load, ladder, chain analyses and cyclic rows where the
    ladder changes (``_changed``), basin table, chaos classification, one
    JSON report."""
    model = resolve_model(config.spec)
    report: dict = {
        "schema": REPORT_SCHEMA_VERSION,
        "provenance": {"tool": "chainscope", "version": __version__,
                       "seed": config.seed, "config": config.echo()},
    }
    appendix: list = []
    if isinstance(model, SftGraph):
        reject_shift_delta(config.delta)
        report["system"] = {"kind": "sft", "spec": dump_system(model),
                            "vertices": model.vertex_count,
                            "irreducible": is_irreducible(model)}
        if is_irreducible(model):
            report["system"]["period"] = graph_period(model)
            report["system"]["vertex_classes"] = list(vertex_classes(model))
        chaos, extra = chaos_section(classify_sft(model, config.n_max,
                                                  config.classify_params()))
        report["chaos"] = [chaos]
        appendix.extend(extra)
    else:
        report["system"] = {"kind": "finite", "spec": dump_system(model),
                            "points": len(model.points)}
        ladder = _ladder_for(model, config)
        delta = as_fraction(config.delta) if config.delta is not None else ladder[0]
        report["ladder"] = [_frac(d) for d in ladder]
        report["chain_analyses"] = []
        # one digraph per ladder step, plus the classification resolution when
        # it is off the ladder; the sweep keeps what the later sections read
        on_ladder = set(ladder)
        sweep = CyclicSweep()
        dg = None
        comps = None
        for d in sorted(on_ladder | {delta}):
            step = build_chain_digraph(model, d)
            sweep.add(step)
            if d in on_ladder:
                last, comps = comps, sweep.components(d)
                if _changed(last, comps):
                    report["chain_analyses"].append(chain_section(step))
            if d == delta:
                dg = step
        report["cyclic"] = _changed_cyclic_rows(sweep, ladder)
        decomps = sweep.decompositions(delta)
        report["basins"] = [basin_section(assign_basins(model, dg, decomps))]
        down = ladder[::-1]
        report["proximal"] = []
        for dec in decomps:
            comp = dec.component
            # refine from the coarsest resolution at which this set is a
            # component down the ladder
            coarse = next((dd for dd in down if dd >= delta and comp in sweep.components(dd)),
                          None)
            sub = [dd for dd in down if coarse is not None and dd <= coarse] or [delta]
            pp = sweep.proximal(comp, sub)
            report["proximal"].append({
                "component": sorted(comp),
                "ladder": [_frac(x) for x in pp.ladder],
                "classes": [list(c) for c in pp.classes],
                "split_at": _frac(pp.split_at) if pp.split_at is not None else None,
            })
        report["chaos"] = []
        for dec in decomps:
            chaos, extra = chaos_section(
                classify_finite_component(dec, config.n_max, config.classify_params()))
            report["chaos"].append(chaos)
            appendix.extend(extra)
    report["furstenberg_appendix"] = appendix
    return report


def report_to_json(report: dict) -> str:
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


# -- sidecar emitters ---------------------------------------------------------------

def condensation_dot(dg: ChainDigraph) -> str:
    """Condensation DAG in DOT format; recurrent SCCs are drawn as boxes."""
    lines = ["digraph condensation {"]
    for i, comp in enumerate(dg.sccs):
        label = ",".join(comp)
        shape = "box" if _is_recurrent_scc(dg, comp) else "ellipse"
        lines.append(f'  n{i} [label="{label}" shape={shape}];')
    for i, succs in enumerate(dg.cond_succ):
        for j in succs:
            lines.append(f"  n{i} -> n{j};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def write_csv(path, header: list[str], rows) -> None:
    import csv

    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow(row)


def polyline_svg(series: list[float], *, width: int = 640, height: int = 240,
                 title: str = "") -> str:
    """Minimal SVG polyline plot of one numeric series."""
    if not series:
        raise SpecError("cannot plot an empty series")
    lo = min(series)
    hi = max(series)
    span = (hi - lo) or 1.0
    margin = 10
    w = width - 2 * margin
    h = height - 2 * margin
    denom = max(len(series) - 1, 1)
    pts = " ".join(
        f"{margin + w * i / denom:.2f},{margin + h * (1 - (v - lo) / span):.2f}"
        for i, v in enumerate(series))
    return (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">'
        f'<title>{title}</title>'
        f'<rect x="0" y="0" width="{width}" height="{height}" fill="white" stroke="black"/>'
        f'<polyline points="{pts}" fill="none" stroke="black" stroke-width="1"/>'
        "</svg>\n"
    )


def write_text(path, text: str) -> None:
    Path(path).write_text(text, encoding="utf-8")
