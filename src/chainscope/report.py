"""Report assembly and sidecar emitters (DOT, CSV, SVG).

A report is a single JSON document; every numeric verdict carries its mode
(exact or windowed) and the parameters it was computed with.  Reports are
byte-deterministic for a fixed config: keys are sorted, rationals are
serialized as "p/q" strings, and no timestamps are embedded.  The config
echo in ``provenance`` holds only the settings the run read.

Along the ladder a report writes only what changes: a chain analysis where
the chain components change and a cyclic row where a component's row does.
A chain analysis holds neither the step digraph nor the recurrent set: the
spec the report embeds gives the one, its components the other, and every
step can be recovered from them (README "Reports").
"""

from __future__ import annotations

import json
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import TYPE_CHECKING, Sequence

from . import __version__
from .basins import BasinAssignment, assign_basins
from .chains import ChainDigraph, chain_analysis, chain_recurrent_set, critical_ranks
from .chaos import ClassifyParams, classify_finite_component, classify_sft
from .cyclic import LadderWalk
from .errors import SpecError
from .families import WindowParams
from .sft import SftGraph, graph_period, vertex_classes
from .specio import dump_system, load_system
from .systems import FiniteSystem, as_fraction

if TYPE_CHECKING:
    from .cyclic import CyclicDecomposition

REPORT_SCHEMA_VERSION = "chainscope-report-v4"


def _frac(x) -> str:
    return str(x if type(x) is Fraction else Fraction(x))


@dataclass(frozen=True)
class AnalysisConfig:
    """Everything cmd_analyze needs; a fixed config gives identical output."""

    spec: str
    ladder_policy: str = "all-critical"  # all-critical | explicit | top-k
    ladder: tuple[str, ...] = ()
    top_k: int = 6
    delta: str | None = None  # classification resolution; default the first ladder value
    n_max: int = 3
    horizon: int = 512
    eps_depth: int = 6
    m_max: int | None = None
    budget: int = 10**6
    with_witness: bool = True

    def __post_init__(self):
        if self.n_max < 2:
            raise SpecError("n_max must be at least 2")
        if self.top_k < 1:
            raise SpecError("top_k must be at least 1")
        # a setting the policy never reads is refused rather than ignored
        if self.ladder and self.ladder_policy != "explicit":
            raise SpecError("ladder applies only to the explicit ladder policy")
        if self.top_k != AnalysisConfig.top_k and self.ladder_policy != "top-k":
            raise SpecError("top_k applies only to the top-k ladder policy")
        # rejects the window's m_max, horizon, eps_depth and budget
        self.classify_params()

    def classify_params(self) -> ClassifyParams:
        return ClassifyParams(horizon=self.horizon,
                              eps_depth=self.eps_depth, with_witness=self.with_witness,
                              budget=self.budget, window=WindowParams(m_max=self.m_max))

    def echo(self, kind: str) -> dict:
        """The settings a run on a model of this kind reads: a finite system
        its ladder and resolution, a vertex shift its chaos search window."""
        out = {"spec": self.spec, "n_max": self.n_max, "budget": self.budget}
        if kind == "sft":
            return dict(out, horizon=self.horizon, eps_depth=self.eps_depth,
                        with_witness=self.with_witness, m_max=self.m_max)
        out.update(ladder_policy=self.ladder_policy, delta=self.delta)
        if self.ladder_policy == "explicit":
            out["ladder"] = list(self.ladder)
        if self.ladder_policy == "top-k":
            out["top_k"] = self.top_k
        return out


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
    if config.ladder_policy == "explicit":
        if not config.ladder:
            raise SpecError("explicit ladder policy needs ladder values")
        return sorted({as_fraction(v) for v in config.ladder})
    if config.ladder_policy not in ("top-k", "all-critical"):
        raise SpecError(f"unknown ladder policy {config.ladder_policy!r}")
    crit = critical_ranks(sys)[-config.top_k if config.ladder_policy == "top-k" else 0:]
    return list(map(sys.ranks.level, crit))


def chain_section(dg: ChainDigraph) -> dict:
    ana = chain_analysis(dg)
    return {
        "delta": _frac(dg.delta),
        "components": [sorted(c) for c in ana.components],
        "lyapunov": {u: _frac(v) for u, v in sorted(ana.lyapunov.items())},
        "condensation": {
            "sccs": [list(c) for c in dg.sccs],
            "edges": [[i, j] for i, succs in enumerate(dg.cond_succ) for j in succs],
        },
    }


def step_section(dg: ChainDigraph) -> dict:
    """``chain_section`` with the step digraph and the recurrent set, as
    ``chains --delta`` writes it: its output holds no spec to read them from."""
    return dict(chain_section(dg), edges={u: list(dg.succ[u]) for u in sorted(dg.succ)},
                recurrent=sorted(chain_recurrent_set(dg)))


def _cyclic_row(dec: CyclicDecomposition) -> dict:
    return {
        "delta": _frac(dec.delta),
        "component": sorted(dec.component),
        "period": dec.period,
        "classes": [list(c) for c in dec.classes()],
        "transient_index": dec.transient_index,
        "class_merge_violations": [list(p) for p in dec.p2_violations],
    }


def cyclic_section(walk: LadderWalk, rungs: Sequence[int]) -> list[dict]:
    """The cyclic rows of the ascending walk ``rungs`` that a component has
    new at a rung, or that differ from its row at the rung before in any
    field but ``delta`` (``LadderWalk.changed_rows``).  At a one-rung walk
    every row is new: for a single resolution, pass ``LadderWalk(sys, [d])``
    and ``[0]``.  A row is built only when written.
    """
    return [_cyclic_row(dec) for dec in walk.changed_rows(rungs)]


def basin_section(ba: BasinAssignment) -> dict:
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
    }


def verdict_dict(v) -> dict:
    """JSON form of one family verdict."""
    return {"family": v.family, "member": v.member, "mode": v.mode,
            "certificate": v.certificate}


def chaos_section(report) -> dict:
    per_n = []
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
        per_n.append(entry)
    return {
        "component": report.component_id,
        "level": report.level,
        "all_classes_singleton": report.all_classes_singleton,
        "entropy": report.entropy,
        "audit_flags": list(report.audit_flags),
        "per_n": per_n,
    }


def cmd_analyze(config: AnalysisConfig, model=None, draw=None) -> dict:
    """Full pipeline: load, ladder, chain analyses and cyclic rows where the
    ladder changes, basin table, chaos classification, one
    JSON report.

    ``model``, when given, is the model of ``config.spec``, already loaded.
    ``draw``, when given, receives the chain digraph of a finite system at
    the classification resolution, the walk's own step there."""
    if model is None:
        model = resolve_model(config.spec)
    kind = "sft" if isinstance(model, SftGraph) else "finite"
    report: dict = {
        "schema": REPORT_SCHEMA_VERSION,
        "provenance": {"tool": "chainscope", "version": __version__,
                       "config": config.echo(kind)},
    }
    if kind == "sft":
        reject_shift_delta(config.delta)
        # a ladder or a top_k needs its own policy, so this refuses all three
        if config.ladder_policy != AnalysisConfig.ladder_policy:
            raise SpecError(f"ladder policy {config.ladder_policy} given, but a vertex "
                            "shift has no resolution ladder")
        # classified first: a reducible graph is refused there, before its period
        chaos = chaos_section(classify_sft(model, config.n_max, config.classify_params()))
        report["system"] = {"kind": "sft", "spec": dump_system(model),
                            "vertices": model.vertex_count, "period": graph_period(model),
                            "vertex_classes": list(vertex_classes(model))}
        report["chaos"] = [chaos]
    else:
        report["system"] = {"kind": "finite", "spec": dump_system(model),
                            "points": len(model.points)}
        ladder = _ladder_for(model, config)
        delta = as_fraction(config.delta) if config.delta is not None else ladder[0]
        report["ladder"] = [_frac(d) for d in ladder]
        # one walk over the ladder and the classification resolution, which
        # is walk rung ``at``: inserted there when it is off the ladder, so
        # ladder[i] is walk rung rungs[i]
        at = bisect_left(ladder, delta)
        on = ladder[at:at + 1] == [delta]
        walk = LadderWalk(model, ladder if on else [*ladder[:at], delta, *ladder[at:]])
        rungs = [i + (not on and i >= at) for i in range(len(ladder))]
        written = {rungs[i] for i in walk.component_changes(rungs)}
        report["chain_analyses"] = []
        for j, dg in walk.digraphs(written | ({at} if draw is not None else set())):
            if j in written:
                report["chain_analyses"].append(chain_section(dg))
            if j == at and draw is not None:
                draw(dg)
        report["cyclic"] = cyclic_section(walk, rungs)
        decomps = walk.decompositions(at)
        report["basins"] = [basin_section(assign_basins(model, decomps))]
        report["proximal"] = []
        for dec in decomps:
            # refine from the coarsest ladder resolution at or above delta at
            # which this set is a component, down the ladder: its rungs form
            # an interval, so that is the last ladder rung within its span
            top = bisect_right(rungs, walk.span(dec.component)[1]) - 1
            pp = walk.proximal(dec.component, rungs[top::-1] if top >= at else [at])
            report["proximal"].append({
                "component": sorted(dec.component),
                "ladder": [_frac(x) for x in pp.ladder],
                "classes": [list(c) for c in pp.classes],
                "split_at": _frac(pp.split_at) if pp.split_at is not None else None,
            })
        params = config.classify_params()
        report["chaos"] = [chaos_section(classify_finite_component(dec, config.n_max, params))
                           for dec in decomps]
    # the appendix repeats the family verdicts of every condition-3 entry written
    appendix = report["furstenberg_appendix"] = []
    for entry in (e for chaos in report["chaos"] for e in chaos["per_n"]):
        if "condition3" in entry:
            appendix.append(entry["condition3"]["separation"])
            appendix.extend(v for _, v in entry["condition3"]["proximity"])
    return report


def report_to_json(report: dict) -> str:
    """The bytes of ``json.dumps(report, indent=2, sort_keys=True)`` and a
    newline.  CPython uses its C encoder only without ``indent``, so this
    writer lays out the indentation itself and leaves strings to the C
    string encoder."""
    return _encode(report, "\n") + "\n"


def _encode(o, newline: str) -> str:
    """JSON text of ``o`` whose closing bracket follows ``newline``, the line
    break and indent of the line ``o`` starts on."""
    if type(o) is str:
        return encode_basestring_ascii(o)
    if type(o) is int:  # not bool, which json writes as true/false
        return int.__repr__(o)
    if isinstance(o, dict):
        if not o:
            return "{}"
        inner = newline + "  "
        # sorted on the original keys, before they become strings, as sort_keys
        return "{" + inner + ("," + inner).join(
            [_encode_key(k) + ": " + _encode(v, inner) for k, v in sorted(o.items())]
        ) + newline + "}"
    if isinstance(o, (list, tuple)):
        if not o:
            return "[]"
        inner = newline + "  "
        try:
            body = ("," + inner).join(map(encode_basestring_ascii, o))
        except TypeError:  # not a list of strings: of ints (no bool), or mixed
            body = ("," + inner).join(map(int.__repr__, o) if set(map(type, o)) == {int}
                                      else [_encode(v, inner) for v in o])
        return "[" + inner + body + newline + "]"
    return json.dumps(o)


def _encode_key(k) -> str:
    if isinstance(k, str):
        return encode_basestring_ascii(k)
    if k is None or isinstance(k, (int, float)):
        return '"' + json.dumps(k) + '"'
    raise TypeError(f"keys must be str, int, float, bool or None, not {type(k).__name__}")


# -- sidecar emitters ---------------------------------------------------------------

def condensation_dot(dg: ChainDigraph) -> str:
    """Condensation DAG in DOT format; recurrent SCCs are drawn as boxes."""
    lines = ["digraph condensation {"]
    recurrent = chain_recurrent_set(dg)
    for i, comp in enumerate(dg.sccs):
        label = ",".join(comp)
        shape = "box" if comp[0] in recurrent else "ellipse"
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


def polyline_svg(series: list[float], *, title: str = "") -> str:
    """Minimal 640x240 SVG polyline plot of one numeric series."""
    if not series:
        raise SpecError("cannot plot an empty series")
    width, height = 640, 240
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
