"""Command-line surface.

Subcommands: analyze, chains, classify-chaos, furstenberg, shadow, corpus.
Exit codes: 0 success, 2 validation error, 3 budget exceeded, 4 internal
invariant failure.  The CHAINSCOPE_BUDGET environment variable overrides the
default enumeration budget.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys
from fractions import Fraction

from .basins import assign_basins
from .chains import ChainDigraph
from .chaos import (ClassifyParams, ComponentChaosReport, classify_finite_component,
                    classify_sft, construct_witness, profile_extremes)
from .cyclic import LadderWalk
from .errors import BudgetExceeded, ChainscopeError, InternalError, ValidationError
from .families import (EventuallyPeriodicSet, WindowParams, inclusion_audit,
                       rle_to_window, rotation_time_set)
from .report import (AnalysisConfig, basin_section, chaos_section, cmd_analyze,
                     condensation_dot, cyclic_section, polyline_svg, reject_shift_delta,
                     report_to_json, resolve_model, step_section, verdict_dict,
                     write_csv, write_text)
from .sft import SftGraph, dyadic, dyadic_depth
from .shadowing import (find_shadowing_point, limit_shadowed, sft_shadow,
                        validate_pseudo_orbit)
from .specio import load_pseudo_orbit, read_input
from .systems import FiniteSystem, as_fraction


def _number(parse, text: str, what: str):
    """``parse(text)``, with a malformed value reported as a validation error."""
    try:
        return parse(text)
    except ValueError as exc:
        raise ValidationError(f"bad {what}: {text!r}") from exc


def _budget(given: int | None) -> int:
    """--budget when given, else CHAINSCOPE_BUDGET, else 10**6."""
    if given is not None:
        return given
    env = os.environ.get("CHAINSCOPE_BUDGET")
    return _number(int, env, "CHAINSCOPE_BUDGET") if env else 10**6


def _one_step(model: FiniteSystem, delta: str | None) -> tuple[ChainDigraph, LadderWalk]:
    """The chain digraph at --delta (default 0, the least critical value, as
    d(f(u), f(u)) = 0 is a step value) and its one-rung walk, whose
    decompositions ``analyze`` reads there too."""
    walk = LadderWalk(model, [as_fraction(delta) if delta is not None else Fraction(0)])
    ((_, dg),) = walk.digraphs([0])
    return dg, walk


def _print_json(obj, out: str | None) -> None:
    text = report_to_json(obj)
    if out:
        write_text(out, text)
        print(f"wrote {out}")
    else:
        sys.stdout.write(text)


def _add_classification(parser) -> None:
    """The settings of analyze and classify-chaos, with one set of defaults."""
    parser.add_argument("--delta", default=None)
    parser.add_argument("--n-max", type=int, default=3)
    parser.add_argument("--horizon", type=int, default=512)
    parser.add_argument("--eps-depth", type=int, default=6)
    parser.add_argument("--no-witness", action="store_true")
    parser.add_argument("--budget", type=int, default=None)


def _cmd_analyze(args) -> int:
    # a ladder setting of another policy is refused, not ignored
    if args.ladder is not None and args.ladder_policy != "explicit":
        raise ValidationError("--ladder applies only to --ladder-policy explicit")
    if args.top_k is not None and args.ladder_policy != "top-k":
        raise ValidationError("--top-k applies only to --ladder-policy top-k")
    config = AnalysisConfig(
        spec=args.spec,
        ladder_policy=args.ladder_policy,
        ladder=tuple(args.ladder.split(",")) if args.ladder else (),
        top_k=AnalysisConfig.top_k if args.top_k is None else args.top_k,
        delta=args.delta,
        n_max=args.n_max,
        horizon=args.horizon,
        eps_depth=args.eps_depth,
        m_max=args.m_max,
        budget=_budget(args.budget),
        with_witness=not args.no_witness,
    )
    # a sidecar of something this model kind lacks is refused, not skipped
    model = resolve_model(args.spec) if args.emit_dot else None
    if isinstance(model, SftGraph):
        raise ValidationError("--emit-dot applies only to finite systems")
    drawn: list[ChainDigraph] = []  # the resolution the report classifies at
    report = cmd_analyze(config, model, drawn.append if model is not None else None)
    _print_json(report, args.out)
    if drawn:
        write_text(args.emit_dot, condensation_dot(drawn[0]))
        print(f"wrote {args.emit_dot}")
    return 0


def _cmd_chains(args) -> int:
    model = resolve_model(args.spec)
    if not isinstance(model, FiniteSystem):
        raise ValidationError("chain analysis applies to finite systems")
    dg, walk = _one_step(model, args.delta)
    ba = assign_basins(model, walk.decompositions(0))
    out = {"chain": step_section(dg), "cyclic": cyclic_section(walk, [0]),
           "basins": basin_section(ba)}
    _print_json(out, args.out)
    if args.emit_dot:
        write_text(args.emit_dot, condensation_dot(dg))
        print(f"wrote {args.emit_dot}")
    if args.emit_csv:
        rows = [[x, ba.component_of[x], ba.class_of_basin[x][1]]
                for x in sorted(ba.component_of)]
        write_csv(args.emit_csv, ["node", "component", "class"], rows)
        print(f"wrote {args.emit_csv}")
    return 0


def _cmd_classify(args) -> int:
    model = resolve_model(args.spec)
    params = ClassifyParams(horizon=args.horizon, eps_depth=args.eps_depth,
                            with_witness=not args.no_witness, budget=_budget(args.budget))
    if isinstance(model, SftGraph):
        reject_shift_delta(args.delta)
        classified = classify_sft(model, args.n_max, params)
        sections = [chaos_section(classified)]
        if args.emit_csv or args.emit_svg:
            _emit_witness_traces(model, classified, args)
    else:
        if args.emit_csv or args.emit_svg:
            raise ValidationError("--emit-csv and --emit-svg apply only to vertex shifts")
        _, walk = _one_step(model, args.delta)
        sections = [chaos_section(classify_finite_component(dec, args.n_max, params))
                    for dec in walk.decompositions(0)]
    _print_json({"chaos": sections}, args.out)
    return 0


def _emit_witness_traces(model: SftGraph, classified: ComponentChaosReport, args) -> None:
    """Per-time min/max pairwise distances of the DC1 witness pair built
    from the classification's distal 2-tuple, the raw data behind its
    separation and proximity windows.  A shift with no distal pair has no
    such witness, which is refused before any file is written."""
    pairs = classified.per_n[0]
    if pairs.budget_exceeded:
        raise BudgetExceeded("the distal 2-tuple search behind the witness trace "
                             "ran out of budget")
    if pairs.distal_witness is None:
        raise ValidationError(f"--emit-csv and --emit-svg trace a DC1 witness pair, but this "
                              f"shift has no distal 2-tuple (level {classified.level})")
    # the tier's delta_n is 2^-(t + 1) for the window t its tuple was found at
    t = dyadic_depth(pairs.distal_delta) - 1
    built = construct_witness(model, 2, "DC1", args.horizon, distal=(pairs.distal_witness, t))
    mins, maxs = profile_extremes(model, built.points, args.horizon)
    if args.emit_csv:
        rows = [[i, str(mins[i]), str(maxs[i])] for i in range(args.horizon)]
        write_csv(args.emit_csv, ["i", "min_pairwise", "max_pairwise"], rows)
        print(f"wrote {args.emit_csv}")
    if args.emit_svg:
        write_text(args.emit_svg,
                   polyline_svg([float(x) for x in mins],
                                title="witness min pairwise distance"))
        print(f"wrote {args.emit_svg}")


def _parse_kv(tokens, allowed) -> dict:
    out = {}
    for token in tokens:
        if "=" not in token:
            raise ValidationError(f"expected key=value, got {token!r}")
        k, v = token.split("=", 1)
        if k not in allowed:
            raise ValidationError(f"unknown key {k!r}; allowed: {sorted(allowed)}")
        out[k] = v
    return out


def _cmd_furstenberg(args) -> int:
    params = WindowParams(m_max=args.m_max, run_req=args.run_req)
    if args.eventually_periodic:
        kv = _parse_kv(args.eventually_periodic, {"pre", "pat"})
        pre = tuple(_number(int, b, "pre bit") for b in kv.get("pre", ""))
        pat = tuple(_number(int, b, "pat bit") for b in kv.get("pat", ""))
        subject = EventuallyPeriodicSet(pre, pat)
    elif args.rotation:
        kv = _parse_kv(args.rotation, {"alpha", "H"})
        alpha_text = kv.get("alpha", "golden")
        golden = (math.sqrt(5) - 1) / 2
        alpha = golden if alpha_text == "golden" else _number(float, alpha_text, "alpha")
        subject = rotation_time_set(alpha, _number(int, kv.get("H", "10000"), "H"))
    elif args.set_file:
        subject = rle_to_window(read_input(args.set_file).strip())
    else:
        raise ValidationError(
            "choose one of --eventually-periodic, --rotation, --set-file")
    audit = inclusion_audit(subject, params)
    out = {
        "verdicts": [verdict_dict(v) for v in audit.verdicts],
        "monotone": audit.monotone,
        "warnings": list(audit.warnings),
    }
    _print_json(out, args.out)
    return 0


def _cmd_shadow(args) -> int:
    model = resolve_model(args.spec)
    if args.depth is not None and args.delta is not None and not isinstance(model, SftGraph):
        raise ValidationError("--depth only sets the default --delta on a finite system; "
                              "give one of them")
    depth = 3 if args.depth is None else args.depth
    states = load_pseudo_orbit(args.orbit, model)
    if depth < 1:
        raise ValidationError("agreement depth must be at least 1")
    delta = as_fraction(args.delta) if args.delta is not None else dyadic(depth)
    po = validate_pseudo_orbit(model, states, delta)
    if isinstance(model, SftGraph):
        if args.epsilon is not None:
            raise ValidationError("--epsilon applies only to finite systems; "
                                  "a vertex shift is shadowed to --depth")
        result = sft_shadow(model, po, depth)
        limit_ok = True  # the shadow follows the last state's orbit exactly
    else:
        epsilon = as_fraction(args.epsilon) if args.epsilon is not None else delta
        result = find_shadowing_point(model, po, epsilon)
        limit_ok = limit_shadowed(model, po, epsilon)
    out = {
        "states": len(po.states),
        "max_step_error": str(po.max_error),
        "limit_verdict": {"ok": limit_ok},
        "shadow_point": str(result.point) if result.point is not None else None,
        "achieved_bound": str(result.epsilon) if result.epsilon is not None else None,
    }
    _print_json(out, args.out)
    if args.emit_csv:
        rows = [[i, str(e), str(result.tail_profile[i]) if i < len(result.tail_profile) else ""]
                for i, e in enumerate(po.errors)]
        write_csv(args.emit_csv, ["i", "step_error", "tracking_suffix_max"], rows)
        print(f"wrote {args.emit_csv}")
    if args.emit_svg:
        series = [float(x) for x in (result.tail_profile or po.errors)]
        write_text(args.emit_svg, polyline_svg(series, title="tracking error"))
        print(f"wrote {args.emit_svg}")
    return 0


def _cmd_corpus(args) -> int:
    from .corpus import corpus_names, load_corpus
    from .specio import dump_system

    if args.export:
        model = load_corpus(args.export)
        _print_json(dump_system(model), args.out)
        return 0
    for name in corpus_names():
        model = load_corpus(name)
        kind = "sft" if isinstance(model, SftGraph) else "finite"
        size = model.vertex_count if isinstance(model, SftGraph) else len(model.points)
        print(f"{name:12s} {kind:6s} size={size}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="chainscope",
                                 description="chain structure and chaos analysis")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="full pipeline report")
    p.add_argument("spec", help="spec file path or corpus:NAME")
    p.add_argument("--ladder-policy", default="all-critical",
                   choices=["all-critical", "explicit", "top-k"])
    p.add_argument("--ladder", default=None, help="comma list of resolutions")
    p.add_argument("--top-k", type=int, default=None, help="default 6")
    _add_classification(p)
    p.add_argument("--m-max", type=int, default=None)
    p.add_argument("--emit-dot", default=None, help="condensation (finite systems)")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("chains", help="chain analysis at one resolution")
    p.add_argument("spec")
    p.add_argument("--delta", default=None)
    p.add_argument("--emit-dot", default=None)
    p.add_argument("--emit-csv", default=None, help="basin rows (node, component, class)")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_chains)

    p = sub.add_parser("classify-chaos", help="hierarchy classification only")
    p.add_argument("spec")
    _add_classification(p)
    p.add_argument("--emit-csv", default=None, help="witness distance trace (vertex shifts)")
    p.add_argument("--emit-svg", default=None, help="witness trace plot (vertex shifts)")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("furstenberg", help="time-set family verdicts")
    subject = p.add_mutually_exclusive_group()
    subject.add_argument("--eventually-periodic", nargs="+", default=None,
                         metavar="KEY=VAL", help="pre=BITS pat=BITS")
    subject.add_argument("--rotation", nargs="+", default=None,
                         metavar="KEY=VAL", help="alpha=golden|FLOAT H=N")
    subject.add_argument("--set-file", default=None, help="run-length encoded window")
    p.add_argument("--m-max", type=int, default=None)
    p.add_argument("--run-req", type=int, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_furstenberg)

    p = sub.add_parser("shadow", help="validate and shadow a pseudo-orbit")
    p.add_argument("spec")
    p.add_argument("--orbit", required=True)
    p.add_argument("--delta", default=None)
    p.add_argument("--epsilon", default=None)
    p.add_argument("--depth", type=int, default=None,
                   help="agreement depth n (default 3); on a finite system it only "
                        "sets the default delta 2^-n")
    p.add_argument("--emit-csv", default=None)
    p.add_argument("--emit-svg", default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_shadow)

    p = sub.add_parser("corpus", help="list or export built-in systems")
    p.add_argument("--export", default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_corpus)
    return ap


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser ``main`` reads every command line with, built once."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BudgetExceeded as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return 3
    except InternalError as exc:
        print(f"internal invariant failure: {exc}", file=sys.stderr)
        return 4
    except ChainscopeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
