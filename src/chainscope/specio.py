"""Load and save system specs (versioned JSON); load pseudo-orbit text files.

Spec schema "chainscope-v1": an object with "kind" in {"finite", "sft",
"grid"}.  Rational values are written as "p/q" strings so round-trips are
exact.
"""

from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path

from .errors import SpecError
from .sft import SftGraph, parse_point
from .systems import FiniteSystem, GridMapSpec, as_fraction, compile_finite, discretize

SCHEMA_VERSION = "chainscope-v1"


def read_input(path) -> str:
    """Text of an input file; an unreadable one is a spec error."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise SpecError(f"{path}: cannot read: {exc}") from exc


def load_system(path):
    """Load a finite system, symbol graph, or grid spec from JSON."""
    text = read_input(path)
    try:
        desc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SpecError(f"{path}: not valid JSON: {exc}") from exc
    return system_from_desc(desc, origin=str(path))


def system_from_desc(desc: dict, origin: str = "<desc>"):
    if not isinstance(desc, dict):
        raise SpecError(f"{origin}: spec must be a JSON object")
    if desc.get("schema") != SCHEMA_VERSION:
        raise SpecError(f"{origin}: expected schema {SCHEMA_VERSION!r}, "
                        f"got {desc.get('schema')!r}")
    kind = desc.get("kind")
    if kind == "finite":
        return compile_finite(desc)
    if kind == "sft":
        try:
            adjacency = tuple(tuple(int(x) for x in row) for row in desc["adjacency"])
        except (KeyError, TypeError, ValueError) as exc:
            raise SpecError(f"{origin}: bad adjacency: {exc}") from exc
        return SftGraph(adjacency)
    if kind == "grid":
        try:
            spec = GridMapSpec(
                family=desc.get("family", ""),
                cell_count=int(desc.get("cells", 0)),
                geometry=desc.get("geometry", "interval"),
                slope=as_fraction(desc["slope"]) if "slope" in desc else None,
                alpha=_parse_alpha(desc.get("alpha")) if "alpha" in desc else None,
                breakpoints=tuple((as_fraction(x), as_fraction(y))
                                  for x, y in desc.get("breakpoints", [])) or None,
            )
        except (TypeError, ValueError) as exc:
            raise SpecError(f"{origin}: bad grid parameter: {exc}") from exc
        return discretize(spec)
    raise SpecError(f"{origin}: unknown kind {kind!r}")


def _parse_alpha(value):
    if isinstance(value, str) and "/" in value:
        return as_fraction(value)
    if isinstance(value, (int,)):
        return Fraction(value)
    return float(value)


def dump_system(model) -> dict:
    """Spec object for a loaded model; re-loading yields an identical model."""
    if isinstance(model, FiniteSystem):
        pts = list(model.points)
        metric = [[u, v, str(model.metric[(u, v)])]
                  for i, u in enumerate(pts) for v in pts[i + 1:]]
        out = {
            "schema": SCHEMA_VERSION,
            "kind": "finite",
            "points": pts,
            "map": {u: model.map[u] for u in pts},
            "metric": metric,
        }
        if model.labels:
            out["labels"] = dict(sorted(model.labels.items()))
        return out
    if isinstance(model, SftGraph):
        return {
            "schema": SCHEMA_VERSION,
            "kind": "sft",
            "adjacency": [list(row) for row in model.adjacency],
        }
    raise SpecError(f"cannot serialize {type(model).__name__}")


def save_system(model, path) -> None:
    Path(path).write_text(
        json.dumps(dump_system(model), indent=2, sort_keys=True) + "\n",
        encoding="utf-8")


def load_pseudo_orbit(path, model):
    """One state per line: node ids for finite systems, 'head|cycle' vertex
    words for symbol graphs.  Blank lines and '#' comments are skipped."""
    states = []
    for lineno, line in enumerate(read_input(path).splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if isinstance(model, SftGraph):
            try:
                states.append(parse_point(line))
            except SpecError as exc:
                raise SpecError(f"{path}:{lineno}: {exc}") from exc
        else:
            if line not in model.points:
                raise SpecError(f"{path}:{lineno}: unknown point {line!r}")
            states.append(line)
    if len(states) < 2:
        raise SpecError(f"{path}: a pseudo-orbit needs at least two states")
    return states
