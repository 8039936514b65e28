"""Load and dump system specs (versioned JSON); load pseudo-orbit text files.

Spec schema "chainscope-v1": an object with "kind" in {"finite", "sft",
"grid"}.  Rational values are written as "p/q" strings so round-trips are
exact.
"""

from __future__ import annotations

import json
from pathlib import Path

from .errors import SpecError, ValidationError
from .sft import SftGraph, parse_point
from .systems import FiniteSystem, GridMapSpec, as_fraction, compile_finite, discretize, ratio_text

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
            adjacency = _adjacency(desc["adjacency"])
        except (KeyError, TypeError, ValueError) as exc:
            raise SpecError(f"{origin}: bad adjacency: {exc}") from exc
        return SftGraph(adjacency)
    if kind == "grid":
        try:
            spec = GridMapSpec(
                family=desc.get("family", ""),
                cell_count=_integer(desc.get("cells", 0), "cells"),
                geometry=desc.get("geometry", "interval"),
                slope=as_fraction(desc["slope"]) if "slope" in desc else None,
                alpha=as_fraction(desc["alpha"]) if "alpha" in desc else None,
                breakpoints=tuple((as_fraction(x), as_fraction(y))
                                  for x, y in desc.get("breakpoints", [])) or None,
            )
        except (TypeError, ValueError) as exc:
            raise SpecError(f"{origin}: bad grid parameter: {exc}") from exc
        return discretize(spec)
    raise SpecError(f"{origin}: unknown kind {kind!r}")


def _adjacency(rows) -> tuple[tuple[int, ...], ...]:
    """The rows of an adjacency spec as int tuples, row by row; the first
    entry that is not a JSON integer (a float, a bool, a string) is refused.
    A row's entry types are read as one set, and only a row with another
    type than int is searched for its first such entry."""
    out = []
    for row in rows:
        row = tuple(row)
        if not set(map(type, row)) <= {int}:
            _integer(next(x for x in row if type(x) is not int), "an adjacency entry")
        out.append(row)
    return tuple(out)


def _integer(value, what: str) -> int:
    """A JSON integer; a float, a bool or a string is refused, not coerced."""
    if type(value) is not int:
        raise SpecError(f"{what} must be an integer, got {value!r}")
    return value


def dump_system(model) -> dict:
    """Spec object for a loaded model; re-loading yields an identical model."""
    if isinstance(model, FiniteSystem):
        pts, scale = list(model.points), model.scale
        metric = [[u, v, ratio_text(x, scale)] for i, (u, row) in enumerate(zip(pts, model.rows))
                  for v, x in zip(pts[i + 1:], row[i + 1:])]
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


def load_pseudo_orbit(path, model):
    """One state per line: node ids for finite systems, 'head|cycle' vertex
    words for symbol graphs.  Blank lines and '#' comments are skipped."""
    shift = isinstance(model, SftGraph)
    states = []
    for lineno, line in enumerate(map(str.strip, read_input(path).splitlines()), 1):
        if not line or line[0] == "#":
            continue
        if shift:
            try:
                states.append(parse_point(line))
            except ValidationError as exc:  # a SpecError or an InvalidPoint
                raise SpecError(f"{path}:{lineno}: {exc}") from exc
        else:
            if line not in model.points:
                raise SpecError(f"{path}:{lineno}: unknown point {line!r}")
            states.append(line)
    if len(states) < 2:
        raise SpecError(f"{path}: a pseudo-orbit needs at least two states")
    return states
