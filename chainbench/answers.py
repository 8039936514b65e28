"""Correctness checks on the outputs of benchmark operations.

An operation's output passes when it parses as JSON, validates against the
matching part of the shipped ``report_schema.json``, agrees with the
independent oracles computed from the generator's own data, and (when a
reference is recorded for the seed) has the recorded answer digest.

The digest covers only the answers every report version must keep: the
ladder values, chaos levels, per-n tiers and dispersions, the symbol graph
period, basin rows, proximal classes, the shadow point and bound, and the
furstenberg verdicts.  It never hashes
the per-step ``chain_analyses``/``cyclic`` dumps, so a change of report
encoding is judged on its answers and on ``report_bytes``.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction
from math import gcd

import jsonschema

import gen


def validators(schema: dict) -> dict[str, jsonschema.Draft7Validator]:
    """One validator per command, built from the shipped report schema.

    ``analyze`` writes a whole report; ``chains`` and ``furstenberg`` write
    sections whose item schemas the report schema defines.  The shipped
    schema has no part for ``shadow``, so its keys are checked here.
    """
    props = schema["properties"]
    defs = {"definitions": schema["definitions"]}
    rational = {"$ref": "#/definitions/rational"}
    parts = {
        "analyze": schema,
        "chains": {
            "type": "object", "required": ["chain", "cyclic", "basins"],
            "properties": {"chain": props["chain_analyses"]["items"],
                           "cyclic": props["cyclic"],
                           "basins": props["basins"]["items"]},
            **defs,
        },
        "furstenberg": {
            "type": "object", "required": ["verdicts", "monotone", "warnings"],
            "properties": {"verdicts": props["furstenberg_appendix"],
                           "monotone": {"type": "boolean"}},
            **defs,
        },
        "shadow": {
            "type": "object",
            "required": ["states", "max_step_error", "limit_verdict", "shadow_point",
                         "achieved_bound"],
            "properties": {"states": {"type": "integer", "minimum": 2},
                           "max_step_error": rational,
                           "achieved_bound": {"oneOf": [rational, {"type": "null"}]},
                           "shadow_point": {"type": ["string", "null"]}},
            **defs,
        },
    }
    return {kind: jsonschema.Draft7Validator(part) for kind, part in parts.items()}


def answers(kind: str, doc: dict) -> dict:
    """The report-version-independent answers of one output."""
    if kind == "analyze":
        out = {"chaos": [{"component": c["component"], "level": c["level"],
                          "tiers": [p["tier"] for p in c["per_n"]],
                          "dispersion": [p["delta_n_value"] for p in c["per_n"]]}
                         for c in doc["chaos"]]}
        if "period" in doc["system"]:
            out["period"] = doc["system"]["period"]
        if "ladder" in doc:
            out["ladder"] = doc["ladder"]
            out["basins"] = [b["rows"] for b in doc["basins"]]
            out["proximal"] = [{"component": p["component"], "classes": p["classes"]}
                               for p in doc["proximal"]]
        return out
    if kind == "chains":
        return {"components": doc["chain"]["components"], "basins": doc["basins"]["rows"]}
    if kind == "shadow":
        return {"shadow_point": doc["shadow_point"], "achieved_bound": doc["achieved_bound"]}
    if kind == "furstenberg":
        return {"verdicts": [[v["family"], v["member"], v["mode"]] for v in doc["verdicts"]]}
    raise ValueError(f"no answers defined for {kind!r}")


def digest(kind: str, doc: dict) -> str:
    text = json.dumps(answers(kind, doc), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:20]


def budget_flags(kind: str, doc: dict) -> int:
    """Number of per-n tiers the chaos layer flagged as over budget."""
    if kind != "analyze":
        return 0
    return sum(1 for c in doc["chaos"] for p in c["per_n"] if p.get("budget_exceeded"))


# -- oracles -------------------------------------------------------------------------

def _arg(argv: list[str], flag: str) -> str | None:
    return argv[argv.index(flag) + 1] if flag in argv else None


def _finite_oracle(kind: str, argv: list[str], doc: dict, system: dict) -> list[str]:
    problems = []
    crit = gen.critical_values(system)
    delta_arg = _arg(argv, "--delta")
    if kind == "analyze":
        top_k = _arg(argv, "--top-k")
        ladder = crit[-int(top_k):] if top_k else crit
        if doc["ladder"] != [str(d) for d in ladder]:
            problems.append("ladder differs from the critical values")
        delta = Fraction(delta_arg) if delta_arg else ladder[0]
        want = gen.chain_components(system, delta)
        if sorted(doc["basins"][0]["components"]) != want:
            problems.append("basin components differ from the oracle")
        if len(doc["chaos"]) != len(want):
            problems.append("one chaos section per chain component expected")
    elif kind == "chains":
        if sorted(doc["chain"]["components"]) != gen.chain_components(system, Fraction(delta_arg)):
            problems.append("chain components differ from the oracle")
    elif kind == "shadow":
        problems.extend(_shadow_oracle(argv, doc, system))
    return problems


def _shadow_oracle(argv: list[str], doc: dict, system: dict) -> list[str]:
    xs, f, names = system["coords"], system["map"], system["names"]
    index = {name: i for i, name in enumerate(names)}
    with open(_arg(argv, "--orbit"), encoding="utf-8") as fh:
        states = [index[line.strip()] for line in fh if line.strip()]
    eps = Fraction(_arg(argv, "--epsilon"))

    def dist(a, b):
        return Fraction(abs(xs[a] - xs[b]), gen.DENOM)

    errors = [dist(f[a], b) for a, b in zip(states, states[1:])]
    problems = []
    if doc["max_step_error"] != str(max(errors)):
        problems.append("max step error differs from the oracle")
    tracks = []
    for z in range(len(xs)):
        track, u = [], z
        for s in states:
            track.append(dist(u, s))
            u = f[u]
        if max(track) <= eps:
            tracks.append((names[z], max(track)))
    if doc["shadow_point"] is None:
        if tracks:
            problems.append("a shadowing point exists but none was reported")
    else:
        found = dict(tracks)
        if doc["shadow_point"] != min(found, default=None):
            problems.append("the reported point is not the smallest shadowing point")
        elif doc["achieved_bound"] != str(found[doc["shadow_point"]]):
            problems.append("achieved bound differs from the oracle")
    return problems


def _period(adjacency: list[list[int]]) -> int:
    """gcd of cycle lengths of an irreducible graph, by BFS levels."""
    n = len(adjacency)
    lvl = {0: 0}
    frontier = [0]
    while frontier:
        nxt = []
        for u in frontier:
            for w in range(n):
                if adjacency[u][w] and w not in lvl:
                    lvl[w] = lvl[u] + 1
                    nxt.append(w)
        frontier = nxt
    m = 0
    for u in range(n):
        for w in range(n):
            if adjacency[u][w]:
                m = gcd(m, abs(lvl[u] + 1 - lvl[w]))
    return m


def check(kind: str, argv: list[str], data: bytes, validator, *, system=None,
          shift=None, reference: str | None = None) -> tuple[list[str], dict | None]:
    """Problems found in one output, and the parsed document."""
    try:
        doc = json.loads(data)
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        return [f"output is not JSON: {exc}"], None
    problems = [f"schema: {err.message}" for err in validator.iter_errors(doc)][:3]
    if problems:
        return problems, None
    try:
        if system is not None:
            problems.extend(_finite_oracle(kind, argv, doc, system))
        if shift is not None and kind == "analyze":
            if doc["system"].get("period") != _period(shift["adjacency"]):
                problems.append("graph period differs from the oracle")
        if reference is not None and digest(kind, doc) != reference:
            problems.append("answer digest differs from the reference")
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        problems.append(f"malformed answers: {exc!r}")
    return problems, doc
