"""Seeded input generator for the chainscope benchmark (stdlib only).

It does not import chainscope, so a change to the program cannot move
generation time.  ``generate(workload, seed, root)`` writes the spec and
orbit files of one workload under ``root`` and returns the fixed operation
list, with its seeded resolutions, as CLI argument vectors.  The same seed
gives byte-identical files and argument vectors.

Why these workloads: the pipeline has three cost centres that one workload
cannot separate.

* ``finite_ladder``: ``analyze`` with the default all-critical ladder on
  seeded line systems.  Work grows with ladder length x points^2, so the
  chain digraph builds, the cyclic decompositions and the report encoding do
  most of it; chaos (delta = 0 gives singleton classes) and metric
  validation do almost none.
* ``finite_coarse``: one larger line system at a single coarse resolution
  with one large chain component.  Exhaustive distal-tuple enumeration and
  the cubic metric validation dominate; the ladder has 4 steps.  It loads
  ``chains`` and ``report`` the opposite way to ``finite_ladder`` (one big
  digraph, small reports), so a ladder-sweep optimisation must show no
  change here.
* ``shift_classify``: vertex shifts (period-2 and aperiodic rings with
  chords, the full 3-shift), a long depth-3 pseudo-orbit on the full
  2-shift and a rotation time set.  It makes no ``chains`` or ``cyclic``
  calls; entropy, the window-product distal search, the family testers and
  shadowing do the work.

Seeds move point positions, chord positions and orbit symbols, never the
combinatorial shape that sets the amount of work: the map of each line
system has a fixed template (cycle lengths, in-degrees, image size) placed
at random distinct rational coordinates, so the ladder length and the
number of digraph rebuilds are the same for every seed.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from pathlib import Path

WORKLOADS = ("finite_ladder", "finite_coarse", "shift_classify")

# prime denominator: coordinate differences never reduce, so every rational
# in a spec has the same shape of text whatever the seed
DENOM = 1_000_003

LADDER_SIZES = (24, 28)
LADDER_CYCLES = (3, 5)
COARSE_SIZE = 64
COARSE_CYCLES = (1, 3)
RING_SIZES = ((40, 5), (60, 7))  # (vertices, chords) of the period-2 rings
APERIODIC_RING = (41, 5)
SHADOW_STATES = 1500
ROTATION_HORIZON = 10000


# -- finite line systems -------------------------------------------------------------

def template_map(n: int, cycles: tuple[int, ...]) -> list[int]:
    """Map of a line system on template nodes 0..n-1.

    The first nodes form the given cycles; every other node j maps to
    (j - c) mod (n // 2), with c the number of cycle nodes, so the image is
    exactly the first n // 2 nodes and every orbit falls into a cycle.
    """
    f = []
    start = 0
    for length in cycles:
        f.extend(start + (i + 1) % length for i in range(length))
        start += length
    half = n // 2
    f.extend((j - start) % half for j in range(start, n))
    return f


def _generic_coordinates(rng: random.Random, n: int, image: set[int]) -> list[int]:
    """Distinct integer numerators whose differences |x_a - x_v|, over pairs
    touching the image, are pairwise distinct (so the ladder length is fixed)."""
    while True:
        xs = rng.sample(range(DENOM), n)
        seen = set()
        ok = True
        for a in range(n):
            for v in range(a + 1, n):
                if a in image or v in image:
                    d = abs(xs[a] - xs[v])
                    if d in seen:
                        ok = False
                        break
                    seen.add(d)
            if not ok:
                break
        if ok:
            return xs


def line_system(rng: random.Random, n: int, cycles: tuple[int, ...]) -> dict:
    """Template map at seeded rational coordinates in [0, 1); metric |x - y|."""
    f = template_map(n, cycles)
    xs = _generic_coordinates(rng, n, set(f))
    names = [f"x{i:02d}" for i in range(n)]
    return {
        "names": names,
        "coords": xs,
        "map": f,
        "spec": {
            "schema": "chainscope-v1",
            "kind": "finite",
            "points": names,
            "map": {names[i]: names[f[i]] for i in range(n)},
            "metric": [[names[i], names[j], str(Fraction(abs(xs[i] - xs[j]), DENOM))]
                       for i in range(n) for j in range(i + 1, n)],
        },
    }


def critical_values(system: dict) -> list[Fraction]:
    """Ascending distinct d(f(u), v), computed from the coordinates."""
    xs, f = system["coords"], system["map"]
    return sorted({Fraction(abs(xs[f[u]] - xs[v]), DENOM)
                   for u in range(len(xs)) for v in range(len(xs))})


def step_successors(system: dict, delta: Fraction) -> list[list[int]]:
    xs, f = system["coords"], system["map"]
    bound = delta * DENOM
    return [[v for v in range(len(xs)) if abs(xs[f[u]] - xs[v]) <= bound]
            for u in range(len(xs))]


def strong_components(succ: list[list[int]]) -> list[list[int]]:
    """Iterative Tarjan; independent of chainscope's own implementation."""
    n = len(succ)
    index = [None] * n
    low = [0] * n
    on_stack = [False] * n
    stack: list[int] = []
    comps: list[list[int]] = []
    counter = 0
    for root in range(n):
        if index[root] is not None:
            continue
        work = [(root, 0)]
        while work:
            v, i = work.pop()
            if i == 0:
                index[v] = low[v] = counter
                counter += 1
                stack.append(v)
                on_stack[v] = True
            if i < len(succ[v]):
                work.append((v, i + 1))
                w = succ[v][i]
                if index[w] is None:
                    work.append((w, 0))
                elif on_stack[w]:
                    low[v] = min(low[v], index[w])
                continue
            if low[v] == index[v]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    comp.append(w)
                    if w == v:
                        break
                comps.append(sorted(comp))
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[v])
    return comps


def chain_components(system: dict, delta: Fraction) -> list[list[str]]:
    """Chain components (SCCs carrying a cycle) at one resolution, as sorted
    name lists in sorted order."""
    succ = step_successors(system, delta)
    names = system["names"]
    out = []
    for comp in strong_components(succ):
        if len(comp) > 1 or comp[0] in succ[comp[0]]:
            out.append(sorted(names[i] for i in comp))
    return sorted(out)


def coarse_delta(system: dict) -> Fraction:
    """The classification resolution of ``finite_coarse``: the first
    quartile of the critical values, raised if needed to the smallest value
    at which the whole space is one chain component.

    One component of every point makes the distal enumeration the same size
    for every seed; the quartile keeps the digraph dense enough that the
    saturation index stays small.  Edge sets grow with delta, so the
    property is monotone and bisection finds the threshold; the largest
    critical value joins every point.
    """
    n = len(system["names"])
    crit = critical_values(system)
    lo, hi = len(crit) // 4, len(crit) - 1
    while lo < hi:
        mid = (lo + hi) // 2
        comps = chain_components(system, crit[mid])
        if len(comps) == 1 and len(comps[0]) == n:
            hi = mid
        else:
            lo = mid + 1
    return crit[lo]


def finite_pseudo_orbit(rng: random.Random, system: dict, length: int,
                        step: Fraction) -> list[str]:
    """True orbit steps with occasional jumps to a point within ``step`` of
    the image."""
    xs, f, names = system["coords"], system["map"], system["names"]
    bound = step * DENOM
    u = rng.randrange(len(xs))
    states = [u]
    for _ in range(length - 1):
        near = [v for v in range(len(xs)) if abs(xs[f[u]] - xs[v]) <= bound]
        u = rng.choice(near)
        states.append(u)
    return [names[i] for i in states]


# -- vertex shifts ----------------------------------------------------------------------

def ring_with_chords(rng: random.Random, n: int, chords: int, step_parity: int) -> dict:
    """Ring i -> i+1 (mod n) plus chords i -> i+s, with vertices relabelled
    by a seeded permutation.

    The chord layout is fixed per (n, chords, parity): entropy, period and
    the window-product graph sizes then cost the same for every seed, while
    the labels, and with them the search order, vary.  With n even and every
    skip s odd, all cycle lengths are even (period 2); an odd n with even
    skips gives an aperiodic graph.
    """
    shape = random.Random(f"ring:{n}:{chords}:{step_parity}")
    edges = {(i, (i + 1) % n) for i in range(n)}
    for i in sorted(shape.sample(range(n), chords)):
        while True:
            s = shape.randrange(3, n // 2)
            if s % 2 == step_parity and (i, (i + s) % n) not in edges:
                break
        edges.add((i, (i + s) % n))
    label = list(range(n))
    rng.shuffle(label)
    adj = [[0] * n for _ in range(n)]
    for a, b in edges:
        adj[label[a]][label[b]] = 1
    return {"schema": "chainscope-v1", "kind": "sft", "adjacency": adj}


def full_shift_spec(k: int) -> dict:
    return {"schema": "chainscope-v1", "kind": "sft", "adjacency": [[1] * k for _ in range(k)]}


def shift_pseudo_orbit(rng: random.Random, length: int) -> list[str]:
    """Depth-3 pseudo-orbit on the full 2-shift: the shift of each state
    agrees with the next state on its first 3 symbols."""
    base = [rng.randrange(2) for _ in range(length + 4)]
    states = []
    for i in range(length):
        head = base[i:i + 4] + [rng.randrange(2) for _ in range(rng.randrange(4))]
        cycle = [rng.randrange(2) for _ in range(rng.randrange(1, 5))]
        states.append(" ".join(map(str, head)) + "|" + " ".join(map(str, cycle)))
    return states


# -- workloads ------------------------------------------------------------------------

def _write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, sort_keys=True) + "\n", encoding="utf-8")


def _write_lines(path: Path, lines) -> None:
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def generate(workload: str, seed: int, root: Path) -> dict:
    """Write the inputs of one workload under ``root``.

    Returns ``{"ops": [(name, argv)], "specs": [paths], "systems": {path:
    line system}, "shifts": {path: spec}}``.  Paths in argv are ``root``
    joined with a file name, so a relative ``root`` keeps reports free of
    absolute paths.
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}:{seed}")
    root.mkdir(parents=True, exist_ok=True)
    out = root / "out"
    out.mkdir(exist_ok=True)
    ops: list[tuple[str, list[str]]] = []
    specs: list[str] = []
    systems: dict[str, dict] = {}
    shifts: dict[str, dict] = {}
    if workload == "finite_ladder":
        for n in LADDER_SIZES:
            system = line_system(rng, n, LADDER_CYCLES)
            spec = root / f"line{n}.json"
            _write_json(spec, system["spec"])
            specs.append(str(spec))
            systems[str(spec)] = system
            ops.append((f"analyze_line{n}",
                        ["analyze", str(spec), "--out", str(out / f"analyze_line{n}.json")]))
    elif workload == "finite_coarse":
        system = line_system(rng, COARSE_SIZE, COARSE_CYCLES)
        spec = root / f"line{COARSE_SIZE}.json"
        _write_json(spec, system["spec"])
        specs.append(str(spec))
        systems[str(spec)] = system
        delta = coarse_delta(system)
        crit = critical_values(system)
        step = crit[len(crit) // 50]
        orbit = root / "orbit.txt"
        _write_lines(orbit, finite_pseudo_orbit(rng, system, 400, step))
        ops.append(("analyze", ["analyze", str(spec), "--ladder-policy", "top-k",
                                "--top-k", "4", "--delta", str(delta), "--n-max", "3",
                                "--out", str(out / "analyze.json")]))
        ops.append(("chains", ["chains", str(spec), "--delta", str(delta),
                               "--out", str(out / "chains.json")]))
        ops.append(("shadow", ["shadow", str(spec), "--orbit", str(orbit),
                               "--delta", str(step), "--epsilon", str(delta),
                               "--out", str(out / "shadow.json")]))
    else:
        graphs = [(f"ring{n}", ring_with_chords(rng, n, c, 1)) for n, c in RING_SIZES]
        n, c = APERIODIC_RING
        graphs.append((f"aring{n}", ring_with_chords(rng, n, c, 0)))
        graphs.append(("full3", full_shift_spec(3)))
        for name, desc in graphs:
            spec = root / f"{name}.json"
            _write_json(spec, desc)
            specs.append(str(spec))
            shifts[str(spec)] = desc
            ops.append((f"analyze_{name}",
                        ["analyze", str(spec), "--n-max", "3", "--horizon", "512",
                         "--out", str(out / f"analyze_{name}.json")]))
        spec = root / "full2.json"
        _write_json(spec, full_shift_spec(2))
        specs.append(str(spec))
        orbit = root / "orbit.txt"
        _write_lines(orbit, shift_pseudo_orbit(rng, SHADOW_STATES))
        ops.append(("shadow_full2", ["shadow", str(spec), "--orbit", str(orbit),
                                     "--depth", "3", "--out", str(out / "shadow_full2.json")]))
        alpha = f"0.{rng.randrange(10**11, 10**12)}"
        ops.append(("furstenberg", ["furstenberg", "--rotation", f"alpha={alpha}",
                                    f"H={ROTATION_HORIZON}",
                                    "--out", str(out / "furstenberg.json")]))
    return {"ops": ops, "specs": specs, "systems": systems, "shifts": shifts}
