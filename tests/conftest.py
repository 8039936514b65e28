from __future__ import annotations

import json
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import strategies as st

from chainscope import (GridMapSpec, SftGraph, SftPoint, check_condition3, construct_witness,
                        discretize, finite_system, load_corpus)
from chainscope.chaos import _first_distal
from chainscope.sft import shift_by, vertex_classes
from chainscope.specio import dump_system


@pytest.fixture
def sys3():
    return load_corpus("sys3")


@pytest.fixture
def sysns():
    return load_corpus("sysns")


@pytest.fixture
def sys2id():
    return load_corpus("sys2id")


@pytest.fixture
def full2():
    return load_corpus("full2")


@pytest.fixture
def goldenmean():
    return load_corpus("goldenmean")


@pytest.fixture
def rotation4():
    return load_corpus("rotation4")


def random_system(rng: random.Random, max_points: int = 12, min_points: int = 2):
    """Random finite system: random map, random rational distances repaired
    into a metric by shortest-path closure."""
    k = rng.randint(min_points, max_points)
    pts = [f"p{i}" for i in range(k)]
    mapping = {u: rng.choice(pts) for u in pts}
    d = {}
    for i in range(k):
        for j in range(k):
            if i == j:
                d[(pts[i], pts[j])] = Fraction(0)
            elif i < j:
                val = Fraction(rng.randint(1, 16), rng.choice((1, 2, 3, 4)))
                d[(pts[i], pts[j])] = val
                d[(pts[j], pts[i])] = val
    # shortest-path repair keeps symmetry and positivity, forces the triangle
    for m in pts:
        for u in pts:
            for v in pts:
                via = d[(u, m)] + d[(m, v)]
                if via < d[(u, v)]:
                    d[(u, v)] = via
    metric = {(u, v): d[(u, v)] for i, u in enumerate(pts) for v in pts[i + 1:]}
    return finite_system(pts, mapping, metric)


@st.composite
def finite_models(draw, max_points: int = 9):
    """A ``random_system`` or a grid: a tent, rotation or piecewise-linear
    map discretized on 2 to 12 cells."""
    kind = draw(st.sampled_from(["random", "tent", "rotation", "piecewise-linear"]))
    if kind == "random":
        return random_system(random.Random(draw(st.integers(0, 2**32))), max_points)
    cells = draw(st.integers(2, 12))
    if kind == "tent":
        return discretize(GridMapSpec("tent", cells, slope=Fraction(draw(st.integers(1, 8)), 4)))
    if kind == "rotation":
        alpha = Fraction(draw(st.integers(0, 11)), 12)
        return discretize(GridMapSpec("rotation", cells, "circle", alpha=alpha))
    ys = draw(st.lists(st.integers(0, 6), min_size=3, max_size=3))
    return discretize(GridMapSpec("piecewise-linear", cells, breakpoints=tuple(
        (Fraction(i, 2), Fraction(y, 6)) for i, y in enumerate(ys))))


def random_digraph(rng: random.Random, max_nodes: int = 12):
    """Random digraph with every node given at least one successor."""
    k = rng.randint(2, max_nodes)
    nodes = [f"v{i}" for i in range(k)]
    succ = {}
    for u in nodes:
        out = {v for v in nodes if rng.random() < 0.25}
        out.add(rng.choice(nodes))
        succ[u] = tuple(sorted(out))
    return nodes, succ


def random_point(g: SftGraph, rng: random.Random, head_max: int = 3,
                 cycle_max: int = 5) -> SftPoint:
    """Random admissible eventually periodic point."""
    walk = [rng.randrange(g.vertex_count)]
    for _ in range(rng.randint(0, head_max) + rng.randint(1, cycle_max)):
        walk.append(rng.choice(g.successors(walk[-1])))
    return _close_walk(g, walk)


def _close_walk(g: SftGraph, walk: list[int]) -> SftPoint:
    """Extend a walk by min successors until a vertex repeats, then fold the
    repeat into head + cycle."""
    seen = {}
    i = 0
    while True:
        while i < len(walk):
            if walk[i] in seen:
                return SftPoint(tuple(walk[:seen[walk[i]]]),
                                tuple(walk[seen[walk[i]]:i]))
            seen[walk[i]] = i
            i += 1
        walk.append(min(g.successors(walk[-1])))


def random_pseudo_orbit(g: SftGraph, rng: random.Random, depth: int,
                        length: int, shared_base: bool = False) -> list[SftPoint]:
    """Pseudo-orbit whose every step agrees with the shifted predecessor on
    exactly >= depth symbols (step errors <= 2^-depth).

    By default each state is its shifted predecessor's first ``depth``
    symbols, a few random steps, then a fold onto a cycle (``_close_walk``).
    With ``shared_base`` the states are built as the benchmark builds its
    orbit: state i starts with symbols i..i+depth of one random walk, and a
    random head and a random cycle follow.  Its steps tie the shift tracking
    recurrence at every depth, not only at depth 1.
    """
    if shared_base:
        base = [rng.randrange(g.vertex_count)]
        while len(base) < length + depth:
            base.append(rng.choice(g.successors(base[-1])))
        states = []
        for i in range(length):
            head = base[i:i + depth + 1]
            for _ in range(rng.randrange(4)):
                head.append(rng.choice(g.successors(head[-1])))
            while True:  # a closed walk entered from the head's last symbol
                cycle = [rng.choice(g.successors(head[-1]))]
                for _ in range(rng.randrange(4)):
                    cycle.append(rng.choice(g.successors(cycle[-1])))
                if g.is_edge(cycle[-1], cycle[0]):
                    break
            states.append(SftPoint(tuple(head), tuple(cycle)))
        return states
    states = [random_point(g, rng)]
    while len(states) < length:
        prev = shift_by(states[-1], 1)
        walk = prev.expand(depth)
        for _ in range(rng.randint(1, 3)):
            walk.append(rng.choice(g.successors(walk[-1])))
        states.append(_close_walk(g, walk))
    return states


def ring_with_chords(n: int, chords, mult: int = 7) -> tuple[tuple[int, ...], ...]:
    """Adjacency of the ring i -> i + 1 (mod n) plus the chords i -> i + s
    for (i, s) in ``chords``, with vertex v relabelled mult * v (mod n).

    Odd skips on an even ring keep every cycle length even (period 2); even
    skips on an odd ring give an aperiodic graph."""
    edges = {(i, (i + 1) % n) for i in range(n)} | {(i, (i + s) % n) for i, s in chords}
    adj = [[0] * n for _ in range(n)]
    for a, b in edges:
        adj[a * mult % n][b * mult % n] = 1
    return tuple(map(tuple, adj))


# fixed chord layouts: a 60-vertex period-2 ring and a 41-vertex aperiodic one
RING60_CHORDS = ((3, 7), (11, 13), (19, 5), (27, 21), (34, 9), (45, 17), (52, 25))
RING41_CHORDS = ((2, 6), (9, 14), (17, 4), (26, 10), (33, 18))


def line_system(n: int, seed: int, cycles=(3, 5)):
    """Seeded line system: n points at distinct coordinates k / 10**6 with
    metric |x - y|.  The first points form the given cycles and every other
    point maps to a random point of the first half."""
    rng = random.Random(seed)
    xs = rng.sample(range(10**6), n)
    pts = [f"x{i}" for i in range(n)]
    mapping = {}
    start = 0
    for length in cycles:
        for i in range(length):
            mapping[pts[start + i]] = pts[start + (i + 1) % length]
        start += length
    for u in pts[start:]:
        mapping[u] = pts[rng.randrange(n // 2)]
    metric = {(pts[i], pts[j]): Fraction(abs(xs[i] - xs[j]), 10**6)
              for i in range(n) for j in range(i + 1, n)}
    return finite_system(pts, mapping, metric)


def save_system(model, path) -> None:
    """Write ``model`` as a spec file that ``load_system`` reads back equal."""
    Path(path).write_text(json.dumps(dump_system(model), indent=2, sort_keys=True) + "\n",
                          encoding="utf-8")


def perturbed_witness_trials(g: SftGraph, n: int, level: str, horizon: int,
                             trials: int, seed: int) -> tuple[int, int]:
    """Re-run the witness construction from random perturbed prefixes and
    count how many constructions still pass their own windowed test.  The
    distal tuple does not depend on the prefixes: it is searched once."""
    rng = random.Random(seed)
    classes = vertex_classes(g)
    starts = [v for v in range(g.vertex_count) if classes[v] == 0]  # all when aperiodic
    # the search construct_witness runs
    distal = _first_distal(g, n, 10**6)
    successes = 0
    for _ in range(trials):
        length = rng.randint(1, 8)
        prefixes = []
        for _ in range(n):
            word = [rng.choice(starts)]
            while len(word) < length:
                word.append(rng.choice(g.successors(word[-1])))
            prefixes.append(tuple(word))
        built = construct_witness(g, n, level, horizon, prefixes=tuple(prefixes),
                                  distal=distal)
        if check_condition3(g, built.points, built.delta_n, level, horizon).ok:
            successes += 1
    return successes, trials


def rand_system(k: int):
    """The seeded "rand<k>" line system: k distinct coordinates
    ``random.Random(0).randrange(10**6)`` / 10**6, drawn in turn with repeats
    skipped and sorted, then the map p_i -> p_{randrange(k)}."""
    rng = random.Random(0)
    xs: list[int] = []
    while len(xs) < k:
        x = rng.randrange(10**6)
        if x not in xs:
            xs.append(x)
    xs.sort()
    pts = [f"p{i}" for i in range(k)]
    mapping = {u: pts[rng.randrange(k)] for u in pts}
    metric = {(pts[i], pts[j]): Fraction(xs[j] - xs[i], 10**6)
              for i in range(k) for j in range(i + 1, k)}
    return finite_system(pts, mapping, metric)
