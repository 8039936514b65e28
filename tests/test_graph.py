"""Property tests of the graph kernel against the brute-force oracles."""

from functools import partial

from hypothesis import given, settings
from hypothesis import strategies as st

from chainscope import chains, cyclic
from chainscope.graph import (bfs_levels, classes, period, rho, sinks_first,
                              strongly_connected_components)
from chainscope.report import AnalysisConfig, cmd_analyze
from chainscope.sft import SftGraph, graph_period, vertex_classes

from conftest import line_system, save_system
from oracles import closure_components, cycle_gcd


@st.composite
def digraphs(draw, labels):
    """Random digraph on up to 7 vertices as a successor mapping."""
    n = draw(st.integers(1, 7))
    names = draw(labels(n))
    edges = draw(st.sets(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                         max_size=2 * n))
    return {names[i]: tuple(names[j] for a, j in sorted(edges) if a == i)
            for i in range(n)}


def int_labels(n):
    return st.permutations(range(n))


def str_labels(n):
    return st.lists(st.text("abcxyz", min_size=1, max_size=3),
                    min_size=n, max_size=n, unique=True)


def _check_components_and_periods(succ):
    comps = strongly_connected_components(succ)
    assert sorted(u for c in comps for u in c) == sorted(succ)
    recurrent = {frozenset(c) for c in comps if len(c) > 1 or c[0] in succ[c[0]]}
    assert (recurrent, set().union(*recurrent)) == closure_components(succ, succ)
    for comp in comps:
        inside = set(comp)
        lvl = bfs_levels(succ, min(comp), inside)
        assert set(lvl) == inside
        sub = {u: tuple(w for w in succ[u] if w in inside) for u in comp}
        m = period(succ, lvl)
        assert m == cycle_gcd(comp, sub, max_len=len(comp))
        labels, km = classes(succ, min(comp), inside)
        assert km == m and set(labels) == inside
        if m:
            # the labels go up by one along every inner edge, and all occur
            assert all(labels[w] == (labels[u] + 1) % m for u in comp for w in sub[u])
            assert set(labels.values()) == set(range(m))


@settings(max_examples=200, deadline=None)
@given(digraphs(int_labels))
def test_kernel_period_matches_cycle_gcd_int_labels(succ):
    _check_components_and_periods(succ)


@settings(max_examples=200, deadline=None)
@given(digraphs(str_labels))
def test_kernel_period_matches_cycle_gcd_str_labels(succ):
    _check_components_and_periods(succ)


@st.composite
def irreducible_graphs(draw):
    """A Hamiltonian cycle through p * m vertices whose positions carry the
    classes i mod p, plus random edges that advance the class by one, under
    a random relabelling: irreducible, with period a multiple of p."""
    p = draw(st.integers(1, 3))
    n = p * draw(st.integers(1, 7 // p))
    order = draw(st.permutations(range(n)))
    edges = {(order[i], order[(i + 1) % n]) for i in range(n)}
    for i, j in draw(st.sets(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                             max_size=2 * n)):
        if (j - i - 1) % p == 0:
            edges.add((order[i], order[j]))
    return SftGraph(tuple(tuple(int((u, v) in edges) for v in range(n)) for u in range(n)))


@settings(max_examples=200, deadline=None)
@given(irreducible_graphs())
def test_vertex_classes_advance_along_every_edge(g):
    n = g.vertex_count
    succ = {v: g.successors(v) for v in range(n)}
    m = graph_period(g)
    assert m == cycle_gcd(range(n), succ, max_len=n)
    classes = vertex_classes(g)
    for u in range(n):
        for v in succ[u]:
            assert classes[v] == (classes[u] + 1) % m


def list_rho(step, x):
    """The walk of ``step`` from x up to its first repeat, as a list, and
    the index of the repeated point in it."""
    walk = [x]
    while step(walk[-1]) not in walk:
        walk.append(step(walk[-1]))
    return walk, walk.index(step(walk[-1]))


@st.composite
def self_maps(draw, max_points=20):
    """A random map of the points 0..n-1 to themselves, n <= ``max_points``."""
    n = draw(st.integers(1, max_points))
    return draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))


@settings(max_examples=200, deadline=None)
@given(self_maps(), st.data())
def test_rho_matches_a_list_walk_of_a_self_map(f, data):
    x = data.draw(st.integers(0, len(f) - 1))
    walk, start = rho(f.__getitem__, x)
    assert (walk, start) == list_rho(f.__getitem__, x)
    assert f[walk[-1]] == walk[start]


@settings(max_examples=200, deadline=None)
@given(self_maps(), st.data())
def test_rho_matches_a_list_walk_of_a_pair_map(f, data):
    n = len(f)
    pair = data.draw(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)))

    def step(p):
        return f[p[0]], f[p[1]]

    assert rho(step, pair) == list_rho(step, pair)


def greedy_sinks_first(cond, least):
    """Place, while one is left, the least-keyed unplaced node whose
    successors are all placed; None once no node can be placed."""
    placed = []
    while len(placed) < len(cond):
        ready = [i for i in range(len(cond))
                 if i not in placed and all(j in placed for j in cond[i])]
        if not ready:
            return None
        placed.append(min(ready, key=least.__getitem__))
    return placed


@st.composite
def dags(draw):
    """A random acyclic digraph on up to 8 nodes, as successor lists: every
    edge runs down a random ranking of the nodes."""
    n = draw(st.integers(1, 8))
    rank = draw(st.permutations(range(n)))
    edges = draw(st.sets(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                         max_size=3 * n))
    return [sorted({j for a, j in edges if a == i and rank[j] < rank[i]})
            for i in range(n)]


@settings(max_examples=200, deadline=None)
@given(dags(), st.data())
def test_sinks_first_matches_a_greedy_placement_on_dags(cond, data):
    least = data.draw(st.permutations(range(len(cond))))
    order = sinks_first(cond, least)
    assert order is not None and order == greedy_sinks_first(cond, least)


@settings(max_examples=200, deadline=None)
@given(digraphs(int_labels), st.data())
def test_sinks_first_refuses_every_cyclic_digraph(succ, data):
    cond = [succ[i] for i in range(len(succ))]
    least = data.draw(st.permutations(range(len(cond))))
    order = sinks_first(cond, least)
    assert order == greedy_sinks_first(cond, least)
    assert (order is None) == bool(closure_components(succ, succ)[1])


def test_an_analyze_orders_each_condensation_at_most_once(tmp_path, monkeypatch):
    sys = line_system(24, 24)
    save_system(sys, tmp_path / "line.json")
    built, ordered, reads = [], [], []
    build, order = cyclic.build_chain_digraph, chains.sinks_first

    def recording_build(*args, **kwargs):
        built.append(build(*args, **kwargs))
        return built[-1]

    def recording_order(cond, least):
        ordered.append(cond)
        return order(cond, least)

    def recording_read(name, read, dg):
        reads.append((name, dg))
        return read(dg)

    monkeypatch.setattr(cyclic, "build_chain_digraph", recording_build)
    monkeypatch.setattr(chains, "sinks_first", recording_order)
    for name in ("_reach_masks", "complete_lyapunov"):
        monkeypatch.setattr(chains, name, partial(recording_read, name, getattr(chains, name)))
    cmd_analyze(AnalysisConfig(spec=str(tmp_path / "line.json")))
    # rung 0 seeds the closure and is written, so both read its order
    assert {name for name, dg in reads if dg is built[0]} == {"_reach_masks",
                                                              "complete_lyapunov"}
    for dg in built:
        orders = sum(cond is dg.__dict__.get("cond_succ") for cond in ordered)
        assert orders == ("cond_order" in dg.__dict__)
    assert len(ordered) == sum("cond_order" in dg.__dict__ for dg in built)
