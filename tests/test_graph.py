"""Property tests of the graph kernel against the brute-force oracles."""

from hypothesis import given, settings
from hypothesis import strategies as st

from chainscope.graph import bfs_levels, classes, period, strongly_connected_components
from chainscope.sft import SftGraph, graph_period, vertex_classes

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
