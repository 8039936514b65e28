import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chainscope import SftGraph, SftPoint, full_shift, sft_distance, sft_entropy
from chainscope.corpus import golden_mean_shift
from chainscope.errors import InvalidPoint, NoConvergence, SpecError
from chainscope.specio import system_from_desc
from chainscope.sft import (canonical_form, connecting_paths, find_exact_path,
                            first_difference, graph_period, parse_point, shift_by,
                            validate_point, vertex_classes)

from conftest import random_point
from oracles import (connector_loop, dense_radius_bracket, exact_path, per_entry_shift_refusal,
                     sparse_radius_bracket)
from test_graph import irreducible_graphs


def test_graph_validation():
    with pytest.raises(SpecError):
        SftGraph(((0, 1), (0, 0)))  # vertex 1 has no outgoing edge
    with pytest.raises(SpecError):
        SftGraph(((1, 0), (1, 0)))  # vertex 1 unreachable (no incoming edge)
    g = SftGraph(((1, 1), (1, 0)))
    assert g.successors(0) == (0, 1)
    assert g.successors(1) == (0,)


def _refusal(rows):
    try:
        system_from_desc({"schema": "chainscope-v1", "kind": "sft", "adjacency": rows})
    except SpecError as exc:
        return str(exc)
    return None


@pytest.mark.parametrize("rows, message", [
    ([[0, 1.0], [1, 0]], "an adjacency entry must be an integer, got 1.0"),
    ([[0, True], [1, 0]], "an adjacency entry must be an integer, got True"),
    ([[0, 2], [1, 0]], "adjacency entries must be 0 or 1"),
    ([[0, 1], [1]], "adjacency must be a nonempty square matrix"),
    ([[1, 0], [1, 0]], "vertex 1 has no incoming edge"),
    ([[0, 0], [1, 1]], "vertex 0 has no outgoing edge"),
    # the first bad entry in row order is named, past a 2 and a later bad one
    ([[2, 1], [1.5, True]], "an adjacency entry must be an integer, got 1.5"),
    ([[0, 1, "x"], [1.5, 0, 0], [1, 1, 1]], "an adjacency entry must be an integer, got 'x'"),
])
def test_shift_spec_refusals_name_the_first_bad_entry(rows, message):
    assert _refusal(rows) == per_entry_shift_refusal(rows) == message


ENTRIES = st.sampled_from([0, 1, 0, 1, 0, 1, 2, True, False, 1.0, 0.0, "1"])


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 4).flatmap(lambda n: st.lists(
    st.lists(ENTRIES, min_size=n - 1, max_size=n + 1) | st.lists(st.sampled_from([0, 1]),
                                                                min_size=n, max_size=n),
    min_size=n, max_size=n)))
def test_shift_spec_refusals_match_the_per_entry_checks(rows):
    assert _refusal(rows) == per_entry_shift_refusal(rows)


def test_canonical_form_primitive_cycle_and_minimal_head():
    # (0101) reduces to (01); head tail absorbed into the rotation
    assert canonical_form((), (0, 1, 0, 1)) == ((), (0, 1))
    assert canonical_form((1,), (0, 1)) == ((), (1, 0))
    # 01(101)^inf spells 011011... = (011)^inf
    assert canonical_form((0, 1), (1, 0, 1)) == ((), (0, 1, 1))


def test_canonical_form_idempotent():
    rng = random.Random(11)
    for _ in range(300):
        head = tuple(rng.randrange(2) for _ in range(rng.randint(0, 4)))
        cycle = tuple(rng.randrange(2) for _ in range(rng.randint(1, 6)))
        once = canonical_form(head, cycle)
        assert canonical_form(*once) == once


def test_point_equality_is_syntactic():
    assert SftPoint((0,), (1, 0)) == SftPoint((), (0, 1))
    assert SftPoint((), (0, 1)) != SftPoint((), (1, 0))


def test_distance_examples(full2):
    zeros = SftPoint((), (0,))
    ones = SftPoint((), (1,))
    assert sft_distance(full2, zeros, ones) == 1
    p = SftPoint((), (0, 1))
    assert sft_distance(full2, p, p) == 0
    x = SftPoint((0,), (0, 1))
    y = SftPoint((), (0, 0, 1))
    # expand both and compare coordinatewise
    k = next(i for i in range(16) if x.symbol(i) != y.symbol(i))
    assert sft_distance(full2, x, y) == Fraction(1, 2**k)
    assert k == 4


def test_shift_examples(full2):
    cases = [(SftPoint((0,), (0, 1)), SftPoint((), (0, 1))),
             (SftPoint((), (0, 1)), SftPoint((), (1, 0))),
             (SftPoint((), (1,)), SftPoint((), (1,)))]
    for x, image in cases:
        validate_point(full2, x)
        assert shift_by(x, 1) == image


def test_invalid_point_rejected(goldenmean):
    with pytest.raises(InvalidPoint):
        validate_point(goldenmean, SftPoint((), (1, 1, 0)))
    with pytest.raises(InvalidPoint):
        sft_distance(goldenmean, SftPoint((), (1, 1, 0)), SftPoint((), (0,)))


def test_parse_point_round_trip():
    p = parse_point("0 1|1 0")
    assert p == SftPoint((0, 1), (1, 0))
    assert parse_point(str(p)) == p
    with pytest.raises(SpecError):
        parse_point("0 1 0")


def test_point_contract(goldenmean):
    # canonical equality and hash, whatever description a point is given by
    p = SftPoint((0,), (1, 0))
    assert p == SftPoint((), (0, 1)) and hash(p) == hash(SftPoint((), (0, 1)))
    assert (p.head, p.cycle) == ((), (0, 1))
    assert SftPoint(head=[0, 1, 0, 1], cycle=[0, 1, 0, 1]) == SftPoint((), (0, 1))
    assert len({SftPoint((1, 0), (1, 0)), SftPoint((), (1, 0)), SftPoint((1,), (0, 1))}) == 1
    assert repr(p) == "SftPoint(head=(), cycle=(0, 1))"
    with pytest.raises(AttributeError):
        p.head = (1,)
    for text in ["0 1|1 0", "|0", "1 1 0|1", " 2 |0 1 ", "0 0 0|0 0", "+1 01|\u0661", "300 2|7"]:
        q = parse_point(text)
        assert parse_point(str(q)) == q
    assert parse_point("+1 01|\u0661") == SftPoint((1, 1), (1,)) == SftPoint((), (1,))
    # the parse messages, and the order of the admissibility messages: a
    # symbol out of range is named before a forbidden transition, even one
    # that comes first in the word
    cases = [
        (lambda: parse_point("0 1 0"), SpecError, "point text needs a '|' separator: '0 1 0'"),
        (lambda: parse_point("0 x|1"), SpecError, "bad point text '0 x|1'"),
        (lambda: parse_point("0 1.5|1"), SpecError, "bad point text '0 1.5|1'"),
        (lambda: parse_point("1|"), InvalidPoint, "cycle must be nonempty"),
        (lambda: validate_point(goldenmean, SftPoint((1, 1), (7,))), InvalidPoint,
         "symbol 7 outside vertex range of the graph"),
        (lambda: validate_point(goldenmean, parse_point("-1|0")), InvalidPoint,
         "symbol -1 outside vertex range of the graph"),
        (lambda: validate_point(goldenmean, SftPoint((0, 1, 0), (1, 1))), InvalidPoint,
         "forbidden transition 1->1 in 0 1 0|1"),
        (lambda: validate_point(goldenmean, SftPoint((0,), (1, 1, 0))), InvalidPoint,
         "forbidden transition 1->1 in |0 1 1"),
    ]
    for call, kind, message in cases:
        with pytest.raises(kind) as exc:
            call()
        assert str(exc.value) == message


def _naive_canonical_form(head, cycle):
    """Absorb one head symbol at a time, rotating the cycle each time."""
    head, cycle = tuple(head), tuple(cycle)
    p = len(cycle)
    for d in range(1, p):
        if p % d == 0 and cycle == cycle[:d] * (p // d):
            cycle = cycle[:d]
            break
    while head and head[-1] == cycle[-1]:
        head, cycle = head[:-1], cycle[-1:] + cycle[:-1]
    return head, cycle


def test_canonical_form_matches_one_symbol_at_a_time():
    rng = random.Random(12)
    for _ in range(500):
        cycle = tuple(rng.randrange(3) for _ in range(rng.randint(1, 6)))
        # heads that end in many turns of the cycle, or of a rotation of it
        r = rng.randrange(len(cycle))
        tail = (cycle[r:] + cycle[:r]) * rng.randint(0, 30)
        head = tuple(rng.randrange(3) for _ in range(rng.randint(0, 4))) + tail
        assert canonical_form(head, cycle) == _naive_canonical_form(head, cycle)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(0, 2), max_size=40), st.lists(st.integers(0, 2), min_size=1, max_size=9),
       st.lists(st.integers(0, 2), max_size=20), st.lists(st.integers(0, 2), min_size=1, max_size=9),
       st.integers(0, 60))
def test_first_difference_matches_symbolwise_comparison(xh, xc, yh, yc, i):
    # against the symbols one by one, past every bound; the shift i falls
    # inside x's head and past it
    x, y = SftPoint(xh, xc), SftPoint(yh, yc)
    far = len(xh) + len(yh) + 2 * math.lcm(len(xc), len(yc)) + 1
    want = next((t for t in range(far) if x.symbol(i + t) != y.symbol(t)), None)
    assert first_difference(x, y, i) == want


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(0, 2), max_size=12), st.lists(st.integers(0, 2), min_size=1, max_size=9),
       st.integers(0, 40))
def test_shift_by_is_the_canonical_shifted_point(head, cycle, k):
    # k falls inside the head and past it; the shifted words, read off the
    # symbols from k on and canonicalized, give the tuple shift_by builds
    p = SftPoint(head, cycle)
    lead = max(0, len(p.head) - k)
    words = (tuple(p.symbol(k + t) for t in range(lead)),
             tuple(p.symbol(k + lead + t) for t in range(len(p.cycle))))
    q = shift_by(p, k)
    assert type(q) is SftPoint
    assert tuple(q) == canonical_form(*q) == tuple(SftPoint(*canonical_form(*words)))


def test_distance_is_a_metric_on_samples(full2, goldenmean):
    rng = random.Random(5)
    for g in (full2, goldenmean):
        pts = [random_point(g, rng) for _ in range(8)]
        for x in pts:
            for y in pts:
                dxy = sft_distance(g, x, y)
                assert dxy == sft_distance(g, y, x)
                assert (dxy == 0) == (x == y)
                for z in pts:
                    assert sft_distance(g, x, z) <= dxy + sft_distance(g, y, z)


def test_shift_doubles_small_distances(full2):
    rng = random.Random(6)
    for _ in range(200):
        x = random_point(full2, rng)
        y = random_point(full2, rng)
        d = sft_distance(full2, x, y)
        if 0 < d <= Fraction(1, 2):
            assert sft_distance(full2, shift_by(x, 1), shift_by(y, 1)) == 2 * d


def test_entropy_values(full2, goldenmean):
    assert abs(sft_entropy(full2) - math.log(2)) <= 1e-7
    golden = (1 + math.sqrt(5)) / 2
    assert abs(sft_entropy(goldenmean) - math.log(golden)) <= 1e-7
    loop = SftGraph(((1,),))
    assert sft_entropy(loop) == 0.0


def test_entropy_reducible_graph_takes_max_block():
    # two blocks: a full 2-shift and a disjoint self-loop vertex
    g = SftGraph((
        (1, 1, 0),
        (1, 1, 0),
        (0, 0, 1),
    ))
    assert abs(sft_entropy(g) - math.log(2)) <= 1e-7


def test_graph_period():
    assert graph_period(full_shift(2)) == 1
    four_cycle = SftGraph((
        (0, 1, 0, 0),
        (0, 0, 1, 0),
        (0, 0, 0, 1),
        (1, 0, 0, 0),
    ))
    assert graph_period(four_cycle) == 4


@st.composite
def blocks(draw):
    """An irreducible graph, self-loops added on a drawn vertex subset (none
    or some), and its vertices in a drawn order."""
    g = draw(irreducible_graphs())
    n = g.vertex_count
    loops = draw(st.sets(st.integers(0, n - 1)))
    adj = tuple(tuple(1 if u == v and u in loops else bit for v, bit in enumerate(row))
                for u, row in enumerate(g.adjacency))
    return SftGraph(adj), list(draw(st.permutations(range(n))))


@settings(max_examples=200, deadline=None)
@given(blocks())
def test_sparse_radius_bracket_equals_dense_reference(block):
    from chainscope import sft

    g, nodes = block
    expected = dense_radius_bracket(g.adjacency, nodes, 1e-9, 5000)
    assert expected is not None
    # the same floats, not merely close ones
    assert sft._block_radius_bracket(sft._block_rows(g, nodes), 1e-9, 5000) == expected


@st.composite
def hub_blocks(draw):
    """A strongly connected graph on 20-80 vertices with skewed out-degrees
    (a Hamiltonian cycle, one to three dense hub rows and a few chords),
    self-loops on a drawn vertex subset, and its vertices in a drawn order."""
    rng = draw(st.randoms(use_true_random=False))
    n = rng.randint(20, 80)
    order = rng.sample(range(n), n)
    edges = {(order[i], order[(i + 1) % n]) for i in range(n)}
    for hub in rng.sample(range(n), rng.randint(1, 3)):
        edges.update((hub, v) for v in rng.sample(range(n), rng.randint(n // 4, n)))
    edges.update((rng.randrange(n), rng.randrange(n)) for _ in range(rng.randrange(n // 4)))
    edges.update((v, v) for v in rng.sample(range(n), rng.randrange(n // 2)))
    g = SftGraph(tuple(tuple(int((u, v) in edges) for v in range(n)) for u in range(n)))
    return g, rng.sample(range(n), n)


def ring_with_hub(n: int) -> SftGraph:
    """The n-ring with vertex 0 also pointing at every even vertex."""
    return SftGraph(tuple(tuple(int(v == (u + 1) % n or (u == 0 and v % 2 == 0))
                                for v in range(n)) for u in range(n)))


@settings(max_examples=100, deadline=None)
@given(hub_blocks())
def test_grouped_radius_bracket_equals_row_by_row_reference_on_large_blocks(block):
    from chainscope import sft

    g, nodes = block
    rows = sft._block_rows(g, nodes)
    expected = sparse_radius_bracket(rows, 1e-9, 50_000)
    assert expected is not None
    assert sft._block_radius_bracket(rows, 1e-9, 50_000) == expected


def test_grouped_radius_bracket_on_a_150_vertex_hub_block():
    from chainscope import sft

    rows = sft._block_rows(ring_with_hub(150), list(range(150)))
    assert len({len(row) for row in rows}) == 2  # the hub row and the ring rows
    expected = sparse_radius_bracket(rows, 1e-9, 50_000)
    assert expected is not None
    assert sft._block_radius_bracket(rows, 1e-9, 50_000) == expected


def test_radius_bracket_raises_when_the_iteration_cap_is_reached():
    from chainscope import sft

    rows = sft._block_rows(golden_mean_shift(), [0, 1])
    with pytest.raises(NoConvergence):
        sft._block_radius_bracket(rows, 1e-9, 2)


def test_graph_rows_and_hash_are_built_once():
    adjacency = ((0, 1, 1), (1, 0, 0), (1, 1, 0))
    g, h = SftGraph(adjacency), SftGraph(tuple(map(tuple, map(list, adjacency))))
    assert g.successors(0) == (1, 2) and g.successors(0) is g.successors(0)
    assert g == h and hash(g) == hash(h) and g is not h
    assert g != full_shift(3) and g != adjacency
    assert repr(g) == f"SftGraph(adjacency={adjacency!r})"


def test_graph_structure_is_computed_once_per_graph(monkeypatch):
    from chainscope import graph, sft
    from chainscope.specio import dump_system, system_from_desc

    calls = {"blocks": 0, "classes": 0}

    def counting_blocks(succ):
        calls["blocks"] += 1
        return graph.strongly_connected_components(succ)

    def counting_classes(succ, root, inside=None):
        calls["classes"] += 1
        return graph.classes(succ, root, inside)

    monkeypatch.setattr(sft, "strongly_connected_components", counting_blocks)
    monkeypatch.setattr(sft, "classes", counting_classes)
    g = SftGraph(((0, 1, 0, 0), (0, 0, 1, 1), (1, 0, 0, 0), (1, 0, 0, 0)))
    for _ in range(3):
        assert sft.is_irreducible(g)
        assert graph_period(g) == 3
        assert vertex_classes(g) == (0, 1, 2, 2)
        assert connecting_paths(g, [0, 2], [1, 0]) == [[0, 1], [2, 0]]
    assert calls == {"blocks": 1, "classes": 1}
    h = system_from_desc(dump_system(g))
    assert h == g and hash(h) == hash(g) and h is not g
    # an equal graph keeps its own structure, computed on its first read
    assert graph_period(h) == 3
    assert calls == {"blocks": 2, "classes": 2}


def test_a_reducible_graph_has_blocks_but_no_classes():
    g = SftGraph(((1, 1), (0, 1)))
    assert g.blocks == ((1,), (0,))
    for _ in range(2):
        with pytest.raises(SpecError):
            graph_period(g)


@settings(max_examples=100, deadline=None)
@given(irreducible_graphs())
def test_predecessor_rows_match_the_adjacency(g):
    n = g.vertex_count
    assert g.preds == tuple(tuple(u for u in range(n) if g.is_edge(u, v)) for v in range(n))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_connecting_paths_match_the_per_length_loop(data):
    # phase-compatible coordinates, heading either for one shared target (as
    # the witness merge does) or each for a target of its own
    g = data.draw(irreducible_graphs())
    n, m, classes = g.vertex_count, graph_period(g), vertex_classes(g)
    in_class = [[v for v in range(n) if classes[v] == c] for c in range(m)]
    k = data.draw(st.integers(1, 4))
    if data.draw(st.booleans()):
        start = data.draw(st.integers(0, m - 1))
        currents = [data.draw(st.sampled_from(in_class[start])) for _ in range(k)]
        targets = [data.draw(st.integers(0, n - 1))] * k
    else:
        offset = data.draw(st.integers(0, m - 1))
        currents = [data.draw(st.integers(0, n - 1)) for _ in range(k)]
        targets = [data.draw(st.sampled_from(in_class[(classes[c] + offset) % m]))
                   for c in currents]
    paths = connecting_paths(g, currents, targets)
    assert paths == connector_loop(g, currents, targets)
    for c, t, path in zip(currents, targets, paths):
        for length in range(len(path) + m + 1):
            assert find_exact_path(g, c, t, length) == exact_path(g.adjacency, c, t, length)
    if m > 1 and k > 1:
        # one coordinate a class off: no common length exists
        targets[-1] = data.draw(st.sampled_from(in_class[(classes[targets[-1]] + 1) % m]))
        with pytest.raises(SpecError):
            connector_loop(g, currents, targets)
        with pytest.raises(SpecError):
            connecting_paths(g, currents, targets)
