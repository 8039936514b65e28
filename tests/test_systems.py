import itertools
import re
import time

import pytest
from fractions import Fraction
from math import lcm

from hypothesis import given, settings
from hypothesis import strategies as st

from chainscope import GridMapSpec, compile_finite, discretize, systems
from chainscope.errors import MetricViolation, PartialMap, SpecError
from chainscope.chains import critical_deltas
from chainscope.specio import dump_system, system_from_desc
from chainscope.systems import MAX_EXPONENT, MAX_SCALED_TABLE_BITS, as_fraction, finite_system

from conftest import finite_models, random_system
from oracles import (fraction_levels, fraction_scaled_rows, fraction_table, metric_violation,
                     orbit_floor_bruteforce)


def test_compile_sys3_description():
    sys = compile_finite({
        "points": ["a", "b", "c"],
        "map": {"a": "b", "b": "c", "c": "a"},
        "metric": [],
        "metric_default": "1",
    })
    assert sys.points == ("a", "b", "c")
    assert sys.distance("a", "b") == 1
    assert sys.apply("c") == "a"


def test_triangle_violation_names_triple():
    with pytest.raises(MetricViolation) as exc:
        compile_finite({
            "points": ["a", "b", "c"],
            "map": {"a": "b", "b": "c", "c": "a"},
            "metric": [["a", "b", "5"], ["b", "c", "1"], ["a", "c", "1"]],
        })
    assert exc.value.axiom == "triangle"
    # d(a,b) > d(a,c) + d(c,b)
    assert set(exc.value.witness) == {"a", "b", "c"}


def test_symmetry_and_definiteness():
    with pytest.raises(MetricViolation):
        finite_system(["a", "b"], {"a": "a", "b": "b"}, {("a", "b"): 0})
    # a diagonal entry is kept as given, so only 0 passes
    desc = {"points": ["a", "b"], "map": {"a": "b", "b": "a"},
            "metric": [["a", "b", "1"], ["a", "a", "5"]]}
    with pytest.raises(MetricViolation) as exc:
        compile_finite(desc)
    assert (exc.value.axiom, exc.value.witness) == ("definiteness", ("a", "a"))
    sys = compile_finite(dict(desc, metric=[["a", "b", "1"], ["a", "a", "0"]]))
    assert sys.distance("a", "a") == 0 and sys.distance("a", "b") == 1


# each names its first non-string name; points are checked before the map,
# and the map before the metric.  A null name is named too: it was once
# taken for "no offender", and a null point became the point "None"
@pytest.mark.parametrize("change, where, bad", [
    ({"points": ["a", 2, 3.5]}, "points", "2"),
    ({"points": ["a", None], "map": {"a": "a", "None": "a"}}, "points", "None"),
    ({"map": {"a": "b", "b": 1}}, "map", "1"),
    ({"map": {"a": "b", "b": "a"}, "metric": [["a", "b", "1"], ["b", None, "1"], [4, "a", "1"]]},
     "metric", "None"),
    ({"points": [["a"], "b"], "map": {"a": 1}, "metric": [[2, "b", "1"]]}, "points", "['a']"),
])
def test_non_string_point_names_are_named(change, where, bad):
    desc = dict({"points": ["a", "b"], "map": {"a": "b", "b": "a"},
                 "metric": [["a", "b", "1"]]}, **change)
    with pytest.raises(SpecError) as exc:
        compile_finite(desc)
    assert str(exc.value) == f"finite system spec: {where} names a point by {bad}, not a string"


def test_partial_map_rejected():
    with pytest.raises(PartialMap):
        compile_finite({
            "points": ["a", "b"],
            "map": {"a": "b"},
            "metric": [["a", "b", "1"]],
        })
    with pytest.raises(PartialMap):
        compile_finite({
            "points": ["a", "b"],
            "map": {"a": "b", "b": "zz"},
            "metric": [["a", "b", "1"]],
        })


def test_north_south_valid(sysns):
    assert sysns.apply("t") == "s"
    assert sysns.distance("n", "t") == 1


def test_discretize_quarter_rotation_is_four_cycle():
    sys = discretize(GridMapSpec("rotation", 4, "circle", alpha=Fraction(1, 4)))
    # centers 1/8, 3/8, 5/8, 7/8 map exactly onto the next center
    assert sys.map == {"c0": "c1", "c1": "c2", "c2": "c3", "c3": "c0"}
    assert sys.distance("c0", "c1") == Fraction(1, 4)
    assert sys.distance("c0", "c3") == Fraction(1, 4)  # circle wrap
    assert sys.distance("c0", "c2") == Fraction(1, 2)


def test_a_decimal_grid_alpha_loads_exactly():
    # 7/10 + 1/10 is the cell boundary 4/5, which the float sum 0.7 + 0.1
    # falls short of: read exactly, cell c3 goes to c4
    sys = system_from_desc({"schema": "chainscope-v1", "kind": "grid", "family": "rotation",
                            "cells": 5, "geometry": "circle", "alpha": "0.1"})
    assert sys.map["c3"] == "c4"
    assert sys.map == discretize(GridMapSpec("rotation", 5, "circle", alpha=Fraction(1, 10))).map


def test_discretize_tent_two_cells():
    # T(1/4) = 1/2 and T(3/4) = 1/2: both cells land in the upper cell
    sys = discretize(GridMapSpec("tent", 2, "interval", slope=Fraction(2)))
    assert sys.map == {"c0": "c1", "c1": "c1"}


def test_discretize_rejects_single_cell():
    with pytest.raises(SpecError):
        GridMapSpec("rotation", 1, "circle", alpha=0.6180339887498949)


def test_discretize_tent_matches_direct_evaluation():
    cells = 8
    slope = Fraction(3, 2)
    sys = discretize(GridMapSpec("tent", cells, "interval", slope=slope))
    for i in range(cells):
        center = Fraction(2 * i + 1, 2 * cells)
        image = slope * center if center <= Fraction(1, 2) else slope * (1 - center)
        cell = min(int(image * cells), cells - 1)
        assert sys.map[f"c{i}"] == f"c{cell}"


def test_piecewise_linear_grid():
    spec = GridMapSpec(
        "piecewise-linear", 4, "interval",
        breakpoints=((Fraction(0), Fraction(0)), (Fraction(1, 2), Fraction(1)),
                     (Fraction(1), Fraction(0))))
    sys = discretize(spec)
    # center 1/8 -> 1/4 (cell 1), center 3/8 -> 3/4 (cell 3)
    assert sys.map["c0"] == "c1"
    assert sys.map["c1"] == "c3"


def test_values_are_immutable(sys3):
    import dataclasses

    from chainscope import build_chain_digraph

    with pytest.raises(dataclasses.FrozenInstanceError):
        sys3.points = ()
    # a vertex-shift point is a tuple: tests/test_sft.py::test_point_contract
    dg = build_chain_digraph(sys3, Fraction(1, 2))
    with pytest.raises(dataclasses.FrozenInstanceError):
        dg.delta = Fraction(1)


def test_metric_axioms_swept_for_all_loaded_systems(rotation4, sys3, sysns):
    for sys in (rotation4, sys3, sysns):
        pts = sys.points
        for u in pts:
            assert sys.distance(u, u) == 0
            for v in pts:
                assert sys.distance(u, v) == sys.distance(v, u)
                for w in pts:
                    assert sys.distance(u, w) <= sys.distance(u, v) + sys.distance(v, w)


@st.composite
def distance_tables(draw, factor=1, min_points=1):
    """Full distance table on ``min_points``..7 points with mixed
    denominators, every value times ``factor``: a shortest-path repaired
    metric, or one with a single entry broken (a nonzero diagonal, a zero or
    negative distance, a one-sided change that breaks symmetry, or a
    symmetric change that may break the triangle)."""
    k = draw(st.integers(min_points, 7))
    pts = [f"p{i}" for i in range(k)]
    values = st.builds(lambda a, q: Fraction(a, q) * factor,
                       st.integers(1, 40), st.sampled_from((1, 2, 3, 5, 7, 12)))
    d = {(u, u): Fraction(0) for u in pts}
    for i, u in enumerate(pts):
        for v in pts[i + 1:]:
            d[(u, v)] = d[(v, u)] = draw(values)
    if draw(st.booleans()):
        for m in pts:
            for u in pts:
                for v in pts:
                    d[(u, v)] = min(d[(u, v)], d[(u, m)] + d[(m, v)])
    u, v = draw(st.sampled_from(pts)), draw(st.sampled_from(pts))
    kind = draw(st.sampled_from(("none", "diagonal", "zero", "one-sided", "both")))
    if kind == "diagonal":
        d[(u, u)] = draw(values)
    elif u != v and kind == "zero":
        d[(u, v)] = d[(v, u)] = draw(st.sampled_from((Fraction(0), Fraction(-1, 3))))
    elif u != v and kind == "one-sided":
        d[(u, v)] = draw(values)
    elif u != v and kind == "both":
        d[(u, v)] = d[(v, u)] = draw(values)
    return tuple(pts), d


def _load_table(points, metric):
    return finite_system(points, {u: u for u in points}, metric)


def _loader_violation(points, metric):
    """The sweep's first failed axiom as the loader names it.  The loader
    meets an asymmetric pair at parse, when it reads the second of its two
    keys, so it names (v, u) where the sweep names (u, v)."""
    expected = metric_violation(points, metric)
    if expected is not None and expected[0] == "symmetry":
        return "symmetry", expected[1][::-1]
    return expected


@settings(max_examples=400, deadline=None)
@given(distance_tables())
def test_validate_metric_matches_fraction_sweep(table):
    points, metric = table
    expected = _loader_violation(points, metric)
    if expected is None:
        _load_table(points, metric)
    else:
        with pytest.raises(MetricViolation) as exc:
            _load_table(points, metric)
        assert (exc.value.axiom, exc.value.witness) == expected


# numerator and denominator near 2^70: every table has entries of over 63
# bits once scaled, so triangle lanes would pass 64 bits
WIDE = Fraction(2**70 + 1, 2**70 + 3)


@settings(max_examples=200, deadline=None)
@given(distance_tables(factor=WIDE, min_points=2))
def test_validate_metric_matches_fraction_sweep_on_wide_lanes(table):
    points, metric = table
    expected = _loader_violation(points, metric)
    if expected is None or expected[0] == "triangle":  # the table reaches the lane test
        scale = lcm(*(d.denominator for d in metric.values()))
        assert int(2 * max(metric.values()) * scale).bit_length() + 1 > 64
    if expected is None:
        _load_table(points, metric)
    else:
        with pytest.raises(MetricViolation) as exc:
            _load_table(points, metric)
        assert (exc.value.axiom, exc.value.witness) == expected


LITERALS = st.one_of(
    st.sampled_from(["0", "007", "007/010", "0/5", "0/0", "1/0", "2/000", "1//2", "", "/",
                     "1/", "/2", " 1/2", "1/2\n", "-1/2", "+3", "1_0/2", "1.5", "1e3",
                     "１/２", "٣/4", "²", "9" * 5000, "1e1000", "1e1001", "-2.5E-1001",
                     "1e+1_001", "1e4000000", "1e" + "9" * 5000, "0e١٠٠١"]),
    st.text(alphabet="0123456789/ _+-.e１２٣²", max_size=10),
    st.builds("{}/{}".format, st.integers(0, 10**30), st.integers(0, 10**30)),
)


@settings(max_examples=400, deadline=None)
@given(LITERALS)
def test_as_fraction_reads_strings_like_fraction(literal):
    # Fraction(str) would build the power of ten of an exponent past the
    # bound, in time that grows with the exponent: such a literal is refused
    exponent = re.search(r"[eE][-+]?(\d+(?:_\d+)*)\s*$", literal)
    try:
        past = exponent is not None and int(exponent.group(1)) > MAX_EXPONENT
    except ValueError:  # more digits than int() reads: Fraction(str) refuses it too
        past = True
    if past:
        with pytest.raises(SpecError):
            as_fraction(literal)
        return
    try:
        expected = Fraction(literal)
    except (ValueError, ZeroDivisionError):
        with pytest.raises(SpecError):
            as_fraction(literal)
    else:
        value = as_fraction(literal)
        assert type(value) is Fraction and value == expected


def test_a_huge_exponent_is_refused_before_its_power_is_built():
    start = time.perf_counter()
    with pytest.raises(SpecError, match="exponent"):
        as_fraction("1e4000000")
    assert time.perf_counter() - start < 0.1
    assert as_fraction("1e1000") == 10**1000
    assert as_fraction("-1e-1000") == Fraction(-1, 10**1000)


@pytest.mark.parametrize("value", [True, False])
def test_as_fraction_refuses_a_bool(value):
    with pytest.raises(SpecError):
        as_fraction(value)


# a literal for each branch of rational_pair and of the Fraction path behind
# it, and values that only the mapping form of finite_system passes
BRANCH_VALUES = ["007/010", "0/5", "3", "1/0", "+1/2", " 1/2", "1_0/3", "3.5", "1e3", "²",
                 "１/２", 3, 0, -2, True, Fraction(3, 2), Fraction(-1, 3), 0.1]
# ASCII "p/q" literals in [1, 2], some with leading zeros: with these alone
# every table is a metric
PAIR_VALUES = st.one_of(
    st.sampled_from(BRANCH_VALUES),
    st.builds(lambda q, k, zeros: f"{'0' * zeros}{q + k % (q + 1)}/{q}",
              st.integers(1, 60), st.integers(0, 60), st.integers(0, 2)),
)


@st.composite
def literal_tables(draw):
    """(points, metric, default) on 2..4 points: each pair given once in a
    drawn order (all of them unless there is a default), maybe one given
    again reversed with its own or another value, as a list of entries or
    as a mapping."""
    k = draw(st.integers(2, 4))
    pts = [f"p{i}" for i in range(k)]
    pairs = [(u, v) for i, u in enumerate(pts) for v in pts[i + 1:]]
    default = draw(st.none() | PAIR_VALUES)
    given = pairs if default is None else draw(st.lists(st.sampled_from(pairs), unique=True))
    entries = [(pair if draw(st.booleans()) else pair[::-1], draw(PAIR_VALUES))
               for pair in given]
    if entries and draw(st.booleans()):
        pair, d = draw(st.sampled_from(entries))
        entries.append((pair[::-1], draw(st.just(d) | PAIR_VALUES)))
    return pts, dict(entries) if draw(st.booleans()) else entries, default


def _is_metric(rows):
    n = len(rows)
    return (all((rows[i][j] > 0) == (i != j) and rows[i][j] >= 0
                for i in range(n) for j in range(n))
            and all(rows[i][j] <= rows[i][w] + rows[w][j]
                    for i in range(n) for j in range(n) for w in range(n)))


@settings(max_examples=400, deadline=None)
@given(literal_tables())
def test_a_load_scales_each_pair_as_the_fraction_path_does(table):
    # the int pairs give the scale and rows of the Fraction table, or the
    # same error with the same text
    points, metric, default = table
    loads = [lambda: finite_system(points, {u: u for u in points}, metric, default=default)]
    if isinstance(metric, list):
        desc = {"points": points, "map": {u: u for u in points},
                "metric": [[u, v, d] for (u, v), d in metric], "metric_default": default}
        loads.append(lambda: compile_finite(desc))
    try:
        expected = fraction_scaled_rows(points, metric, default)
    except (SpecError, MetricViolation) as exc:
        for load in loads:
            with pytest.raises(type(exc)) as got:
                load()
            assert type(got.value) is type(exc) and str(got.value) == str(exc)
        return
    for load in loads:
        if _is_metric(expected[1]):
            sys = load()
            assert (sys.scale, sys.rows) == expected
        else:
            with pytest.raises(MetricViolation):
                load()


@st.composite
def lane_rows(draw):
    """(bits, rows): a symmetric table with a zero diagonal on 2..8 points
    whose (2 * largest entry).bit_length() + 1 is ``bits``, drawn up to 8,
    16, 32 or 64 bits or past 64, so the lanes take each of 1 to 8 bytes or
    the wide path.  Most entries lie in [top / 2, top) for top = 2^(bits -
    2), where the triangle inequality holds; the others are drawn from
    [1, top) and may break it."""
    lo, hi = draw(st.sampled_from([(3, 8), (9, 16), (17, 32), (33, 64), (65, 96)]))
    bits = draw(st.integers(lo, hi))
    top = 2 ** (bits - 2)
    k = draw(st.integers(2, 8))
    rows = [[0] * k for _ in range(k)]
    for i in range(k):
        for j in range(i + 1, k):
            low = draw(st.sampled_from((top // 2, top // 2, 1)))
            rows[i][j] = rows[j][i] = draw(st.integers(low, top - 1))
    rows[0][1] = rows[1][0] = top - 1
    return bits, tuple(map(tuple, rows))


@settings(max_examples=400, deadline=None)
@given(lane_rows())
def test_first_broken_pair_matches_the_triple_loop_in_every_lane_size(drawn):
    bits, rows = drawn
    assert (2 * max(map(max, rows))).bit_length() + 1 == bits
    n = len(rows)
    expected = next(((i, j) for i in range(n) for j in range(i + 1, n)
                     if any(rows[i][j] > rows[i][k] + rows[j][k] for k in range(n))), None)
    assert systems._first_broken_pair(rows) == expected


# an unknown name, a bad literal and a second value for a given pair: the
# refusal names whichever comes first among the entries, whatever the order
@pytest.mark.parametrize("order", list(itertools.permutations(range(3))))
@pytest.mark.parametrize("spread", [False, True])
@pytest.mark.parametrize("literal", ["1/0", "1/2/3", "1//2", "x"])
def test_a_refused_metric_names_its_first_offending_entry(order, spread, literal):
    offending = [(["a", "zz", "1"], SpecError, "metric entry for unknown pair ('a', 'zz')"),
                 (["b", "c", literal], SpecError, f"bad rational literal {literal!r}"),
                 (["c", "a", "2/3"], MetricViolation, "metric violates symmetry at ('c', 'a')")]
    good = [["a", "b", "1/2"], ["a", "c", "1/2"], ["b", "c", "1/2"]]
    offenders = [offending[k][0] for k in order]
    # spread: the offenders sit between the good entries, after the pair
    # (a, c) that the third one gives a second value
    metric = ([good[0], good[1], offenders[0], good[2], offenders[1], offenders[2]] if spread
              else [*good, *offenders])
    _, kind, text = offending[order[0]]
    with pytest.raises(kind) as exc:
        compile_finite({"points": ["a", "b", "c"], "map": {"a": "b", "b": "c", "c": "a"},
                        "metric": metric})
    assert type(exc.value) is kind and str(exc.value) == text


# malformed near misses of the "p/q" form, each the only entry of its spec,
# where a batch read that lost count of the slashes would load a value
@pytest.mark.parametrize("literal", ["1/2/3", "1//2", "1/", "/2", "", "1/0", "1 /2", "1,2"])
def test_a_lone_malformed_literal_is_refused(literal):
    with pytest.raises(SpecError) as exc:
        compile_finite({"points": ["a", "b"], "map": {"a": "b", "b": "a"},
                        "metric": [["a", "b", literal]]})
    assert str(exc.value) == f"bad rational literal {literal!r}"


def _metric_with_denominators(qs):
    # four points at distances in (1, 2], so every axiom holds
    pts = [f"p{i}" for i in range(4)]
    pairs = [(u, v) for u in pts for v in pts if u < v]
    metric = {pair: 1 + Fraction(1, qs[i % len(qs)]) for i, pair in enumerate(pairs)}
    return finite_system(pts, {u: u for u in pts}, metric)


def test_validate_metric_refuses_an_oversized_scale():
    # q, q + 2 and q + 4 are odd, so pairwise coprime: their lcm is their
    # product, and 16 scaled entries of about 3 * 2**23 bits pass the cap
    assert 16 * 3 * 2**23 > MAX_SCALED_TABLE_BITS
    q = 2 ** 2**23 + 1
    with pytest.raises(SpecError, match="lcm"):
        _metric_with_denominators((q, q + 2, q + 4))
    q = 2**64 + 1
    sys = _metric_with_denominators((q, q + 2, q + 4))
    assert sys.distance("p0", "p1") == 1 + Fraction(1, q)


def test_a_raw_lcm_past_the_cap_is_decided_on_the_reduced_table():
    # 40 points at distance 1, twenty of them written x/x for distinct
    # 4,000-digit odd x: the lcm of the denominators as written passes the
    # cap of a 40-point table, the lcm of the reduced ones is 1
    names = [f"p{i:02d}" for i in range(40)]
    entries = [[u, v, "1"] for i, u in enumerate(names) for v in names[i + 1:]]
    xs = [10**3999 + 2 * k + 1 for k in range(20)]
    for k, x in enumerate(xs):
        entries[37 * k][2] = f"{x}/{x}"
    assert lcm(*xs).bit_length() * 40**2 > MAX_SCALED_TABLE_BITS
    sys = compile_finite({"points": names, "map": {u: u for u in names}, "metric": entries})
    assert sys.scale == 1 and set(itertools.chain.from_iterable(sys.rows)) == {0, 1}


def test_ranks_sort_and_key_scaled_ints(monkeypatch):
    # 24 points at distinct multiples of 1/997 on a line: the distance ranks
    # compare and hash no Fraction, yet rank the Fraction levels
    import random

    rng = random.Random(24)
    xs = rng.sample(range(1, 997), 24)
    names = [f"q{i:02d}" for i in range(24)]
    metric = {(names[i], names[j]): Fraction(abs(xs[i] - xs[j]), 997)
              for i in range(24) for j in range(24)}
    sys = finite_system(names, {u: names[0] for u in names}, metric)
    counts = {"compare": 0, "hash": 0}
    richcmp, fhash = Fraction._richcmp, Fraction.__hash__

    def counting_richcmp(a, b, op):
        counts["compare"] += 1
        return richcmp(a, b, op)

    def counting_hash(a):
        counts["hash"] += 1
        return fhash(a)

    monkeypatch.setattr(Fraction, "_richcmp", counting_richcmp)
    monkeypatch.setattr(Fraction, "__hash__", counting_hash)
    ranks = sys.ranks
    assert counts == {"compare": 0, "hash": 0}
    monkeypatch.undo()
    levels = fraction_levels(sys)
    assert levels == tuple(sorted(set(metric.values())))
    for u in names:
        assert [levels[r] for r in ranks.rank[u]] == [metric[(u, v)] for v in ranks.names]
        assert [sys.distance(u, v) for v in names] == [metric[(u, v)] for v in names]


def test_a_load_parses_each_literal_once_and_scales_once(monkeypatch):
    # the batch reader reads each of the E metric literals once, and reading
    # the ranks (or a distance) scales the table no second time; a spec of
    # ASCII "p/q" literals and no metric_default loads without building a
    # Fraction
    names = [f"p{i}" for i in range(6)]
    entries = [[names[i], names[j], f"{q + i}/{q}"]  # distances in [1, 2)
               for i in range(6) for j, q in zip(range(i + 1, 6), (7, 8, 9) * 2)]
    counts = {"lcm": 0, "Fraction": 0}
    read = []

    def counting(name, fn):
        def wrapped(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapped

    def reading(values):
        read.extend(values)
        return literals(values)

    literals = systems._literals
    monkeypatch.setattr(systems, "_literals", reading)
    monkeypatch.setattr(systems, "lcm", counting("lcm", systems.lcm))
    monkeypatch.setattr(Fraction, "__new__",
                        staticmethod(counting("Fraction", Fraction.__new__)))
    sys = compile_finite({"points": names, "map": {u: u for u in names}, "metric": entries})
    assert counts["Fraction"] == 0
    assert sorted(read) == sorted(d for _, _, d in entries) and len(entries) == 15
    scaled = counts["lcm"]
    assert scaled > 0
    assert fraction_levels(sys)[0] == 0 and sys.distance("p0", "p1") == 1
    assert counts["lcm"] == scaled


def test_cut_bisects_scaled_ints_like_the_fraction_levels(monkeypatch):
    # the cut of any rational, on a level, between two, below 0 or above the
    # top, equals the bisection over the Fraction levels, and compares no
    # Fraction
    import random
    from bisect import bisect_right

    rng = random.Random(5)
    for sys in [random_system(rng, max_points=9) for _ in range(20)]:
        ranks = sys.ranks
        levels = fraction_levels(sys)
        probes = [*levels, *((a + b) / 2 for a, b in zip(levels, levels[1:])),
                  levels[-1] + Fraction(1, 7), Fraction(-1, 3), Fraction(0), 2]
        counts = {"compare": 0}
        richcmp = Fraction._richcmp

        def counting_richcmp(a, b, op):
            counts["compare"] += 1
            return richcmp(a, b, op)

        monkeypatch.setattr(Fraction, "_richcmp", counting_richcmp)
        cuts = [ranks.cut(d) for d in probes]
        monkeypatch.undo()
        assert counts["compare"] == 0
        assert cuts == [bisect_right(levels, d) - 1 for d in probes]


@settings(max_examples=300, deadline=None)
@given(finite_models())
def test_written_levels_match_the_fraction_levels(sys):
    # the one level reader, every metric literal of a dump and the critical
    # ladder equal the eager Fraction levels they once were read from
    levels = fraction_levels(sys)
    ranks = sys.ranks
    assert len(ranks.scaled) == len(levels)
    assert [ranks.level(r) for r in range(len(levels))] == list(levels)
    table = fraction_table(sys)
    pts = sys.points
    assert dump_system(sys)["metric"] == [[u, v, str(table[(u, v)])]
                                          for i, u in enumerate(pts) for v in pts[i + 1:]]
    steps = {ranks.rank[sys.apply(u)][ranks.index[v]] for u in pts for v in pts}
    assert critical_deltas(sys) == [levels[r] for r in sorted(steps)]
    assert critical_deltas(sys) == sorted({table[(sys.apply(u), v)] for u in pts for v in pts})


@st.composite
def layered_maps(draw):
    """(points, map, metric) on up to 16 points: a permutation, a long
    transient chain x_i -> x_(i-1) onto the fixed point x_0, a random map,
    or cycles of coprime lengths 2, 3 and 5 with every other point sent to
    a random point.  Names are drawn apart from the map's order, and few
    coordinate values make distances tie."""
    n = draw(st.integers(1, 16))
    kind = draw(st.sampled_from(["permutation", "chain", "random", "cycles"]))
    if kind == "permutation":
        f = draw(st.permutations(range(n)))
    elif kind == "chain":
        f = [0, *range(n - 1)]
    elif kind == "random":
        f = draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
    else:
        f, start = [], 0
        for length in (2, 3, 5):
            if start + length <= n:
                f.extend(start + (i + 1) % length for i in range(length))
                start += length
        f.extend(draw(st.lists(st.integers(0, n - 1), min_size=n - start, max_size=n - start)))
    names = draw(st.permutations([f"p{i}" for i in range(n)]))
    xs = draw(st.lists(st.integers(0, 24), min_size=n, max_size=n, unique=True))
    metric = {(names[i], names[j]): abs(xs[i] - xs[j]) for i in range(n) for j in range(i + 1, n)}
    return names, {names[i]: names[f[i]] for i in range(n)}, metric


@settings(max_examples=300, deadline=None)
@given(layered_maps())
def test_orbit_floor_matches_pair_orbit_walks(spec):
    sys = finite_system(*spec)
    assert sys.orbit_floor == orbit_floor_bruteforce(sys)
