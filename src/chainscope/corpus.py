"""Built-in example systems used by tests, docs, and the CLI corpus command."""

from __future__ import annotations

from fractions import Fraction

from .errors import SpecError
from .sft import SftGraph, full_shift
from .systems import FiniteSystem, GridMapSpec, discretize, finite_system


def sys3() -> FiniteSystem:
    """Three points on a rigid 3-cycle, all distances 1."""
    return finite_system(
        ["a", "b", "c"],
        {"a": "b", "b": "c", "c": "a"},
        {("a", "b"): 1, ("a", "c"): 1, ("b", "c"): 1},
    )


def sysns() -> FiniteSystem:
    """North-south style system: two fixed points and one falling node."""
    return finite_system(
        ["n", "s", "t"],
        {"n": "n", "s": "s", "t": "s"},
        {("n", "s"): 1, ("n", "t"): 1, ("s", "t"): 1},
    )


def sys2id() -> FiniteSystem:
    """Identity on two points at distance 1."""
    return finite_system(["p", "q"], {"p": "p", "q": "q"}, {("p", "q"): 1})


def full_two_shift() -> SftGraph:
    return full_shift(2)


def golden_mean_shift() -> SftGraph:
    """No two consecutive 1s: adjacency rows (1, 1), (1, 0)."""
    return SftGraph(((1, 1), (1, 0)))


def rotation_quarter_grid() -> FiniteSystem:
    """Circle rotation by 1/4 discretized on 4 cells: the 4-cycle permutation."""
    return discretize(GridMapSpec("rotation", 4, "circle", alpha=Fraction(1, 4)))


def tent_grid(cells: int = 8) -> FiniteSystem:
    return discretize(GridMapSpec("tent", cells, "interval", slope=Fraction(2)))


CORPUS = {
    "sys3": sys3,
    "sysns": sysns,
    "sys2id": sys2id,
    "full2": full_two_shift,
    "goldenmean": golden_mean_shift,
    "rotation4": rotation_quarter_grid,
    "tent8": tent_grid,
}


def corpus_names() -> list[str]:
    return sorted(CORPUS)


def load_corpus(name: str):
    if name not in CORPUS:
        raise SpecError(f"unknown corpus system {name!r}; known: {corpus_names()}")
    return CORPUS[name]()
