"""Forward-orbit limit sets and basin partitions at a fixed resolution.

Every point's forward orbit in a finite system is a rho, a transient that
enters a cycle (``graph.rho``); that cycle is chain transitive, hence
contained in a single chain component, found from its first point.  The
component basin of x is the component holding its limit cycle; the class
basin refines this by the phase at which the orbit tracks the moving cyclic
classes.  The phase is computed at the orbit's settle time (first index from
which the orbit stays inside the component) and is settle-time independent,
because each in-component step advances the class by one.
"""

from __future__ import annotations

from fractions import Fraction
from typing import TYPE_CHECKING, Mapping, NamedTuple, Sequence

from .errors import OmegaNotInComponent
from .graph import rho
from .systems import FiniteSystem

if TYPE_CHECKING:
    from .cyclic import CyclicDecomposition


class BasinAssignment(NamedTuple):
    """Component and class basin membership for every node at one resolution."""

    delta: Fraction
    components: tuple[frozenset[str], ...]
    decompositions: tuple[CyclicDecomposition, ...]
    component_of: Mapping[str, int]
    class_of_basin: Mapping[str, tuple[int, int]]
    omega: Mapping[str, frozenset[str]]
    settle_time: Mapping[str, int]


def assign_basins(sys: FiniteSystem,
                  decompositions: Sequence[CyclicDecomposition]) -> BasinAssignment:
    """Assign every node to its component basin and class basin.

    The class phase of x is (class(orbit[T]) - T) mod m, with T the settle
    time.  Past T every step orbit[t] -> f(orbit[t]) is an edge inside the
    component, and every such edge advances the class by one mod m, so the
    value is the same at every t >= T.  ``decompositions`` holds those of
    every chain component at one resolution, in ``chain_components`` order
    (``LadderWalk.decompositions``); it is never empty, as every orbit ends
    in a cycle.
    """
    decomps = tuple(decompositions)
    comps = tuple(dec.component for dec in decomps)
    comp_of = {u: i for i, comp in enumerate(comps) for u in comp}
    component_of: dict[str, int] = {}
    class_of_basin: dict[str, tuple[int, int]] = {}
    omega: dict[str, frozenset[str]] = {}
    settle: dict[str, int] = {}
    for x in sys.points:
        orbit, cyc_start = rho(sys.apply, x)
        limit = omega[x] = frozenset(orbit[cyc_start:])
        ci = comp_of.get(orbit[cyc_start])
        if ci is None or not limit <= comps[ci]:
            raise OmegaNotInComponent(f"omega set of {x!r} is split across components")
        component_of[x] = ci
        # settle time: last exit from the component, scanned backwards from
        # the cycle (the cycle itself always lies inside)
        T = cyc_start
        while T > 0 and orbit[T - 1] in comps[ci]:
            T -= 1
        settle[x] = T
        dec = decomps[ci]
        class_of_basin[x] = (ci, (dec.class_of[orbit[T]] - T) % dec.period)
    return BasinAssignment(decomps[0].delta, comps, decomps, component_of,
                           class_of_basin, omega, settle)


class PartitionReport(NamedTuple):
    ok: bool
    violations: tuple[str, ...]


def verify_partition_laws(ba: BasinAssignment) -> PartitionReport:
    """Check the basin partition laws directly.

    (a) component basins partition the nodes; (b) class basins partition each
    component basin; (c) phase law: beyond the settle time, the orbit's class
    advances by one per step from the assigned phase.
    """
    sys = ba.decompositions[0].system
    violations: list[str] = []
    assigned = set(ba.component_of)
    if assigned != set(sys.points):
        violations.append(f"(a) unassigned nodes: {sorted(set(sys.points) - assigned)}")
    for x, ci in ba.component_of.items():
        cj, phase = ba.class_of_basin[x]
        if ci != cj:
            violations.append(f"(b) {x!r} has component {ci} but class basin in {cj}")
        dec = ba.decompositions[ci]
        if not 0 <= phase < dec.period:
            violations.append(f"(b) {x!r} phase {phase} outside 0..{dec.period - 1}")
    for x in sys.points:
        ci, phase = ba.class_of_basin[x]
        comp = ba.components[ci]
        dec = ba.decompositions[ci]
        class_of, period = dec.class_of, dec.period  # read once, outside the walk
        T = ba.settle_time[x]
        horizon = T + len(comp) + period + 2
        u = x
        for _ in range(T):
            u = sys.apply(u)
        for i in range(T, horizon):
            if u not in comp:
                violations.append(f"(c) orbit of {x!r} leaves its component at step {i}")
                break
            if class_of[u] != (phase + i) % period:
                violations.append(f"(c) phase law fails for {x!r} at step {i}")
                break
            u = sys.apply(u)
    return PartitionReport(not violations, tuple(violations))
