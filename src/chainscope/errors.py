"""Exception hierarchy shared by all analysis modules.

Exit-code mapping used by the CLI: validation errors exit 2, budget errors
exit 3, internal invariant failures exit 4.
"""

from __future__ import annotations


class ChainscopeError(Exception):
    """Base class for all library errors."""


# -- validation errors (CLI exit code 2) -------------------------------------

class ValidationError(ChainscopeError):
    """Bad input: malformed spec, invalid value, violated precondition."""


class MetricViolation(ValidationError):
    """A metric axiom fails; carries the axiom name and a witness triple."""

    def __init__(self, axiom: str, witness: tuple) -> None:
        self.axiom = axiom
        self.witness = witness
        super().__init__(f"metric violates {axiom} at {witness}")


class PartialMap(ValidationError):
    def __init__(self, point: str) -> None:
        self.point = point
        super().__init__(f"map is not defined at point {point!r}")


class InvalidPoint(ValidationError):
    """A symbolic point is not admissible on the given graph."""


class NotAComponent(ValidationError):
    """The node set is not a chain component of the digraph."""


class EmptyLadder(ValidationError):
    """A resolution ladder must contain at least one value."""


class HorizonTooSmall(ValidationError):
    """Window horizon is too short for the requested test parameters."""


class StepViolation(ValidationError):
    """A pseudo-orbit step error exceeds the declared tolerance."""

    def __init__(self, index: int, error) -> None:
        self.index = index
        self.error = error
        super().__init__(f"step {index} has error {error}")


class PrecisionViolation(ValidationError):
    """A pseudo-orbit step error exceeds the declared agreement depth."""

    def __init__(self, index: int, error) -> None:
        self.index = index
        self.error = error
        super().__init__(f"step {index} has error {error} beyond requested depth")


class ClassMismatch(ValidationError):
    """Endpoints lie in incompatible cyclic classes; no splice exists."""


class NotIrreducible(ValidationError):
    """Operation requires a strongly connected symbol graph."""


class SpecError(ValidationError):
    """A system spec file is malformed."""


# -- budget errors (CLI exit code 3) ------------------------------------------

class BudgetExceeded(ChainscopeError):
    """An enumeration hit its budget before reaching a definite answer."""

    def __init__(self, message: str, *, spent: int | None = None) -> None:
        self.spent = spent
        super().__init__(message)


class NoConvergence(BudgetExceeded):
    """Iterative numeric routine hit its iteration cap."""


# -- internal invariant failures (CLI exit code 4) -----------------------------

class InternalError(ChainscopeError):
    """A should-be-impossible condition was observed."""


class InvariantViolation(InternalError):
    """A computed structure broke an invariant its construction guarantees."""


class OmegaNotInComponent(InternalError):
    """A forward-orbit limit cycle escaped every chain component."""


class AdmissibilityBug(InternalError):
    """A constructed symbolic point failed its own admissibility check."""


class MonotonicityBug(InternalError):
    """Exact family verdicts violated the inclusion chain."""
