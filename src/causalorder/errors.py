"""Exception types raised across the library."""

from __future__ import annotations

__all__ = [
    "CausalOrderError",
    "InvalidRelation",
    "NotReflexive",
    "NotAntisymmetric",
    "NotTransitive",
    "GroundSetTooLarge",
    "InvalidReversal",
    "NoCausalSuperset",
    "NotClosed",
    "TheoremViolation",
    "NotRegular",
    "NotCongruentDecidable",
    "MissingValue",
    "DimensionMismatch",
    "UnsupportedDimension",
]


class CausalOrderError(Exception):
    """Base class for all library errors."""


class InvalidRelation(CausalOrderError):
    """The supplied relation matrix is not a partial order."""


class NotReflexive(InvalidRelation):
    def __init__(self, index: int):
        self.witness = (index,)
        super().__init__(f"relation is not reflexive at index {index}")


class NotAntisymmetric(InvalidRelation):
    def __init__(self, i: int, j: int):
        self.witness = (i, j)
        super().__init__(
            f"relation is not antisymmetric: indices {i} and {j} precede each other"
        )


class NotTransitive(InvalidRelation):
    def __init__(self, i: int, j: int, k: int):
        self.witness = (i, j, k)
        super().__init__(
            f"relation is not transitive: {i} <= {j} <= {k} but not {i} <= {k}"
        )


class GroundSetTooLarge(CausalOrderError):
    """An exhaustive scan was requested beyond its size cap."""

    def __init__(self, n: int, cap: int, what: str):
        self.n = n
        self.cap = cap
        super().__init__(f"{what} is capped at {cap} points, got {n}")


class InvalidReversal(CausalOrderError):
    """A point-map reversal is not an order-reversing involution."""


class NoCausalSuperset(CausalOrderError):
    """No set of the requested kind contains the union of the operands."""


class NotClosed(CausalOrderError):
    """The intersection of all supersets of the requested kind fails the
    kind check, so a smallest superset does not exist.  Carries the
    intersection as a diagnostic."""

    def __init__(self, message: str, intersection_mask: int):
        self.intersection_mask = intersection_mask
        super().__init__(message)


class TheoremViolation(CausalOrderError):
    """An asserted consequence of the checked preconditions failed.

    Surfaced loudly, never absorbed: it means either an implementation
    bug or a counterexample to the asserted property."""


class NotRegular(CausalOrderError):
    """The operation requires a regular ribbon."""


class NotCongruentDecidable(CausalOrderError):
    """A causal union needed by the congruence test is undefined, so the
    verdict is neither true nor false."""


class MissingValue(CausalOrderError):
    """A measure table lacks a value required by the verification."""


class DimensionMismatch(CausalOrderError):
    """Two events (or an event and a config) disagree on dimension."""


class UnsupportedDimension(CausalOrderError):
    """The operation is only defined in a specific spatial dimension."""
