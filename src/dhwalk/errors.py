"""Exception taxonomy.

Every failure mode the engine can report deliberately is a subclass of
``DhwalkError``; anything else escaping the library is a bug (the CLI maps it
to its "internal invariant breach" exit code).  A refused wall crossing is one
``WalkError`` whose ``kind`` names the refusal; the CLI maps it, and the
``PreconditionError`` of data that fails validation, to its refusal exit code.
"""

from __future__ import annotations


class DhwalkError(Exception):
    """Base class for all deliberate errors raised by this package."""


class DimensionError(DhwalkError):
    """A class vector does not match the rank of the lattice it is used with."""


class InvalidBlowDownError(DhwalkError):
    """A class to blow down is not integral, or not exceptional."""


class DomainError(DhwalkError):
    """A moment value lies outside the interval a family is defined on."""


class ScenarioFormatError(DhwalkError):
    """A scenario file violates the strict JSON schema."""


class PreconditionError(DhwalkError):
    """An operation was invoked on data that fails its stated preconditions."""


# The closed set of reasons a wall crossing is refused, one per refusal site of the walk.
WALK_REFUSALS = (
    "no vanishing class", "euler pairing", "cone", "undeclared wall", "surface rank",
    "surface class", "adjunction", "surface area", "leftover vanishing class",
    "blow-up limit", "surface extremum",
)


class WalkError(DhwalkError):
    """A wall crossing was refused: the critical value of the failing wall and the
    refusal's ``kind``, one of ``WALK_REFUSALS``."""

    def __init__(self, message: str, wall, kind: str):
        super().__init__(f"at wall {wall}: {message}")
        self.wall, self.kind = wall, kind


class GluingError(DhwalkError):
    """Two walk traces disagree at the seam they are being glued along."""


class InternalInvariantError(DhwalkError):
    """An internal consistency check failed.  Always a bug."""
