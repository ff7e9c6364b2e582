"""Exception taxonomy.

Every failure mode the engine can report deliberately is a subclass of
``DhwalkError``; anything else escaping the library is a bug (the CLI maps it
to its "internal invariant breach" exit code).
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


class WalkError(DhwalkError):
    """A wall crossing failed; carries the critical value of the failing wall."""

    def __init__(self, message: str, wall=None):
        if wall is not None:
            message = f"at wall {wall}: {message}"
        super().__init__(message)
        self.wall = wall


class WallMismatchError(WalkError):
    """A declared blow-down wall does not coincide with a vanishing exceptional area."""


class EulerInconsistencyError(WalkError):
    """The incoming Euler class violates the forced pairing at a blow-down."""


class InconsistentDataError(WalkError):
    """Crossing produced a state outside the symplectic cone."""


class SurfaceRankError(WalkError, DimensionError):
    """A declared surface class does not match the rank of the reduced space at its level."""


class UnsupportedExtremumError(WalkError):
    """An extremal fixed component of a shape the engine does not model."""


class GluingError(DhwalkError):
    """Two walk traces disagree at the seam they are being glued along."""


class BootstrapError(DhwalkError):
    """Recovery of full fixed point data failed; carries the failing level."""

    def __init__(self, message: str, level=None):
        if level is not None:
            message = f"at level {level}: {message}"
        super().__init__(message)
        self.level = level


class InternalInvariantError(DhwalkError):
    """An internal consistency check failed.  Always a bug."""
