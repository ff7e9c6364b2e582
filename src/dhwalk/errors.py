"""Exception taxonomy.

A refusal of a file or a data set is a ``DhwalkError``: the CLI maps a
``ScenarioFormatError`` to its parse exit code, and a ``WalkError`` (a refused
wall crossing, whose ``kind`` names the refusal) or the ``PreconditionError``
of data that fails validation to its refusal exit code.  A library argument
outside its function's domain (a class of the wrong rank, a moment value
outside a family's interval, a class that cannot be blown down, a float) is a
``ValueError``.  No command passes one, so one that escapes a command is a bug:
the CLI maps it, an ``InternalInvariantError`` and anything else escaping the
library to its internal-error exit code.
"""

from __future__ import annotations


class DhwalkError(Exception):
    """Base class for all deliberate errors raised by this package."""


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


class InternalInvariantError(DhwalkError):
    """An internal consistency check failed.  Always a bug."""
