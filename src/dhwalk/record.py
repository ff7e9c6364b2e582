"""The immutable value base of every record in the package.

A record lists its fields in ``__slots__``; slots whose names start with an
underscore are caches, outside equality, hashing and ``repr``.  Each subclass
gets one C-level ``operator.attrgetter`` key over its compared fields, which
``==`` and ``hash`` use; a ``Name(field=value, ...)`` repr; a positional
``__init__``; and ``AttributeError`` on assignment or deletion.  A record
with defaults or checks, or one a walk builds dozens of times (``walk``'s
``CrossingEvent`` and ``FinalCheck``: half the cost of the generic loop),
writes its own ``__init__`` and sets fields with ``set_field``.  Records are
plain classes on purpose: no decorator generates and compiles functions per
class at import, which was most of the cold start of a CLI call.
"""

from operator import attrgetter

#: sets a field from a constructor, past the blocked ``__setattr__``
set_field = object.__setattr__


class Record:
    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(name for name in cls.__slots__ if not name.startswith("_"))
        cls._key = attrgetter(*cls._fields)

    def __init__(self, *values):
        if len(values) != len(self._fields):
            raise TypeError(
                f"{type(self).__name__} takes {len(self._fields)} fields, got {len(values)}"
            )
        for name, value in zip(self._fields, values):
            set_field(self, name, value)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key(self) == self._key(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
