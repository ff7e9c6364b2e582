"""Every record is an immutable value: equality, hashing, repr, frozen fields.

The records are found by walking ``Record.__subclasses__()`` after importing
every module of the package and the test oracles, so a new record is checked
without being listed.
"""

import importlib
import pkgutil

import pytest

import dhwalk
from dhwalk.family import AffineClassFamily, ConeCheck, Interval
from dhwalk.lattice import default_lattice
from dhwalk.record import Record
from dhwalk.rigidity import RigidityFact
from dhwalk.walk import CrossingEvent, FinalCheck, WalkTrace

for _info in pkgutil.iter_modules(dhwalk.__path__):
    importlib.import_module(f"dhwalk.{_info.name}")
importlib.import_module("testutil")  # its oracle records (``MarkedArea``) are records too


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


RECORDS = sorted(set(_subclasses(Record)), key=lambda c: (c.__module__, c.__qualname__))


def make(cls, values):
    """An instance with the given slot values, past any constructor checks."""
    obj = object.__new__(cls)
    for name, value in zip(cls.__slots__, values):
        object.__setattr__(obj, name, value)
    return obj


def compared(cls):
    return [name for name in cls.__slots__ if not name.startswith("_")]


def test_every_record_is_found():
    names = {c.__qualname__ for c in RECORDS}
    assert {"LatticeClass", "IntersectionLattice", "AffineClassFamily", "WalkTrace"} <= names
    assert {"FixedPointData", "RigidityFact", "Certificate", "WeakVerdict"} <= names
    assert len(RECORDS) >= 28


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__qualname__)
def test_value_semantics(cls):
    values = [("value", i) for i in range(len(cls.__slots__))]
    a, b = make(cls, values), make(cls, values)
    assert a == b and not a != b and hash(a) == hash(b)
    assert a != object()
    for i, name in enumerate(cls.__slots__):
        changed = make(cls, values[:i] + [("other", i)] + values[i + 1 :])
        if name.startswith("_"):  # a cache: never compared
            assert changed == a and hash(changed) == hash(a), name
        else:
            assert changed != a, name
    assert not hasattr(a, "__dict__")
    for name in cls.__slots__ + ("extra",):
        with pytest.raises(AttributeError):
            setattr(a, name, 0)
        with pytest.raises(AttributeError):
            delattr(a, name)
    assert a == b


@pytest.mark.parametrize(
    "cls", [c for c in RECORDS if c.__repr__ is Record.__repr__], ids=lambda c: c.__qualname__
)
def test_repr_names_every_compared_field(cls):
    values = dict(zip(cls.__slots__, range(len(cls.__slots__))))
    body = ", ".join(f"{name}={values[name]!r}" for name in compared(cls))
    assert repr(make(cls, values.values())) == f"{cls.__qualname__}({body})"


#: the records a walk builds dozens of times, each with its own positional ``__init__``
HOT_RECORDS = [CrossingEvent, FinalCheck]


@pytest.mark.parametrize("cls", HOT_RECORDS, ids=lambda c: c.__qualname__)
def test_a_hot_record_is_built_as_the_generic_constructor_builds_it(cls):
    assert cls.__init__ is not Record.__init__
    values = [("value", i) for i in range(len(cls.__slots__))]
    built, made = cls(*values), make(cls, values)
    assert built == made and hash(built) == hash(made) and repr(built) == repr(made)


def test_positional_constructor_checks_the_field_count():
    for cls in HOT_RECORDS:
        n = len(cls._fields)
        assert cls(*range(n)) == cls(*range(n)), cls
        for wrong in (n - 1, n + 1):
            with pytest.raises(TypeError):
                cls(*range(wrong))


@pytest.mark.parametrize("cls", [ConeCheck, RigidityFact, WalkTrace], ids=lambda c: c.__qualname__)
def test_the_generic_constructor_refuses_a_wrong_field_count_naming_the_record(cls):
    assert cls.__init__ is Record.__init__
    n = len(cls._fields)
    assert cls(*range(n)) == make(cls, range(n))
    for wrong in (n - 1, n + 1):
        with pytest.raises(TypeError, match=f"^{cls.__name__} takes {n} fields, got {wrong}$"):
            cls(*range(wrong))


def test_lattice_equality_ignores_the_cached_diagonal():
    a, b = default_lattice(3), default_lattice(3)
    assert a._diagonal == (1, -1, -1, -1)
    object.__setattr__(b, "_diagonal", None)
    assert a == b and hash(a) == hash(b)
    assert repr(a) == "IntersectionLattice(labels=L/E1/E2/E3)"


def _caches(family):
    return family._frame, family._row, family._volume_nums


def test_family_equality_ignores_the_cached_area_table():
    lat = default_lattice(1)
    f1 = AffineClassFamily(lat, lat.cls(0, 2), lat.cls(1, -1), Interval(2, 3))
    f2 = AffineClassFamily(lat, lat.cls(0, 2), lat.cls(1, -1), Interval(2, 3))
    table = f1.frame, f1.row, f1.volume_nums
    assert all(a is b for a, b in zip(_caches(f1), table)) and _caches(f2) == (None,) * 3
    assert f1 == f2 and hash(f1) == hash(f2)
    # nothing cached depends on the interval, so a restriction shares it
    assert all(a is b for a, b in zip(_caches(f1.with_interval(Interval(2, 5))), table))
    assert (f2.frame, f2.row, f2.volume_nums) == table
