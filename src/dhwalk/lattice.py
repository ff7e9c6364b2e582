"""Exact integer lattice algebra for second cohomology of rational surfaces.

The objects here model H^2 of a 4-manifold as a unimodular lattice with its
intersection pairing and a distinguished canonical class.  The default basis
is the plane-with-k-blow-ups one: ``(L, E1, ..., Ek)`` with pairing
``diag(+1, -1, ..., -1)`` and canonical class ``-3L + sum(E_i)``.  General
unimodular lattices (notably the even rank-2 lattice of a sphere product) are
supported too, because blowing down a class like ``L-E1-E2`` lands outside the
default family.

Everything is exact: a class stores integer numerators over one shared
positive denominator (reduced by their common gcd, so equal classes have
equal data) and grams are integer.  ``IntersectionLattice.dot`` pairs
numerators as a plain integer; ``pair`` divides that by the denominators into
one ``Fraction`` for callers that emit or fingerprint the value.  Sign tests
and transfer maps (the blow-down pushforward, basis changes) stay on
numerators.  Classes, lattices and maps are immutable records
(``record.Record``); each gram is validated (square, symmetric, unimodular)
once per process; the lattices a walk moves through (default, hyperbolic,
blown up, re-presented) and its blow-down maps are built once and shared.

On a default basis with k <= 8 blow-ups the exceptional classes (C.C = -1 =
C.K) and the ruling classes (C.C = 0, C.K = -2) are the complete, closed-form
lists of the del Pezzo surfaces (Manin, *Cubic Forms*, ch. IV): each is one
orbit of the Weyl group W(E_k), generated here by its simple reflections.
Blowing down an exceptional class on such a basis is closed-form too: the
downstairs basis is an orbit member of ``L`` and the exceptional classes
orthogonal to it and to the contracted class.  The bounded coefficient-box
searches remain only for non-default grams (marked classes, blow-downs and
the re-coordination of, e.g., blown-up sphere products); they use
deterministic tie-breaking, so identical inputs give identical bases.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from operator import mul
from typing import Iterable, Optional, Sequence

from .errors import (
    DimensionError,
    InternalInvariantError,
    InvalidBlowDownError,
    PreconditionError,
    SearchExhaustedError,
    UnsupportedMoveError,
)
from .formatting import fmt_combination, fmt_vector
from .record import Record, set_field

#: Coefficient box of the bounded searches, which run on non-default grams
#: only: their marked classes, their blow-downs and their re-coordination.
#: Default grams with at most ``FINITE_BLOWUP_LIMIT`` blow-ups never use it:
#: their marked classes and blow-down bases are closed-form orbits.
DEFAULT_SEARCH_BOX = 3

#: Largest blow-up count with finitely many exceptional classes: the plane
#: blown up at nine or more points carries infinitely many.  Up to it the
#: default-basis lists are complete.
FINITE_BLOWUP_LIMIT = 8


# ---------------------------------------------------------------------------
# exact linear algebra on tiny matrices (tuples of tuples)
# ---------------------------------------------------------------------------


def _identity(n: int) -> list[list[Fraction]]:
    return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]


def _det(m) -> Fraction:
    n = len(m)
    a = [[Fraction(m[i][j]) for j in range(n)] for i in range(n)]
    det = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if a[r][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            a[col], a[pivot] = a[pivot], a[col]
            det = -det
        det *= a[col][col]
        inv = 1 / a[col][col]
        for r in range(col + 1, n):
            f = a[r][col] * inv
            if f:
                for c in range(col, n):
                    a[r][c] -= f * a[col][c]
    return det


@lru_cache(maxsize=None)
def _int_inverse(m) -> tuple[tuple[int, ...], ...]:
    """The inverse of a unimodular integer matrix, which is integral; once per matrix."""
    n = len(m)
    a = [[Fraction(m[i][j]) for j in range(n)] for i in range(n)]
    inv = _identity(n)
    for col in range(n):
        pivot = next((r for r in range(col, n) if a[r][col] != 0), None)
        if pivot is None:
            raise InternalInvariantError("singular matrix passed to _int_inverse")
        a[col], a[pivot] = a[pivot], a[col]
        inv[col], inv[pivot] = inv[pivot], inv[col]
        f = 1 / a[col][col]
        a[col] = [x * f for x in a[col]]
        inv[col] = [x * f for x in inv[col]]
        for r in range(n):
            if r != col and a[r][col]:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
                inv[r] = [x - f * y for x, y in zip(inv[r], inv[col])]
    if any(x.denominator != 1 for row in inv for x in row):
        raise InternalInvariantError("matrix passed to _int_inverse is not unimodular")
    return tuple(tuple(int(x) for x in row) for row in inv)


def _mat_vec(m: Sequence[Sequence[int]], v: Sequence[int]) -> tuple[int, ...]:
    return tuple(sum(map(mul, row, v)) for row in m)


def _kernel_of_functional(v: Sequence[int]) -> list[tuple[int, ...]]:
    """Basis of the integer kernel of a primitive linear functional.

    Returns r-1 integer vectors spanning ``{x : v.x = 0}`` as a direct
    summand, via a deterministic column-gcd sweep.
    """
    r = len(v)
    cols = [[int(i == j) for i in range(r)] for j in range(r)]
    w = [int(x) for x in v]
    for j in range(1, r):
        p, q = w[0], w[j]
        if q == 0:
            continue
        g, a, b = _xgcd(p, q)
        col0 = [a * cols[0][i] + b * cols[j][i] for i in range(r)]
        colj = [(-q // g) * cols[0][i] + (p // g) * cols[j][i] for i in range(r)]
        cols[0], cols[j] = col0, colj
        w[0], w[j] = g, 0
    if abs(w[0]) != 1:
        raise InternalInvariantError(f"functional {v} is not primitive")
    return [tuple(cols[j]) for j in range(1, r)]


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """gcd and Bezout coefficients, deterministic for all sign combinations."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    assert old_r == gcd(a, b)
    return old_r, old_s, old_t


@lru_cache(maxsize=None)
def gram_signature(gram: Sequence[Sequence[int]]) -> tuple[int, int]:
    """``(n_plus, n_minus)`` of a nondegenerate symmetric matrix, exactly.

    Computed by congruence diagonalisation over the rationals; no floating
    point is involved.  The argument must be a tuple of tuples (hashable).
    """
    n = len(gram)
    a = [[Fraction(gram[i][j]) for j in range(n)] for i in range(n)]
    pos = neg = 0
    for i in range(n):
        if a[i][i] == 0:
            j = next((j for j in range(i + 1, n) if a[j][j] != 0), None)
            if j is not None:
                for row in a:
                    row[i], row[j] = row[j], row[i]
                a[i], a[j] = a[j], a[i]
            else:
                j = next((j for j in range(i + 1, n) if a[i][j] != 0), None)
                if j is None:
                    raise InternalInvariantError("degenerate gram in signature computation")
                for k in range(n):
                    a[i][k] += a[j][k]
                for k in range(n):
                    a[k][i] += a[k][j]
        p = a[i][i]
        if p > 0:
            pos += 1
        else:
            neg += 1
        for r in range(i + 1, n):
            f = a[r][i] / p
            if f:
                for c in range(n):
                    a[r][c] -= f * a[i][c]
                for c in range(n):
                    a[c][r] -= f * a[c][i]
    return pos, neg


# ---------------------------------------------------------------------------
# classes and lattices
# ---------------------------------------------------------------------------


class LatticeClass(Record):
    """A cohomology class as a coefficient vector in some lattice basis.

    Stored as integer numerators ``nums`` over one positive denominator
    ``den`` with ``gcd(den, *nums) == 1``, so the stored data is a function
    of the value and equality and hashing are value-based.  ``coeffs`` gives
    the coefficients as ``Fraction``s.
    """

    __slots__ = ("nums", "den")

    def __init__(self, coeffs: Iterable):
        coeffs = tuple(coeffs)
        if all(type(c) is int for c in coeffs):
            nums, den = coeffs, 1
        else:
            fracs = [Fraction(c) for c in coeffs]
            den = lcm(*(f.denominator for f in fracs))
            nums = tuple(f.numerator * (den // f.denominator) for f in fracs)
        set_field(self, "nums", nums)
        set_field(self, "den", den)

    @classmethod
    def _of(cls, nums: tuple[int, ...], den: int) -> "LatticeClass":
        """Build from integer numerators over ``den > 0``, reducing by the gcd."""
        if den != 1:
            g = gcd(den, *nums)
            if g != 1:
                nums = tuple(n // g for n in nums)
                den //= g
        out = object.__new__(cls)
        set_field(out, "nums", nums)
        set_field(out, "den", den)
        return out

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        den = self.den
        return tuple(Fraction(n, den) for n in self.nums)

    @property
    def rank(self) -> int:
        return len(self.nums)

    @property
    def is_integral(self) -> bool:
        return self.den == 1

    def integer_coeffs(self) -> tuple[int, ...]:
        if self.den != 1:
            raise ValueError(f"class {self} is not integral")
        return self.nums

    def _common(self, other: "LatticeClass") -> tuple[int, int, int]:
        """Common denominator and the factors lifting each side onto it."""
        if self.rank != other.rank:
            raise DimensionError(f"rank mismatch: {self.rank} vs {other.rank}")
        if self.den == other.den:
            return self.den, 1, 1
        den = lcm(self.den, other.den)
        return den, den // self.den, den // other.den

    def __add__(self, other: "LatticeClass") -> "LatticeClass":
        den, sa, sb = self._common(other)
        return LatticeClass._of(tuple(a * sa + b * sb for a, b in zip(self.nums, other.nums)), den)

    def __sub__(self, other: "LatticeClass") -> "LatticeClass":
        den, sa, sb = self._common(other)
        return LatticeClass._of(tuple(a * sa - b * sb for a, b in zip(self.nums, other.nums)), den)

    def __neg__(self) -> "LatticeClass":
        return LatticeClass._of(tuple(-a for a in self.nums), self.den)

    def __rmul__(self, scalar) -> "LatticeClass":
        s = Fraction(scalar)
        return LatticeClass._of(
            tuple(s.numerator * a for a in self.nums), s.denominator * self.den
        )

    def __repr__(self) -> str:
        return f"LatticeClass{fmt_vector(self.coeffs)}"


def cls(*coeffs) -> LatticeClass:
    """Shorthand constructor: ``cls(1, -1, -1)``."""
    return LatticeClass(coeffs)


@lru_cache(maxsize=None)
def _check_gram(gram: tuple[tuple[int, ...], ...]) -> Optional[tuple[int, ...]]:
    """Validate a gram matrix once: square, symmetric, unimodular.

    Returns the diagonal when the gram is diagonal, else ``None``.
    """
    r = len(gram)
    if any(len(row) != r for row in gram):
        raise DimensionError("gram matrix must be square")
    if any(gram[i][j] != gram[j][i] for i in range(r) for j in range(r)):
        raise ValueError("gram matrix must be symmetric")
    if abs(_det(gram)) != 1:
        raise ValueError("gram matrix must be unimodular")
    diagonal = all(gram[i][j] == 0 for i in range(r) for j in range(r) if i != j)
    return tuple(gram[i][i] for i in range(r)) if diagonal else None


class IntersectionLattice(Record):
    """A unimodular symmetric pairing with named basis and canonical class.

    ``labels`` name the basis for trace output; ``canonical`` is carried as
    data because the gram alone does not determine it off the default basis.
    The uncompared slots are fixed by the compared ones and set once here:
    ``_diagonal`` is the gram diagonal when the gram is diagonal (else
    ``None``), ``_default_form`` and ``_default`` back ``has_default_form``
    and ``is_default``.
    """

    __slots__ = ("gram", "labels", "canonical", "_diagonal", "_default_form", "_default")

    def __init__(self, gram: tuple[tuple[int, ...], ...], labels: tuple[str, ...],
                 canonical: LatticeClass):
        diagonal = _check_gram(gram)
        r = len(gram)
        if len(labels) != r or len(set(labels)) != r:
            raise ValueError("labels must be distinct and match the rank")
        if canonical.rank != r or not canonical.is_integral:
            raise ValueError("canonical class must be integral of matching rank")
        default_form = r > 0 and gram == _default_gram(r - 1) and canonical == canonical_class(r - 1)
        set_field(self, "gram", gram)
        set_field(self, "labels", labels)
        set_field(self, "canonical", canonical)
        set_field(self, "_diagonal", diagonal)
        set_field(self, "_default_form", default_form)
        set_field(self, "_default", default_form and labels == _default_labels(r - 1))

    @property
    def rank(self) -> int:
        return len(self.gram)

    @property
    def blowup_count(self) -> int:
        """Second Betti number minus one; equals k on a default basis."""
        return self.rank - 1

    def dot(self, xs: Sequence[int], ys: Sequence[int]) -> int:
        """The gram pairing of two integer coefficient tuples (numerators)."""
        if self._diagonal is not None:
            return sum(g * a * b for g, a, b in zip(self._diagonal, xs, ys))
        return sum(
            xi * sum(g * yj for g, yj in zip(row, ys)) for xi, row in zip(xs, self.gram) if xi
        )

    def pair(self, x: LatticeClass, y: LatticeClass) -> Fraction:
        """Exact pairing: ``dot`` of the numerators over both denominators."""
        if x.rank != self.rank or y.rank != self.rank:
            raise DimensionError(
                f"class rank ({x.rank}, {y.rank}) does not match lattice rank {self.rank}"
            )
        total = self.dot(x.nums, y.nums)
        den = x.den * y.den
        return Fraction(total) if den == 1 else Fraction(total, den)

    def basis(self, i: int) -> LatticeClass:
        return LatticeClass(int(j == i) for j in range(self.rank))

    def cls(self, *coeffs) -> LatticeClass:
        if len(coeffs) != self.rank:
            raise DimensionError(f"expected {self.rank} coefficients, got {len(coeffs)}")
        return LatticeClass(coeffs)

    def name_of(self, x: LatticeClass) -> str:
        return fmt_combination(x.nums if x.is_integral else x.coeffs, self.labels)

    @property
    def is_default(self) -> bool:
        """True on the plane-blow-up presentation ``(L, E1, ..., Ek)``."""
        return self._default

    @property
    def has_default_form(self) -> bool:
        """True when gram and canonical class are the default basis's, whatever the labels.

        The closed-form enumerations and blow-downs depend only on these, so
        they also serve a declared fourfold whose default gram carries
        generic labels.
        """
        return self._default_form

    @property
    def is_even(self) -> bool:
        return all(self.gram[i][i] % 2 == 0 for i in range(self.rank))

    @property
    def signature(self) -> tuple[int, int]:
        return gram_signature(self.gram)

    @property
    def is_hyperbolic_plane(self) -> bool:
        """True on the standard even rank-2 lattice of a sphere product."""
        return self.gram == ((0, 1), (1, 0)) and self.canonical.nums == (-2, -2)

    def __repr__(self) -> str:
        return f"IntersectionLattice(labels={'/'.join(self.labels)})"


@lru_cache(maxsize=None)
def _default_labels(k: int) -> tuple[str, ...]:
    return ("L",) + tuple(f"E{i}" for i in range(1, k + 1))


@lru_cache(maxsize=None)
def _default_gram(k: int) -> tuple[tuple[int, ...], ...]:
    r = k + 1
    return tuple(
        tuple((1 if i == 0 else -1) if i == j else 0 for j in range(r)) for i in range(r)
    )


@lru_cache(maxsize=None)
def default_lattice(k: int) -> IntersectionLattice:
    """The rank k+1 lattice of the plane blown up k times, default basis (one per k)."""
    if k < 0:
        raise ValueError("blow-up count must be nonnegative")
    return IntersectionLattice(_default_gram(k), _default_labels(k), canonical_class(k))


@lru_cache(maxsize=None)
def hyperbolic_lattice() -> IntersectionLattice:
    """The even rank-2 lattice of a product of two spheres, ruling basis."""
    return IntersectionLattice(((0, 1), (1, 0)), ("A", "B"), LatticeClass((-2, -2)))


@lru_cache(maxsize=None)
def canonical_class(k: int) -> LatticeClass:
    """``-3L + E1 + ... + Ek`` in the default basis."""
    if k < 0:
        raise ValueError("blow-up count must be nonnegative")
    return LatticeClass((-3,) + (1,) * k)


def class_with_areas(gram: tuple[tuple[int, ...], ...], areas: Sequence) -> LatticeClass:
    """The class whose pairings with the basis vectors are ``areas``: gram^-1 areas."""
    values = LatticeClass(areas)
    return LatticeClass._of(_mat_vec(_int_inverse(gram), values.nums), values.den)


def general_lattice(
    gram: Sequence[Sequence[int]],
    canonical: Sequence[int] | None = None,
    labels: Sequence[str] | None = None,
) -> IntersectionLattice:
    """Wrap a declared gram matrix, guessing the canonical class if standard."""
    g = tuple(tuple(int(x) for x in row) for row in gram)
    r = len(g)
    if canonical is None:
        if g == ((0, 1), (1, 0)):
            canonical = (-2, -2)
        elif g == _default_gram(r - 1):
            canonical = canonical_class(r - 1).coeffs
        else:
            raise ValueError("canonical class required for a nonstandard gram matrix")
    if labels is None:
        labels = tuple(f"G{i}" for i in range(1, r + 1))
    return IntersectionLattice(g, tuple(labels), LatticeClass(canonical))


# ---------------------------------------------------------------------------
# enumerations
# ---------------------------------------------------------------------------
#
# On default bases the marked classes are Weyl orbits (closed form, no box).
# Bounded searches run over integer coefficient tuples with plain integer
# dot products: the boxes are tiny but the searches sit inside fingerprint
# computations, so they are cached on the (gram, canonical) data.


def _simple_reflections(c: tuple[int, ...]):
    """Images of a default-basis tuple under the simple reflections of W(E_k).

    The reflections are the swaps ``Ei <-> Ei+1`` and, from three blow-ups
    on, the reflection ``c -> c + (c.R) R`` in ``R = L-E1-E2-E3`` (the map
    of ``cremona_standard(lattice, 1, 2, 3)``).  All preserve the pairing and
    the canonical class.
    """
    for i in range(1, len(c) - 1):
        yield c[:i] + (c[i + 1], c[i]) + c[i + 2:]
    if len(c) >= 4:
        s = c[0] + c[1] + c[2] + c[3]
        yield (c[0] + s, c[1] - s, c[2] - s, c[3] - s) + c[4:]


@lru_cache(maxsize=None)
def _weyl_orbit(seeds: tuple[tuple[int, ...], ...]) -> tuple[LatticeClass, ...]:
    """Close the seed tuples under the simple reflections, sorted by coefficients."""
    seen = set(seeds)
    frontier = list(seeds)
    while frontier:
        for image in _simple_reflections(frontier.pop()):
            if image not in seen:
                seen.add(image)
                frontier.append(image)
    return tuple(LatticeClass._of(t, 1) for t in sorted(seen))


def _int_dot(gram, x, y) -> int:
    total = 0
    for i, xi in enumerate(x):
        if xi:
            row = gram[i]
            total += xi * sum(row[j] * yj for j, yj in enumerate(y) if yj)
    return total


def _int_key(lattice: IntersectionLattice) -> tuple:
    return lattice.gram, lattice.canonical.integer_coeffs()


def _box_tuples(rank: int):
    """Every integer tuple of the given rank in the coefficient box."""
    return itertools.product(range(-DEFAULT_SEARCH_BOX, DEFAULT_SEARCH_BOX + 1), repeat=rank)


def _require_finite(lattice: IntersectionLattice) -> None:
    if lattice.blowup_count > FINITE_BLOWUP_LIMIT:
        raise PreconditionError(
            f"rank {lattice.rank} lattice: more than {FINITE_BLOWUP_LIMIT} blow-ups carry "
            "infinitely many exceptional classes"
        )


@lru_cache(maxsize=None)
def _marked_box_search(gram, canonical, self_pair: int, k_pair: int):
    out = [
        tup
        for tup in _box_tuples(len(gram))
        if _int_dot(gram, tup, tup) == self_pair
        and _int_dot(gram, tup, canonical) == k_pair
    ]
    return tuple(sorted(out))


def _box_classes(lattice: IntersectionLattice, self_pair: int, k_pair: int):
    gram, canonical = _int_key(lattice)
    return tuple(LatticeClass(t) for t in _marked_box_search(gram, canonical, self_pair, k_pair))


def exceptional_classes(lattice: IntersectionLattice) -> tuple[LatticeClass, ...]:
    """All classes C with C.C = -1 and C.K = -1, sorted by coefficients.

    On a default basis the list is complete and closed-form: the W(E_k)
    orbit of ``E1, ..., Ek`` (plus ``L-E1-E2`` at k = 2, where the group has
    no Cremona reflection), i.e. 0, 1, 3, 6, 10, 16, 27, 56, 240 classes for
    k = 0..8.  Other grams fall back to the bounded box search.  Beyond
    ``FINITE_BLOWUP_LIMIT`` blow-ups the list is infinite, so the call raises
    ``PreconditionError`` before any work.
    """
    _require_finite(lattice)
    if lattice.has_default_form:
        k = lattice.blowup_count
        seeds = tuple(lattice.basis(i).nums for i in range(1, k + 1))
        return _weyl_orbit(seeds + (((1, -1, -1),) if k == 2 else ()))
    return _box_classes(lattice, -1, -1)


def ruling_classes(lattice: IntersectionLattice) -> tuple[LatticeClass, ...]:
    """All classes C with C.C = 0 and C.K = -2 (sphere fibrations), sorted.

    On a default basis the list is complete and closed-form: the W(E_k)
    orbit of ``L-E1`` (0, 1, 2, 3, 5, 10, 27, 126, 2160 classes for
    k = 0..8).  Other grams fall back to the bounded box search.  Raises
    ``PreconditionError`` beyond ``FINITE_BLOWUP_LIMIT`` blow-ups.
    """
    _require_finite(lattice)
    if lattice.has_default_form:
        k = lattice.blowup_count
        return _weyl_orbit(((1, -1) + (0,) * (k - 1),) if k else ())
    return _box_classes(lattice, 0, -2)


# ---------------------------------------------------------------------------
# isometries
# ---------------------------------------------------------------------------


class LatticeIsometry(Record):
    """An integer matrix acting on coefficient vectors, preserving the pairing."""

    __slots__ = ("matrix", "preserves_canonical")

    @classmethod
    def for_lattice(
        cls_, lattice: IntersectionLattice, matrix: Sequence[Sequence[int]]
    ) -> "LatticeIsometry":
        m = tuple(tuple(int(x) for x in row) for row in matrix)
        r = lattice.rank
        cols = tuple(zip(*m))
        if len(m) != r or len(cols) != r or any(
            lattice.dot(cols[i], cols[j]) != lattice.gram[i][j] for i in range(r) for j in range(r)
        ):
            raise ValueError("matrix does not preserve the intersection pairing")
        k = lattice.canonical.nums
        return cls_(m, _mat_vec(m, k) == k)

    def apply(self, x: LatticeClass) -> LatticeClass:
        if x.rank != len(self.matrix):
            raise DimensionError("class rank does not match isometry rank")
        return LatticeClass._of(_mat_vec(self.matrix, x.nums), x.den)


def cremona_standard(lattice: IntersectionLattice, i: int, j: int, m: int) -> LatticeIsometry:
    """The standard quadratic involution based at blow-up indices i < j < m.

    Sends ``L`` to ``2L - Ei - Ej - Em`` and each of the three chosen
    exceptional generators to the line through the other two; fixes the rest.
    """
    if not lattice.is_default:
        raise UnsupportedMoveError("Cremona moves are defined on the default basis")
    k = lattice.blowup_count
    if k < 3:
        raise UnsupportedMoveError("Cremona moves need at least three blow-ups")
    idx = (i, j, m)
    if len(set(idx)) != 3 or any(not 1 <= a <= k for a in idx):
        raise UnsupportedMoveError(f"indices {idx} are not distinct blow-up indices")
    r = lattice.rank
    images = {0: [2, *(0,) * k]}
    images[0] = [2 if c == 0 else 0 for c in range(r)]
    for a in idx:
        images[0][a] = -1
    for a in idx:
        img = [1 if c == 0 else 0 for c in range(r)]
        for b in idx:
            if b != a:
                img[b] = -1
        images[a] = img
    columns = []
    for c in range(r):
        columns.append(images.get(c, [int(row == c) for row in range(r)]))
    matrix = tuple(tuple(columns[c][row] for c in range(r)) for row in range(r))
    return LatticeIsometry.for_lattice(lattice, matrix)


# ---------------------------------------------------------------------------
# blow-up
# ---------------------------------------------------------------------------


class BlowUpMap(Record):
    """Rank r -> r+1 stabilisation; the new generator is the exceptional class."""

    __slots__ = ("upstairs", "downstairs", "new_class")

    def include(self, x: LatticeClass) -> LatticeClass:
        if x.rank != self.downstairs.rank:
            raise DimensionError("class rank does not match the blown-up lattice")
        return LatticeClass._of(x.nums + (0,), x.den)


@lru_cache(maxsize=None)
def blow_up_lattice(lattice: IntersectionLattice) -> BlowUpMap:
    """Extend the gram by a -1 generator; works on any basis.

    The canonical class gains the new generator: ``K' = inc(K) + E_new``.
    The map is a function of the lattice, built once per process.
    """
    r = lattice.rank
    gram = tuple(
        tuple(lattice.gram[i][j] if i < r and j < r else (-1 if i == j else 0) for j in range(r + 1))
        for i in range(r + 1)
    )
    existing = sum(1 for lab in lattice.labels if lab.startswith("E") and lab[1:].isdigit())
    label = f"E{existing + 1}"
    canonical = LatticeClass(lattice.canonical.nums + (1,))
    upstairs = IntersectionLattice(gram, lattice.labels + (label,), canonical)
    return BlowUpMap(upstairs, lattice, upstairs.basis(r))


# ---------------------------------------------------------------------------
# presentation searches
# ---------------------------------------------------------------------------


def _sum_tuples(ts, scale_first: int, first) -> tuple[int, ...]:
    acc = [scale_first * v for v in first]
    for t in ts:
        for i, v in enumerate(t):
            acc[i] += v
    return tuple(acc)


@lru_cache(maxsize=None)
def _default_presentation_search(gram, canonical, orthogonal_to=None):
    """Find ``(X0, F1, ..., F_m)`` spanning a default sublattice, exactly.

    X0 is the lexicographically least square-one tuple with ``X0.K = -3``
    (orthogonal to the optional contracted class); the exceptional members
    are chosen greedily in descending coefficient order among the mutually
    orthogonal candidates, subject to ``-3 X0 + sum(F) = K_target``.
    """
    r = len(gram)
    extra = () if orthogonal_to is None else (orthogonal_to,)
    size = r - 1 - len(extra)
    k_target = (
        canonical
        if orthogonal_to is None
        else tuple(k - c for k, c in zip(canonical, orthogonal_to))
    )

    def ok(tup, self_pair, k_pair) -> bool:
        return (
            _int_dot(gram, tup, tup) == self_pair
            and _int_dot(gram, tup, k_target) == k_pair
            and all(_int_dot(gram, tup, e) == 0 for e in extra)
        )

    box_tuples = list(_box_tuples(r))
    for x0 in sorted(t for t in box_tuples if ok(t, 1, -3)):
        fs = sorted(
            (
                t
                for t in box_tuples
                if ok(t, -1, -1) and _int_dot(gram, t, x0) == 0
            ),
            reverse=True,
        )
        picked: list[tuple[int, ...]] = []

        def backtrack(start: int) -> bool:
            if len(picked) == size:
                return _sum_tuples(picked, -3, x0) == k_target
            for idx in range(start, len(fs)):
                f = fs[idx]
                if all(_int_dot(gram, f, p) == 0 for p in picked):
                    picked.append(f)
                    if backtrack(idx + 1):
                        return True
                    picked.pop()
            return False

        if backtrack(0):
            return (x0, *picked)
    return None


@lru_cache(maxsize=None)
def _ruling_presentation_search(gram, canonical, orthogonal_to=None):
    """Find ruling tuples (A, B): A.A = B.B = 0, A.B = 1, -2A - 2B = K_target."""
    r = len(gram)
    extra = () if orthogonal_to is None else (orthogonal_to,)
    if r - len(extra) != 2:
        return None
    k_target = (
        canonical
        if orthogonal_to is None
        else tuple(k - c for k, c in zip(canonical, orthogonal_to))
    )
    rulings = sorted(
        t
        for t in _box_tuples(r)
        if _int_dot(gram, t, t) == 0
        and _int_dot(gram, t, k_target) == -2
        and all(_int_dot(gram, t, e) == 0 for e in extra)
    )
    for a in rulings:
        for b in rulings:
            if _int_dot(gram, a, b) == 1 and all(
                -2 * (av + bv) == kv for av, bv, kv in zip(a, b, k_target)
            ):
                return (a, b)
    return None


def _presentation(
    search, lattice: IntersectionLattice, contracted: LatticeClass | None = None
) -> tuple[LatticeClass, ...] | None:
    """Run a cached presentation search, orthogonal to ``contracted`` if given."""
    gram, canonical = _int_key(lattice)
    orthogonal_to = None if contracted is None else contracted.integer_coeffs()
    found = search(gram, canonical, orthogonal_to)
    return None if found is None else tuple(LatticeClass(t) for t in found)


class BasisChange(Record):
    """A change of basis onto the presentation ``target`` of one lattice.

    ``inverse`` is the integer matrix (the basis is unimodular) mapping
    source coordinates to target ones.
    """

    __slots__ = ("target", "inverse")

    def to_target(self, x: LatticeClass) -> LatticeClass:
        return LatticeClass._of(_mat_vec(self.inverse, x.nums), x.den)


def _basis_change(
    lattice: IntersectionLattice,
    basis: Sequence[LatticeClass],
    labels: Sequence[str],
) -> BasisChange:
    r = lattice.rank
    matrix = tuple(tuple(basis[j].nums[i] for j in range(r)) for i in range(r))
    if abs(_det(matrix)) != 1:
        raise InternalInvariantError("proposed basis is not unimodular")
    inverse = _int_inverse(matrix)
    gram = tuple(tuple(lattice.dot(basis[i].nums, basis[j].nums) for j in range(r)) for i in range(r))
    canonical = LatticeClass(_mat_vec(inverse, lattice.canonical.nums))
    target = IntersectionLattice(gram, tuple(labels), canonical)
    return BasisChange(target, inverse)


@lru_cache(maxsize=None)
def canonical_presentation(lattice: IntersectionLattice) -> BasisChange | None:
    """Re-coordinate a lattice onto the default or ruling presentation.

    A default gram under other labels is only relabelled (the identity basis
    is the one the box search finds there); other grams, e.g. a blown-up
    sphere product, are searched in the coefficient box.  Returns ``None``
    when the lattice is already in a canonical presentation or no bounded
    search finds one; the walk engine then keeps the current coordinates
    (such intervals simply fall outside the certified tables).  The answer
    is a function of the lattice, found once per process.
    """
    if lattice.is_default or lattice.is_hyperbolic_plane:
        return None
    if lattice.has_default_form:
        basis = tuple(lattice.basis(i) for i in range(lattice.rank))
    else:
        basis = _presentation(_default_presentation_search, lattice)
    if basis is not None:
        return _basis_change(lattice, basis, _default_labels(lattice.rank - 1))
    basis = _presentation(_ruling_presentation_search, lattice)
    if basis is not None:
        return _basis_change(lattice, basis, ("A", "B"))
    return None


# ---------------------------------------------------------------------------
# blow-down
# ---------------------------------------------------------------------------


def _default_dot(x: tuple[int, ...], y: tuple[int, ...]) -> int:
    return x[0] * y[0] - sum(a * b for a, b in zip(x[1:], y[1:]))


@lru_cache(maxsize=None)
def _default_blow_down_basis(k: int, c: tuple[int, ...]) -> tuple[LatticeClass, ...] | None:
    """Closed-form ``(X0, F1, ..., F_{k-1})`` for contracting ``c``, k <= 8.

    ``X0`` is the least class of the W(E_k) orbit of ``L`` orthogonal to
    ``c`` (the other classes with square 1 and ``X.K = -3``, the 240
    characteristic ones at k = 8, have an even complement and present
    nothing); the ``F`` are the exceptional classes orthogonal to ``X0`` and
    ``c``, in descending coefficient order.  ``<X0, c>`` is unimodular of
    signature (1, 1), so its orthogonal complement is negative definite,
    unimodular and of rank k-1 <= 7, hence ``-I_{k-1}``; the canonical class
    forces ``K - c = -3 X0 + sum(F)`` over exactly k-1 of its unit vectors,
    which are then the only exceptional classes in it.  ``None`` when no
    ``X0`` exists (``c = L-E1-E2`` at k = 2, which contracts to the sphere
    product).
    """
    x0 = next(
        (x for x in _weyl_orbit(((1,) + (0,) * k,)) if _default_dot(x.nums, c) == 0), None
    )
    if x0 is None:
        return None
    fs = [
        f
        for f in reversed(exceptional_classes(default_lattice(k)))
        if _default_dot(f.nums, x0.nums) == 0 and _default_dot(f.nums, c) == 0
    ]
    if len(fs) != k - 1:
        raise InternalInvariantError(f"{len(fs)} exceptional classes orthogonal to {x0} and {c}")
    return (x0, *fs)


def _combination(coeffs: Sequence[int], basis: Sequence[LatticeClass]) -> tuple[int, ...]:
    """Integer numerators of ``sum(coeffs[j] * basis[j])`` for an integral basis."""
    return tuple(sum(a * b.nums[i] for a, b in zip(coeffs, basis)) for i in range(basis[0].rank))


class BlowDownMap(Record):
    """Contraction of an exceptional class C, with exact transfer operators.

    ``pullback_basis`` writes the downstairs basis in upstairs coordinates;
    the pushforward is ``x -> x + (x.C) C`` re-expressed downstairs, which is
    well defined because that combination is orthogonal to C.  ``_matrix``
    holds it as one integer matrix, built and checked column by column on
    the first pushforward; it is not compared.
    """

    __slots__ = ("upstairs", "blown_down", "downstairs", "pullback_basis", "_matrix")

    def __init__(self, upstairs: IntersectionLattice, blown_down: LatticeClass,
                 downstairs: IntersectionLattice, pullback_basis: tuple[LatticeClass, ...]):
        super().__init__(upstairs, blown_down, downstairs, pullback_basis)
        set_field(self, "_matrix", None)

    def pullback(self, x: LatticeClass) -> LatticeClass:
        if x.rank != self.downstairs.rank:
            raise DimensionError("class rank does not match the downstairs lattice")
        return LatticeClass._of(_combination(x.nums, self.pullback_basis), x.den)

    def push(self, nums: Sequence[int]) -> tuple[int, ...]:
        """``pushforward`` on upstairs numerators, over their denominator."""
        if self._matrix is None:
            up, c, basis = self.upstairs, self.blown_down.nums, self.pullback_basis
            inverse, columns = _int_inverse(self.downstairs.gram), []
            for j, shift in enumerate(_mat_vec(up.gram, c)):
                flat = tuple(int(i == j) + shift * ci for i, ci in enumerate(c))
                coords = _mat_vec(inverse, [up.dot(flat, b.nums) for b in basis])
                if _combination(coords, basis) != flat:
                    raise InternalInvariantError(
                        "pushforward image does not lie in the contracted sublattice"
                    )
                columns.append(coords)
            set_field(self, "_matrix", tuple(zip(*columns)))
        return _mat_vec(self._matrix, nums)

    def pushforward(self, x: LatticeClass) -> LatticeClass:
        """Solve ``gram_down . y = (pair(x + (x.C) C, b))_b`` on the numerators of x.

        The map is linear, so the solve and the check that the image pulls
        back onto the flattened class run once per upstairs basis vector, on
        the first call, into the columns of ``_matrix``; by linearity those
        checks cover every class.  Each call is then one integer
        matrix-vector product over ``x.den`` (the contracted class and the
        pullback basis are integral, the downstairs gram has an integer
        inverse).
        """
        if x.rank != self.upstairs.rank:
            raise DimensionError("class rank does not match the upstairs lattice")
        return LatticeClass._of(self.push(x.nums), x.den)


@lru_cache(maxsize=None)
def blow_down_data(lattice: IntersectionLattice, c: LatticeClass) -> BlowDownMap:
    """Contract the exceptional class ``c`` and present the quotient lattice.

    The quotient is presented on a default basis first: on a default gram
    with at most ``FINITE_BLOWUP_LIMIT`` blow-ups in closed form
    (``_default_blow_down_basis``), on other grams by the bounded box search
    (line class first, then the exceptional members in descending coefficient
    order).  When the complement is even, rank two, the ruling presentation is
    used instead: contracting a line-through-two-points class lands on a
    sphere product, which has no odd basis at all.  Only a complement that
    admits neither presentation keeps raw complement coordinates.
    The map is cached per (lattice, class); a refusal is raised on every call.
    """
    if not c.is_integral:
        raise InvalidBlowDownError(f"blow-down class {c} must be integral")
    if lattice.pair(c, c) != -1 or lattice.pair(c, lattice.canonical) != -1:
        raise InvalidBlowDownError(
            f"class {c} is not exceptional (self-pairing {lattice.pair(c, c)}, "
            f"canonical pairing {lattice.pair(c, lattice.canonical)})"
        )
    r = lattice.rank
    k_target = lattice.canonical - c  # pullback of the downstairs canonical class

    if lattice.has_default_form and lattice.blowup_count <= FINITE_BLOWUP_LIMIT:
        pullback_basis = _default_blow_down_basis(lattice.blowup_count, c.nums)
    else:
        pullback_basis = _presentation(_default_presentation_search, lattice, c)
    if pullback_basis is not None:
        downstairs = default_lattice(r - 2)
        return BlowDownMap(lattice, c, downstairs, pullback_basis)
    pullback_basis = _presentation(_ruling_presentation_search, lattice, c)
    if pullback_basis is not None:
        return BlowDownMap(lattice, c, hyperbolic_lattice(), pullback_basis)

    # raw orthogonal-complement coordinates as a last resort
    kernel = [LatticeClass(v) for v in _kernel_of_functional(_mat_vec(lattice.gram, c.nums))]
    comp_gram = tuple(
        tuple(lattice.dot(kernel[i].nums, kernel[j].nums) for j in range(r - 1))
        for i in range(r - 1)
    )
    if len(comp_gram) <= 2 or (gram_signature(comp_gram)[0] == 1 and any(
        comp_gram[i][i] % 2 for i in range(len(comp_gram))
    )):
        raise SearchExhaustedError(
            "no canonical presentation of the contracted lattice found", DEFAULT_SEARCH_BOX
        )
    comp_k = class_with_areas(comp_gram, [lattice.dot(k_target.nums, b.nums) for b in kernel])
    comp = IntersectionLattice(comp_gram, tuple(f"G{i}" for i in range(1, r)), comp_k)
    return BlowDownMap(lattice, c, comp, tuple(kernel))

