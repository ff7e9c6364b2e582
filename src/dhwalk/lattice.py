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
stay on numerators, and so does every surgery: a blow-up, a change of basis
and a blow-down each move classes through one integer ``LatticeMap``, whose
``apply`` pushes forward and whose ``pullback`` is its adjoint for the two
intersection forms.  Classes, lattices and maps are immutable records
(``record.Record``); each gram is validated (square, symmetric, unimodular)
once per process; the lattices a walk moves through (default, hyperbolic,
blown up, re-presented) and its maps are built once and shared.

The marked classes, exceptional (C.C = -1 = C.K), ruling (C.C = 0, C.K = -2)
and line (X.X = 1, X.K = -3), are finite exactly when K.K > 0 in signature
(1, n), the one finiteness law (``_require_finite``; K.K = 9 - k on a
default basis), and every list here is complete.  On a default basis they
are the closed-form lists of the del Pezzo surfaces (Manin, *Cubic Forms*,
ch. IV), orbits of the Weyl group W(E_k) generated by its simple reflections.
On any other gram one Fincke-Pohst enumeration (``_solutions``) lists them.
One presentation rule over these lists (``_presentation``) puts a lattice on
the default basis or the ruling basis of a sphere product, both when a walk
re-coordinates one (``canonical_presentation``, after each blow-up) and when
it contracts an exceptional class (``blow_down_data``); it is deterministic.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, isqrt, lcm
from operator import mul
from typing import Iterable, Optional, Sequence

from .errors import (
    DimensionError,
    InternalInvariantError,
    InvalidBlowDownError,
    PreconditionError,
)
from .formatting import fmt_combination, fmt_vector
from .record import Record, set_field


# ---------------------------------------------------------------------------
# exact linear algebra on tiny matrices (tuples of tuples)
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _int_inverse(m) -> tuple[tuple[int, ...], ...] | None:
    """The inverse of an integer matrix if it is integral, else ``None``.

    Integral exactly when the matrix is unimodular.  Computed once per
    matrix, by exact Gauss-Jordan elimination.
    """
    n = len(m)
    a = [[Fraction(m[i][j]) for j in range(n)] for i in range(n)]
    inv = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if a[r][col] != 0), None)
        if pivot is None:
            return None
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
        return None
    return tuple(tuple(int(x) for x in row) for row in inv)


def _mat_vec(m: Sequence[Sequence[int]], v: Sequence[int]) -> tuple[int, ...]:
    return tuple(sum(map(mul, row, v)) for row in m)


def _split_functional(v: Sequence[int]) -> tuple[int, tuple[int, ...], list[tuple[int, ...]]]:
    """``(g, p, kernel)`` for a nonzero integer functional ``v``, by a column-gcd sweep.

    ``g = gcd(v)`` and ``v.p = g``; the r-1 vectors of ``kernel`` span
    ``{x : v.x = 0}``, and with ``p`` they form a unimodular basis.
    Deterministic.
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
    if w[0] < 0:
        w[0], cols[0] = -w[0], [-x for x in cols[0]]
    return w[0], tuple(cols[0]), [tuple(cols[j]) for j in range(1, r)]


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
    if _int_inverse(gram) is None:
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
    gram: Sequence[Sequence[int]], canonical: Sequence[int] | None = None
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
    return IntersectionLattice(g, tuple(f"G{i}" for i in range(1, r + 1)), LatticeClass(canonical))


# ---------------------------------------------------------------------------
# enumerations
# ---------------------------------------------------------------------------
#
# The marked classes of a lattice are the integral x with fixed x.x = s and
# x.K = c: exceptional (-1, -1), ruling (0, -2) and line (1, -3) classes.  On
# default forms they are Weyl orbits (closed form); on any other gram one
# complete enumeration lists them, cached on the (gram, canonical) data.


def _simple_reflections(c: tuple[int, ...]):
    """Images of a default-basis tuple under the simple reflections of W(E_k).

    The reflections are the swaps ``Ei <-> Ei+1`` and, from three blow-ups
    on, the reflection ``c -> c + (c.R) R`` in ``R = L-E1-E2-E3`` (the
    standard quadratic transformation based at the first three blow-ups).
    All preserve the pairing and the canonical class.
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


@lru_cache(maxsize=None)
def _require_finite(gram, canonical) -> None:
    """Refuse, before any work, a lattice whose marked classes need not be finite.

    They are finite exactly when ``K.K > 0`` in signature (1, n): then
    ``K^perp`` is negative definite, so each hyperplane ``x.K = c`` meets the
    quadric ``x.x = s`` in a bounded set.
    """
    kk = sum(map(mul, canonical, _mat_vec(gram, canonical)))
    signature = gram_signature(gram)
    if kk <= 0 or signature[0] != 1:
        raise PreconditionError(
            f"rank {len(gram)} lattice with K.K = {kk} and signature {signature}: its marked "
            "classes can be infinitely many (they are finite when K.K > 0 in signature (1, n))"
        )


@lru_cache(maxsize=None)
def _solutions(gram, canonical, s: int, c: int) -> tuple[LatticeClass, ...]:
    """Every integral x with ``x.x = s`` and ``x.K = c``, sorted by coefficients.

    Complete, by Fincke-Pohst (*Math. Comp.* 44, 1985).  The hyperplane
    ``x.K = c`` is ``p + N y`` over integral y, for a particular solution p
    and a basis N of ``K^perp``; there ``x.x = s`` reads ``y.P y - 2 b.y =
    p.p - s`` with ``P = -N^T G N`` positive definite (``_require_finite``)
    and ``b = N^T G p``.  The exact rational LDL^T of P writes ``y.P y`` as
    ``sum_i d_i (y_i + sum_{j>i} m_ij y_j)^2``; completing the square gives
    ``sum_i d_i (y_i + sum_{j>i} m_ij y_j - w_i)^2 = R``.  Scaled by the
    common denominator of the d, m and w, every term is an integer, and the
    integral points are found coordinate by coordinate from the last, each
    within its exact integer bounds.
    """
    _require_finite(gram, canonical)
    g, p, kernel = _split_functional(_mat_vec(gram, canonical))
    if c % g:
        return ()
    p = tuple(c // g * a for a in p)
    n, gp = len(kernel), _mat_vec(gram, p)
    q = [[Fraction(-sum(map(mul, u, _mat_vec(gram, v)))) for v in kernel] for u in kernel]
    for i in range(n):  # in place: q[i][i] = d_i, q[i][j] = m_ij for j > i
        for j in range(i + 1, n):
            q[j][i], q[i][j] = q[i][j], q[i][j] / q[i][i]
        for k in range(i + 1, n):
            for m in range(k, n):
                q[k][m] -= q[k][i] * q[i][m]
    beta: list[Fraction] = []  # M^T beta = b for the unit upper triangular M = (m_ij)
    for i, u in enumerate(kernel):
        beta.append(sum(map(mul, u, gp)) - sum(q[j][i] * beta[j] for j in range(i)))
    w = [beta[i] / q[i][i] for i in range(n)]
    t = lcm(*(x.denominator for i in range(n) for x in (w[i], *q[i][i:])))
    d = [int(q[i][i] * t) for i in range(n)]
    mt = [[int(q[i][j] * t) if j > i else 0 for j in range(n)] for i in range(n)]
    wt = [int(x * t) for x in w]
    rest = (sum(map(mul, p, gp)) - s + sum(map(mul, beta, w))) * t ** 3
    rows = tuple(zip(*kernel)) if n else ((),) * len(p)  # N, one row per coordinate
    found, y = [], [0] * n

    def descend(i: int, rem: int) -> None:
        # the terms below i sum to rem / t^3; term i is d_i (t y_i - ci)^2 / t^3
        if i < 0:
            if rem == 0:
                found.append(tuple(a + b for a, b in zip(p, _mat_vec(rows, y))))
            return
        ci = wt[i] - sum(map(mul, mt[i], y))
        r = isqrt(rem // d[i])
        for yi in range((ci - r + t - 1) // t, (ci + r) // t + 1):
            y[i] = yi
            descend(i - 1, rem - d[i] * (t * yi - ci) ** 2)

    if rest >= 0:
        descend(n - 1, int(rest))
    return tuple(LatticeClass._of(v, 1) for v in sorted(found))


def _marked(lattice: IntersectionLattice, s: int, c: int, seeds) -> tuple[LatticeClass, ...]:
    """The classes with ``x.x = s`` and ``x.K = c``, after ``_require_finite``.

    The Weyl orbit of ``seeds`` on a default form, ``_solutions`` on any
    other gram.
    """
    gram, canonical = lattice.gram, lattice.canonical.nums
    _require_finite(gram, canonical)
    if lattice.has_default_form:
        return _weyl_orbit(seeds)
    return _solutions(gram, canonical, s, c)


def exceptional_classes(lattice: IntersectionLattice) -> tuple[LatticeClass, ...]:
    """All classes C with C.C = -1 and C.K = -1, sorted by coefficients.

    On a default basis the closed form of the del Pezzo surfaces: the W(E_k)
    orbit of ``E1, ..., Ek`` (plus ``L-E1-E2`` at k = 2, where the group has
    no Cremona reflection), i.e. 0, 1, 3, 6, 10, 16, 27, 56, 240 classes for
    k = 0..8; on other grams ``_solutions``.  Either list is complete.  Raises
    ``PreconditionError`` before any work unless K.K > 0 in signature (1, n),
    e.g. beyond eight blow-ups, where the list is infinite.
    """
    k = lattice.blowup_count
    seeds = tuple(lattice.basis(i).nums for i in range(1, k + 1))
    return _marked(lattice, -1, -1, seeds + (((1, -1, -1),) if k == 2 else ()))


def ruling_classes(lattice: IntersectionLattice) -> tuple[LatticeClass, ...]:
    """All classes C with C.C = 0 and C.K = -2 (sphere fibrations), sorted.

    On a default basis the W(E_k) orbit of ``L-E1`` (0, 1, 2, 3, 5, 10, 27,
    126, 2160 classes for k = 0..8), on other grams ``_solutions``; complete
    either way.  Raises ``PreconditionError`` like ``exceptional_classes``.
    """
    k = lattice.blowup_count
    return _marked(lattice, 0, -2, ((1, -1) + (0,) * (k - 1),) if k else ())


def line_classes(lattice: IntersectionLattice) -> tuple[LatticeClass, ...]:
    """All classes X with X.X = 1 and X.K = -3, sorted.

    On a default basis the W(E_k) orbit of ``L`` and, at k = 8, that of the
    characteristic ``-K + 2E8`` (the 240 classes ``-K + 2E``, whose
    complement is even); on other grams ``_solutions``.  Raises
    ``PreconditionError`` like ``exceptional_classes``.
    """
    k = lattice.blowup_count
    seeds = ((1,) + (0,) * k,)
    if k == 8:
        seeds += ((3,) + (-1,) * 7 + (1,),)
    return _marked(lattice, 1, -3, seeds)


# ---------------------------------------------------------------------------
# maps between lattices
# ---------------------------------------------------------------------------


class LatticeMap(Record):
    """A linear map from ``source`` to ``target`` coordinates: one integer matrix.

    A blow-up's inclusion, a change of basis and a blow-down's pushforward
    are each one.  ``apply`` pushes classes forward (``push`` on numerators);
    ``pullback`` is its adjoint for the two forms, ``G_source^-1 M^T G_target``.
    """

    __slots__ = ("source", "target", "matrix")

    def push(self, nums: Sequence[int]) -> tuple[int, ...]:
        return _mat_vec(self.matrix, nums)

    def apply(self, x: LatticeClass) -> LatticeClass:
        if x.rank != self.source.rank:
            raise DimensionError("class rank does not match the source lattice")
        return LatticeClass._of(self.push(x.nums), x.den)

    def pullback(self, y: LatticeClass) -> LatticeClass:
        if y.rank != self.target.rank:
            raise DimensionError("class rank does not match the target lattice")
        dual = _mat_vec(tuple(zip(*self.matrix)), _mat_vec(self.target.gram, y.nums))
        return LatticeClass._of(_mat_vec(_int_inverse(self.source.gram), dual), y.den)


def _basis_change(
    lattice: IntersectionLattice, basis: Sequence[LatticeClass], target: IntersectionLattice
) -> LatticeMap:
    """The change of coordinates onto ``basis``, checked to present ``target``.

    The matrix is read off pairings, ``G_target^-1 basis^T G_lattice``.  The
    basis must carry the pairing and K onto ``target``'s.  The pairing check
    is also the check that the matrix inverts the basis: ``matrix . basis``
    is ``G_target^-1`` times the basis's gram.
    """
    forms = tuple(_mat_vec(lattice.gram, b.nums) for b in basis)  # basis^T G_lattice
    matrix = tuple(_mat_vec(tuple(zip(*forms)), row) for row in _int_inverse(target.gram))
    if (tuple(_mat_vec(forms, b.nums) for b in basis) != target.gram
            or _mat_vec(matrix, lattice.canonical.nums) != target.canonical.nums):
        raise InternalInvariantError(f"proposed basis does not present {target!r}")
    return LatticeMap(lattice, target, matrix)


@lru_cache(maxsize=None)
def blow_up_lattice(lattice: IntersectionLattice) -> LatticeMap:
    """The inclusion into the blow-up, whose gram gains a -1 generator; any basis.

    The new class is the target's last basis class and ``K' = apply(K) + E``;
    ``default_lattice(k)`` blows up into the shared ``default_lattice(k + 1)``.
    """
    r = lattice.rank
    if lattice.is_default:
        upstairs = default_lattice(r)
    else:
        existing = sum(1 for lab in lattice.labels if lab.startswith("E") and lab[1:].isdigit())
        upstairs = IntersectionLattice(
            tuple(row + (0,) for row in lattice.gram) + ((0,) * r + (-1,),),
            lattice.labels + (f"E{existing + 1}",),
            LatticeClass(lattice.canonical.nums + (1,)),
        )
    inclusion = tuple(tuple(int(i == j) for j in range(r)) for i in range(r + 1))
    return LatticeMap(lattice, upstairs, inclusion)


# ---------------------------------------------------------------------------
# presentations
# ---------------------------------------------------------------------------


def _presentation(
    lattice: IntersectionLattice, c: LatticeClass | None = None
) -> tuple[tuple[LatticeClass, ...], IntersectionLattice] | None:
    """The presentation rule: a basis orthogonal to ``c`` (if given) and its target.

    Default basis: ``X0`` is the least line class orthogonal to ``c`` with
    exactly ``m = rank - 1 - [c given]`` exceptional classes orthogonal to
    ``X0`` and ``c``, and the ``F`` are those classes in descending order.
    Nothing is left to choose: distinct classes of square -1 in a negative
    definite lattice are orthogonal, so the ``F`` span a ``-I_m`` of full rank
    in the unimodular complement of ``<X0, c>``, which is therefore all of
    it; ``K - c + 3 X0`` lies there and pairs to -1 with every ``F``, so it
    is their sum.  (A complement ``-E8`` holds no such classes; the count
    skips its ``X0``, e.g. the 240 characteristic lines at k = 8.)  Ruling
    basis, when two coordinates are left: the least pair of ruling classes
    orthogonal to ``c`` with ``a.b = 1`` and ``-2(a + b) = K - c``.  ``None``
    when neither exists.
    """
    gram = lattice.gram
    fixed = () if c is None else (_mat_vec(gram, c.nums),)  # x.c is the form applied to x
    m = lattice.rank - 1 - len(fixed)

    def free(x: LatticeClass) -> bool:
        return not any(sum(map(mul, form, x.nums)) for form in fixed)

    fs = [f for f in reversed(exceptional_classes(lattice)) if free(f)]
    for x0 in line_classes(lattice):
        if free(x0):
            form = _mat_vec(gram, x0.nums)
            picked = tuple(f for f in fs if not sum(map(mul, form, f.nums)))
            if len(picked) == m:
                return (x0, *picked), default_lattice(m)
    if m == 1:
        target = lattice.canonical if c is None else lattice.canonical - c
        rulings = [x for x in ruling_classes(lattice) if free(x)]
        for a in rulings:
            for b in rulings:
                if lattice.dot(a.nums, b.nums) == 1 and -2 * (a + b) == target:
                    return (a, b), hyperbolic_lattice()
    return None


@lru_cache(maxsize=None)
def canonical_presentation(lattice: IntersectionLattice) -> LatticeMap | None:
    """Re-coordinate a lattice onto the default or ruling presentation.

    A default or hyperbolic gram under other labels is relabelled in place
    (identity basis); any other gram is presented by the presentation rule
    (``_presentation``) over its complete lists of marked classes.  Returns
    ``None`` on ``default_lattice(k)`` and ``hyperbolic_lattice()``
    themselves.  Raises ``PreconditionError`` when the marked classes need
    not be finite (``_require_finite``) or there is neither presentation.
    The answer is a function of the lattice, found once per process.
    """
    if lattice.is_default or lattice == hyperbolic_lattice():
        return None
    _require_finite(lattice.gram, lattice.canonical.nums)
    if lattice.has_default_form or lattice.is_hyperbolic_plane:
        basis = tuple(lattice.basis(i) for i in range(lattice.rank))
        default = lattice.has_default_form
        found = basis, default_lattice(lattice.blowup_count) if default else hyperbolic_lattice()
    else:
        found = _presentation(lattice)
    if found is None:
        raise PreconditionError(
            f"the rank {lattice.rank} lattice {'/'.join(lattice.labels)} has neither a default "
            "nor a ruling presentation"
        )
    return _basis_change(lattice, *found)


# ---------------------------------------------------------------------------
# blow-down
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def blow_down_data(lattice: IntersectionLattice, c: LatticeClass) -> LatticeMap:
    """Contract the exceptional class ``c`` and present the quotient lattice.

    The map is the pushforward ``x -> x + (x.c) c`` in a basis of ``c^perp``:
    the rows but the last of the change of basis onto that basis and ``c``,
    which presents the blow-up of the quotient.  Its pullback is the basis,
    the presentation rule's (``_presentation``) orthogonal to ``c``: a
    default basis, or the ruling basis when the contraction lands on a
    sphere product (as ``L-E1-E2`` does at k = 2), which has no odd basis at
    all.  On a default gram this is the closed form: the least line of the
    W(E_k) orbit of ``L`` orthogonal to ``c``, with the exceptional classes
    orthogonal to both.  A quotient with neither presentation raises
    ``InvalidBlowDownError``; the walk's lattices never lead there.  The map
    is cached per (lattice, class); a refusal is raised on every call.
    """
    if not c.is_integral:
        raise InvalidBlowDownError(f"blow-down class {c} must be integral")
    if lattice.pair(c, c) != -1 or lattice.pair(c, lattice.canonical) != -1:
        raise InvalidBlowDownError(
            f"class {c} is not exceptional (self-pairing {lattice.pair(c, c)}, "
            f"canonical pairing {lattice.pair(c, lattice.canonical)})"
        )
    found = _presentation(lattice, c)
    if found is None:
        raise InvalidBlowDownError(
            f"contracting {lattice.name_of(c)} leaves a lattice with neither a default nor a "
            "ruling presentation"
        )
    basis, downstairs = found
    change = _basis_change(lattice, (*basis, c), blow_up_lattice(downstairs).target)
    return LatticeMap(lattice, downstairs, change.matrix[:-1])
