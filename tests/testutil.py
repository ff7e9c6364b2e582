"""Shared helpers and independent oracles for the test suite.

The oracles here deliberately avoid the package's own code paths: the
exceptional-class oracles are a plain box enumeration and a Cauchy-Schwarz
bounded enumeration (no Weyl group), the blow-down oracle is the box search
for a default presentation that the closed form replaced, the volume
oracle computes the pushforward density as an exact clipped-box slice area,
the pushforward oracle is the ``Fraction`` formula (inverse downstairs
gram applied to the projections) that the integer pushforward replaced, on
the basis of the presentation rule over ``_solutions`` lists that the Weyl
words replaced (``presentation_orthogonal_to``), and
``sign_at`` is the per-class sign predicate that the area tables' integer
rows replaced, and
``monotone_moment`` is the linear-system solver that the closed form of
``rigidity._monotone_moment`` replaced, and ``scenario_payload`` is the
payload that ``json.dumps(..., indent=2)`` wrote before the schema writer
replaced it.

The tools near the end are what the tests need beyond the package's API:
the component builders (``surface_component``, ``fourfold_component``),
``cls``, ``LatticeIsometry`` and ``cremona_standard``, ``area_text``,
``interval_containing`` and smaller helpers.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from functools import lru_cache
from math import isqrt
from operator import mul
from typing import NamedTuple, Optional, Sequence

from dhwalk.errors import DimensionError, InternalInvariantError, PreconditionError
from dhwalk.io import _FIELDS, _integer_coeffs, _json_rational
from dhwalk.family import AffineClassFamily, MarkedArea
from dhwalk.formatting import fmt_affine, fmt_q
from dhwalk.lattice import (
    IntersectionLattice,
    LatticeClass,
    LatticeMap,
    _mat_vec,
    _solutions,
    blow_up_lattice,
    default_lattice,
    hyperbolic_lattice,
)
from dhwalk.scenario import (
    ComponentKind,
    CriticalLevel,
    FixedComponent,
    FixedPointData,
    point_component,
)
from dhwalk.walk import Fingerprint, IntervalRecord, WalkTrace, state_fingerprint


def brute_force_exceptional(lattice: IntersectionLattice, box: int = 3) -> set:
    """Independent oracle: all C with C.C = -1 = C.K in the coefficient box."""
    out = set()
    k = lattice.canonical
    for tup in itertools.product(range(-box, box + 1), repeat=lattice.rank):
        c = LatticeClass(tup)
        if lattice.pair(c, c) == -1 and lattice.pair(c, k) == -1:
            out.add(c.coeffs)
    return out


def _fixed_sum_and_squares(m: int, total: int, squares: int):
    """Every integer m-tuple with the given sum and sum of squares."""
    if m == 0:
        if total == 0 and squares == 0:
            yield ()
        return
    # Cauchy-Schwarz: a real completion exists only if total^2 <= m * squares
    if total * total > m * squares:
        return
    bound = isqrt(squares)
    for a in range(-bound, bound + 1):
        for rest in _fixed_sum_and_squares(m - 1, total - a, squares - a * a):
            yield (a,) + rest


def marked_classes_by_bounds(k: int, self_pair: int, k_pair: int) -> set:
    """Independent oracle: default-basis classes with given C.C and C.K, k <= 8.

    For C = dL - sum(a_i E_i) the conditions read sum(a_i) = 3d + C.K and
    sum(a_i^2) = d^2 - C.C.  Cauchy-Schwarz, (sum a_i)^2 <= k sum(a_i^2),
    gives (9-k) d^2 + 6 C.K d + C.K^2 + k C.C <= 0, which bounds d when
    k <= 8; each admissible d is then solved by exhaustive search.  Returns
    coefficient tuples ``(d, -a_1, ..., -a_k)``.
    """
    assert 0 <= k <= 8
    span = 6 * abs(k_pair) + abs(k_pair * k_pair + k * self_pair) + 1
    out = set()
    for d in range(-span, span + 1):
        if (9 - k) * d * d + 6 * k_pair * d + k_pair * k_pair + k * self_pair > 0:
            continue
        squares = d * d - self_pair
        if squares < 0:
            continue
        for a in _fixed_sum_and_squares(k, 3 * d + k_pair, squares):
            out.add((d,) + tuple(-x for x in a))
    return out


def _dot(gram, x, y) -> int:
    return sum(gram[i][j] * x[i] * y[j] for i in range(len(x)) for j in range(len(y)))


def box_default_presentation(gram, canonical, orthogonal_to=None, box: int = 3):
    """Oracle: the box search for ``(X0, F1, ..., F_m)`` on integer tuples.

    X0 is the lexicographically least square-one tuple in the box with
    ``X0.K = -3`` (orthogonal to the optional contracted class); the
    exceptional members are chosen greedily in descending order among the
    mutually orthogonal candidates, subject to ``-3 X0 + sum(F) = K_target``.
    Returns ``None`` when the box holds no such basis.
    """
    r = len(gram)
    extra = () if orthogonal_to is None else (orthogonal_to,)
    size = r - 1 - len(extra)
    k_target = canonical if orthogonal_to is None else tuple(
        k - c for k, c in zip(canonical, orthogonal_to)
    )

    def functional(v):
        return [sum(g * a for g, a in zip(row, v)) for row in gram]

    k_form, extra_forms = functional(k_target), [functional(e) for e in extra]

    def ok(tup, self_pair, k_pair) -> bool:
        # linear conditions first: they reject most of the box cheaply
        return (
            sum(a * b for a, b in zip(tup, k_form)) == k_pair
            and all(sum(a * b for a, b in zip(tup, form)) == 0 for form in extra_forms)
            and _dot(gram, tup, tup) == self_pair
        )

    tuples = list(itertools.product(range(-box, box + 1), repeat=r))
    for x0 in sorted(t for t in tuples if ok(t, 1, -3)):
        fs = sorted((t for t in tuples if ok(t, -1, -1) and _dot(gram, t, x0) == 0), reverse=True)
        picked: list = []

        def backtrack(start: int) -> bool:
            if len(picked) == size:
                total = [-3 * v for v in x0]
                for f in picked:
                    total = [a + b for a, b in zip(total, f)]
                return tuple(total) == tuple(k_target)
            for idx in range(start, len(fs)):
                if all(_dot(gram, fs[idx], p) == 0 for p in picked):
                    picked.append(fs[idx])
                    if backtrack(idx + 1):
                        return True
                    picked.pop()
            return False

        if backtrack(0):
            return (x0, *picked)
    return None


def _ramp(u: Fraction) -> Fraction:
    return u if u > 0 else Fraction(0)


def box_slice_area(a: Fraction, b: Fraction, c: Fraction, t: Fraction) -> Fraction:
    """Area of the slice {x+y+z = t} of the box [0,a] x [0,b] x [0,c].

    This is the Duistermaat-Heckman density of the diagonal action on a
    product of three spheres with areas a, b, c, computed from scratch: the
    cumulative area under {x+y <= s} in [0,a] x [0,b] is the inclusion-
    exclusion of quadratic ramps, and the slice is a difference of two.
    """

    def under(s: Fraction) -> Fraction:
        return (
            _ramp(s) ** 2 - _ramp(s - a) ** 2 - _ramp(s - b) ** 2 + _ramp(s - a - b) ** 2
        ) / 2

    return under(t) - under(t - c)


def random_rational(rnd: random.Random, lo: int = 1, hi: int = 9, max_den: int = 4) -> Fraction:
    den = rnd.randint(1, max_den)
    num = rnd.randint(lo * den, hi * den)
    return Fraction(num, den)


def random_triple(rnd: random.Random) -> tuple[Fraction, Fraction, Fraction]:
    """A random positive sphere-area triple, occasionally with repeats."""
    vals = sorted(random_rational(rnd) for _ in range(3))
    if rnd.random() < 0.25:
        vals[1] = vals[0]
    if rnd.random() < 0.15:
        vals[2] = vals[1]
    return tuple(sorted(vals))


def isolated_scenario(values_by_index: dict[int, list]) -> FixedPointData:
    """Build an isolated-points scenario from {index: [values]}."""
    levels = []
    for index, values in values_by_index.items():
        for value in values:
            levels.append(CriticalLevel(value, [point_component(index)]))
    return FixedPointData.build("custom-isolated", 6, "small", levels)


# ---------------------------------------------------------------------------
# the Fraction pushforward formula, as an oracle for the integer one
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def fraction_inverse(m) -> tuple[tuple[Fraction, ...], ...]:
    """Gauss-Jordan inverse of a nonsingular square matrix (tuple of tuples), in ``Fraction``s.

    Cached per matrix: the pushforward oracle asks for the same few grams
    many times.
    """
    n = len(m)
    a = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(m)]
    for col in range(n):
        pivot = next(r for r in range(col, n) if a[r][col] != 0)
        a[col], a[pivot] = a[pivot], a[col]
        a[col] = [x / a[col][col] for x in a[col]]
        for r in range(n):
            if r != col and a[r][col]:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return tuple(tuple(row[n:]) for row in a)


@lru_cache(maxsize=None)  # the oracle asks per class, not per map
def presentation_orthogonal_to(
    lattice: IntersectionLattice, c: LatticeClass
) -> tuple[tuple[LatticeClass, ...], IntersectionLattice] | None:
    """The presentation rule on ``c^perp``, over the Fincke-Pohst lists of ``lattice``.

    The rule that contracted classes before the Weyl words did: ``X0`` is
    the least line class orthogonal to ``c`` with exactly ``rank - 2``
    exceptional classes orthogonal to ``X0`` and ``c``, and the ``F`` are
    those in descending order; else, with two coordinates left, the least
    pair of ruling classes orthogonal to ``c`` with ``a.b = 1`` and
    ``-2(a + b) = K - c``.  ``None`` when neither exists.  Its lists come
    from ``lattice._solutions``, never from the Weyl orbits or words.
    """
    gram, canonical = lattice.gram, lattice.canonical.nums
    dual = _mat_vec(gram, c.nums)

    def free(x: LatticeClass) -> bool:
        return not sum(map(mul, dual, x.nums))

    m = lattice.rank - 2
    fs = [f for f in reversed(_solutions(gram, canonical, -1, -1)) if free(f)]
    for x0 in _solutions(gram, canonical, 1, -3):
        if free(x0):
            form = _mat_vec(gram, x0.nums)
            picked = tuple(f for f in fs if not sum(map(mul, form, f.nums)))
            if len(picked) == m:
                return (x0, *picked), default_lattice(m)
    if m == 1:
        rulings = [x for x in _solutions(gram, canonical, 0, -2) if free(x)]
        for a in rulings:
            for b in rulings:
                if lattice.dot(a.nums, b.nums) == 1 and -2 * (a + b) == lattice.canonical - c:
                    return (a, b), hyperbolic_lattice()
    return None


def fraction_pushforward(
    up: IntersectionLattice, c: LatticeClass, x: LatticeClass, basis=None
) -> LatticeClass:
    """``x -> x + (x.C) C`` re-expressed downstairs: ``gram^-1`` of its projections.

    The downstairs basis (unless ``basis`` is given) and gram are the
    presentation rule's (``presentation_orthogonal_to``), not read off the
    map under test.  Raises ``InternalInvariantError`` when the flattened class
    is not the combination of the basis that the result names.
    """
    presented, down = presentation_orthogonal_to(up, c)
    basis = presented if basis is None else basis
    flattened = x + up.pair(x, c) * c
    projections = [up.pair(flattened, b) for b in basis]
    inv = fraction_inverse(down.gram)
    coords = [sum((g * p for g, p in zip(row, projections) if g), Fraction(0)) for row in inv]
    pulled = LatticeClass((0,) * up.rank)
    for a, b in zip(coords, basis):
        if a:
            pulled = pulled + a * b
    if pulled != flattened:
        raise InternalInvariantError("pushforward image does not lie in the contracted sublattice")
    return LatticeClass(coords)


# ---------------------------------------------------------------------------
# the per-class sign predicate, as a reference for the integer rows
# ---------------------------------------------------------------------------


def sign_at(m: MarkedArea, t: Fraction) -> int:
    """The sign of the area at ``t = p/q``: that of ``c*q + s*den*p``."""
    n = m.c * t.denominator + m.s * m.den * t.numerator
    return (n > 0) - (n < 0)


# ---------------------------------------------------------------------------
# the monotone-class solver, as a reference for the closed form
# ---------------------------------------------------------------------------


def monotone_moment(family: AffineClassFamily) -> Optional[Fraction]:
    """Moment value at which the family hits a positive multiple of -K.

    Solves ``A + t B = s (-K)`` exactly as a linear system in (t, s),
    including the degenerate branches where the slope is zero or parallel to
    the canonical class; returns a witnessing t in the closed interval with
    s > 0, else None.  Works on any basis.
    """
    lat = family.lattice
    a = family.base.coeffs
    b = family.slope.coeffs
    m = tuple(-Fraction(kc) for kc in lat.canonical.coeffs)  # -K
    n = lat.rank
    interval = family.interval

    def verify(t: Fraction, s: Fraction) -> Optional[Fraction]:
        if s > 0 and interval.contains(t):
            if all(a[r] + t * b[r] == s * m[r] for r in range(n)):
                return t
        return None

    # generic branch: two coordinates with independent (b, m) rows
    for i in range(n):
        for j in range(i + 1, n):
            det = b[i] * m[j] - b[j] * m[i]
            if det == 0:
                continue
            # t*b_i - s*m_i = -a_i ; t*b_j - s*m_j = -a_j
            t = (a[j] * m[i] - a[i] * m[j]) / det
            s = (a[j] * b[i] - a[i] * b[j]) / det
            return verify(t, s)
    # slope parallel to the canonical direction (or zero): s depends on t
    pivot = next((i for i in range(n) if m[i] != 0), None)
    if pivot is None:
        return None
    for t in (interval.midpoint, interval.lo, interval.hi):
        s = (a[pivot] + t * b[pivot]) / m[pivot]
        witness = verify(t, s)
        if witness is not None:
            return witness
    return None


# ---------------------------------------------------------------------------
# the scenario payload, as a reference for the schema writer
# ---------------------------------------------------------------------------


def scenario_payload(data: FixedPointData) -> dict:
    """The JSON value of a scenario file: ``serialize_scenario(data)`` must equal
    ``json.dumps(scenario_payload(data), indent=2) + "\\n"``."""

    def component(c: FixedComponent) -> dict:
        out = {"kind": c.kind.value, "index": c.index}
        for name, (_, write) in _FIELDS.items():
            value = getattr(c, name)
            if value is not None:
                out[name] = write(value)
        return out

    levels = []
    for lv in data.levels:
        obj = {
            "value": _json_rational(lv.value),
            "components": [component(c) for c in lv.components],
        }
        if lv.euler_minus is not None:
            obj["euler_minus"] = _integer_coeffs(lv.euler_minus)
        levels.append(obj)
    return {"name": data.name, "dim": data.dim, "mode": data.mode, "levels": levels}


# ---------------------------------------------------------------------------
# tools beyond the package's API
# ---------------------------------------------------------------------------


def cls(*coeffs) -> LatticeClass:
    """Shorthand constructor: ``cls(1, -1, -1)``."""
    return LatticeClass(coeffs)


def surface_component(
    index: int,
    reduced_class: LatticeClass,
    genus: int = 0,
    normal_euler: Optional[int] = None,
) -> FixedComponent:
    return FixedComponent(
        ComponentKind.SURFACE,
        index,
        genus=genus,
        reduced_class=reduced_class,
        normal_split=(index // 2, 2 - index // 2),
        normal_euler=normal_euler,
    )


def fourfold_component(
    index: int,
    gram: Sequence[Sequence[int]],
    areas: Sequence,
    normal_euler: int = 0,
    canonical: Optional[Sequence[int]] = None,
    euler_class: Optional[Sequence[int]] = None,
) -> FixedComponent:
    return FixedComponent(
        ComponentKind.FOURFOLD,
        index,
        normal_split=(index // 2, 1 - index // 2),
        normal_euler=normal_euler,
        gram=tuple(map(tuple, gram)),
        areas=tuple(Fraction(a) for a in areas),
        canonical=None if canonical is None else tuple(canonical),
        euler_class=None if euler_class is None else tuple(euler_class),
    )


class LatticeIsometry(NamedTuple):
    """An integer matrix acting on coefficient vectors, preserving the pairing."""

    matrix: tuple[tuple[int, ...], ...]
    preserves_canonical: bool

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
        raise ValueError("Cremona moves are defined on the default basis")
    k = lattice.blowup_count
    if k < 3:
        raise ValueError("Cremona moves need at least three blow-ups")
    idx = (i, j, m)
    if len(set(idx)) != 3 or any(not 1 <= a <= k for a in idx):
        raise ValueError(f"indices {idx} are not distinct blow-up indices")
    r = lattice.rank
    images = {0: [2 if c == 0 else 0 for c in range(r)]}
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


def area_text(family: AffineClassFamily, c: LatticeClass) -> str:
    """The area of ``c`` as an affine function of t, e.g. ``"5-t"``."""
    return fmt_affine(*family.area_affine(c))


def interval_containing(trace: WalkTrace, t) -> IntervalRecord:
    """The record of the regular interval that holds ``t`` strictly inside."""
    t = Fraction(t)
    for rec in trace.intervals:
        if rec.interval.lo < t < rec.interval.hi:
            return rec
    raise PreconditionError(f"{fmt_q(t)} is not strictly inside a regular interval")


def blown_up_sphere_product(k: int) -> IntersectionLattice:
    """The sphere product blown up ``k`` times, unpresented: A/B/E1/.../Ek."""
    lat = hyperbolic_lattice()
    for _ in range(k):
        lat = blow_up_lattice(lat).target
    return lat


def is_zero(x: LatticeClass) -> bool:
    return not any(x.nums)


def pullback_basis(f: LatticeMap) -> tuple[LatticeClass, ...]:
    """The pullbacks of the target's basis classes: a blow-down's presentation basis."""
    return tuple(f.pullback(f.target.basis(i)) for i in range(f.target.rank))


def compose(a: LatticeIsometry, b: LatticeIsometry) -> LatticeIsometry:
    """The isometry ``a`` after ``b``."""
    n = len(a.matrix)
    matrix = tuple(
        tuple(sum(a.matrix[i][k] * b.matrix[k][j] for k in range(n)) for j in range(n))
        for i in range(n)
    )
    return LatticeIsometry(matrix, a.preserves_canonical and b.preserves_canonical)


def is_identity(iso: LatticeIsometry) -> bool:
    n = len(iso.matrix)
    return all(iso.matrix[i][j] == (i == j) for i in range(n) for j in range(n))


def with_negated_euler(fp: Fingerprint) -> Fingerprint:
    """The fingerprint of the same state with the Euler class negated.

    The volume slope ``-pair(A_t, e)`` changes sign with ``e``.
    """
    return Fingerprint(
        fp.lattice_type,
        fp.canonical_self,
        fp.volume,
        -fp.volume_slope,
        tuple(sorted((a, -p) for a, p in fp.marked_areas)),
        fp.euler_self,
        -fp.euler_canonical,
    )


def fingerprint_at(trace: WalkTrace, t) -> Fingerprint:
    """The state fingerprint at a value strictly inside a regular interval."""
    return state_fingerprint(interval_containing(trace, t).family, t)


def level_at(data: FixedPointData, value) -> CriticalLevel:
    value = Fraction(value)
    for lv in data.levels:
        if lv.value == value:
            return lv
    raise KeyError(f"no critical level at {value}")


def index_multiset(level: CriticalLevel) -> tuple[int, ...]:
    return tuple(sorted(c.index for c in level.components))
