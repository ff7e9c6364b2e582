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
rows replaced, the ``MarkedArea`` records, the ``Fraction`` renderers
(``fraction_fmt_affine``, ``fraction_fmt_quadratic``), the trace emitters
built on them (``reference_trace_csv``, ``reference_trace_text``) and
``reference_fingerprint`` are the layer that emitted and fingerprinted
before the integer rows did (built here from ``lattice.pair``, not from the
rows; ``area_view`` reads a table's row back into the same records), and
``Quadratic`` (built by ``reference_volume``) is the ``Fraction`` volume
polynomial that the family's integer volume numerators replaced,
``monotone_moment`` is the linear-system solver that the closed form of
``rigidity._monotone_moment`` replaced, ``scenario_payload`` is the
payload that ``json.dumps(..., indent=2)`` wrote before the schema writer
replaced it, and ``fraction_build``, ``fraction_value_issues`` and
``fraction_value_lattice_check`` are the sort-and-merge, the order checks
and the value lattice check on ``Fraction`` values that the numerators over
one denominator replaced.

The tools near the end are what the tests need beyond the package's API:
the component builders (``surface_component``, ``fourfold_component``),
two surface data sets (``carried_surface_data``, ``pencil_data``), the
walk-guided universe of small data (``walk_universe``, checked leaf by leaf
by ``check_universe``),
``cls``, ``weyl_orbit``, ``LatticeIsometry`` and ``cremona_standard``,
``area`` and ``area_affine`` (the ``Fraction`` areas of a family),
``area_text``, ``interval_containing`` and smaller helpers.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from functools import lru_cache
from math import isqrt
from operator import mul
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence

from dhwalk.classify import small_data_bootstrap
from dhwalk.errors import WALK_REFUSALS, InternalInvariantError, PreconditionError, WalkError
from dhwalk.io import _FIELDS, parse_scenario, serialize_scenario
from dhwalk.family import AffineClassFamily, Interval
from dhwalk.formatting import exact_rational, fmt_affine, fmt_q, fmt_term
from dhwalk.lattice import (
    IntersectionLattice,
    LatticeClass,
    LatticeMap,
    _mat_vec,
    _solutions,
    _weyl_closure,
    blow_up_lattice,
    default_lattice,
    exceptional_classes,
    general_lattice,
    hyperbolic_lattice,
    ruling_classes,
)
from dhwalk.record import Record
from dhwalk.scenario import (
    ComponentKind,
    CriticalLevel,
    FixedComponent,
    FixedPointData,
    IsolatedValueCheck,
    point_component,
    time_reversed,
)
from dhwalk.walk import (
    Fingerprint,
    WalkTrace,
    _plane_above_minimum,
    _screen_interval,
    cross_level,
    finalize_at_maximum,
    run_walk,
    state_fingerprint,
)


def fraction_coeffs(c: LatticeClass) -> tuple[Fraction, ...]:
    """The coefficients of ``c`` as ``Fraction``s, the references' view of a class."""
    return tuple(Fraction(n, c.den) for n in c.nums)


def brute_force_exceptional(lattice: IntersectionLattice, box: int = 3) -> set:
    """Independent oracle: all C with C.C = -1 = C.K in the coefficient box."""
    out = set()
    k = lattice.canonical
    for tup in itertools.product(range(-box, box + 1), repeat=lattice.rank):
        c = LatticeClass(tup)
        if lattice.pair(c, c) == -1 and lattice.pair(c, k) == -1:
            out.add(fraction_coeffs(c))
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
# the moment line on Fraction values, as an oracle for the integer one
# ---------------------------------------------------------------------------


def fraction_build(name: str, dim: int, mode: str, levels) -> FixedPointData:
    """``FixedPointData.build`` as it sorted and merged on ``Fraction`` keys."""
    merged = []
    for value, run in itertools.groupby(sorted(levels, key=_value), key=_value):
        group = list(run)
        if len(group) > 1:
            eulers = [lv.euler_minus for lv in group if lv.euler_minus is not None]
            if len(eulers) > 1:
                raise ValueError(f"conflicting Euler data at merged level {fmt_q(value)}")
            comps = [c for lv in group for c in lv.components]
            group = [CriticalLevel(value, comps, eulers[0] if eulers else None)]
        merged.append(group[0])
    return FixedPointData(name, dim, mode, tuple(merged))


def _value(level: CriticalLevel) -> Fraction:
    return level.value


def fraction_value_issues(data: FixedPointData) -> list[str]:
    """The ``values`` and ``normalization`` lines of ``validate_structure``,
    with the values compared as ``Fraction``s."""
    values = [lv.value for lv in data.levels]
    lines = []
    for a, b in zip(values, values[1:]):
        if a == b:
            lines.append(f"[values] duplicated critical value {fmt_q(a)} (levels must be merged)")
        elif a > b:
            lines.append(f"[values] critical values out of order: {fmt_q(a)} before {fmt_q(b)}")
    if len(values) > 1 and values[0] != 0:
        lines.append(f"[normalization] minimum critical value must be 0, got {fmt_q(values[0])}")
    return lines


def fraction_value_lattice_check(data: FixedPointData) -> IsolatedValueCheck:
    """``isolated_value_lattice_check`` on ``Fraction`` values, four sorts and
    all.  A failure names the multiset difference, declared less expected, in
    level order."""
    if data.dim != 6 or any(c.kind is not ComponentKind.POINT
                            for lv in data.levels for c in lv.components):
        return IsolatedValueCheck("not-applicable", None, "data has non-point components")
    per_component = [(lv.value, c.index) for lv in data.levels for c in lv.components]
    indices = sorted(idx for _, idx in per_component)
    if indices != [0, 2, 2, 2, 4, 4, 4, 6]:
        return IsolatedValueCheck(
            "fail", None, f"index multiset {indices} is not (0,2,2,2,4,4,4,6)"
        )
    lams = tuple(sorted(value for value, idx in per_component if idx == 2))
    l1, l2, l3 = lams
    expected = sorted([Fraction(0), l1, l2, l3, l1 + l2, l1 + l3, l2 + l3, l1 + l2 + l3])
    if expected == sorted(value for value, _ in per_component):
        return IsolatedValueCheck("pass", lams, "value lattice consistent")
    unexpected = []
    for value, _ in per_component:
        if value in expected:
            expected.remove(value)
        else:
            unexpected.append(fmt_q(value))
    return IsolatedValueCheck(
        "fail",
        lams,
        f"value multiset does not match sums of ({fmt_q(l1)},{fmt_q(l2)},{fmt_q(l3)}): "
        f"unexpected values {unexpected}",
    )


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
# the Fraction emitter and fingerprint, as references for the integer rows
# ---------------------------------------------------------------------------


class MarkedArea(Record):
    """The affine area ``const + slope*t = (c + s*den*t) / den`` of one marked class.

    ``c`` pairs the family base's numerators with the class, ``s`` pairs the
    integral slope with it and ``den`` is the base's denominator; ``const``,
    ``slope``, ``euler`` and ``at`` are the ``Fraction`` values that the
    emitters and the fingerprint read before they read the integer row.
    """

    __slots__ = ("cls", "c", "s", "den")

    @property
    def const(self) -> Fraction:
        return Fraction(self.c, self.den)

    @property
    def slope(self) -> Fraction:
        return Fraction(self.s)

    @property
    def euler(self) -> Fraction:
        """``pair(e, C)``, which the slope convention makes minus the area slope."""
        return Fraction(-self.s)

    def at(self, t) -> Fraction:
        return self.const + t * self.slope


def sign_at(m: MarkedArea, t: Fraction) -> int:
    """The sign of the area at ``t = p/q``: that of ``c*q + s*den*p``."""
    n = m.c * t.denominator + m.s * m.den * t.numerator
    return (n > 0) - (n < 0)


def reference_area(lat: IntersectionLattice, base: LatticeClass, slope: LatticeClass,
                   x: LatticeClass) -> MarkedArea:
    """The marked area of ``x`` built from ``lattice.pair``."""
    c, s = lat.pair(base, x) * base.den, lat.pair(slope, x)
    assert c.denominator == 1 and s.denominator == 1
    return MarkedArea(x, c.numerator, s.numerator, base.den)


class Quadratic(NamedTuple):
    """``c0 + c1*t + c2*t^2`` in ``Fraction`` arithmetic: the volume as the
    family held it before its integer numerators (``reference_volume``)."""

    c0: Fraction
    c1: Fraction
    c2: Fraction

    def __call__(self, t) -> Fraction:
        t = Fraction(t)
        return self.c0 + self.c1 * t + self.c2 * t * t

    def integrate(self, lo, hi) -> Fraction:
        """Exact definite integral via the closed-form antiderivative."""

        def anti(t: Fraction) -> Fraction:
            return self.c0 * t + self.c1 * t * t / 2 + self.c2 * t * t * t / 3

        return anti(Fraction(hi)) - anti(Fraction(lo))


def reference_volume(family: AffineClassFamily) -> Quadratic:
    """The volume ``A.A/2 + (A.B)*t + (B.B/2)*t^2`` of ``A + t*B``, from ``lattice.pair``."""
    lat, base, slope = family.lattice, family.base, family.slope
    return Quadratic(lat.pair(base, base) / 2, lat.pair(base, slope), lat.pair(slope, slope) / 2)


class AreaView(NamedTuple):
    """A family's area row as ``MarkedArea`` records, grouped by frame range."""

    line: Optional[MarkedArea]
    rulings: tuple[MarkedArea, ...]
    exceptional: tuple[MarkedArea, ...]
    volume: Quadratic
    euler_self: Fraction
    euler_canonical: Fraction


def area_view(family: AffineClassFamily) -> AreaView:
    """The family's integer row read back as ``MarkedArea`` records, and its
    volume numerators as a ``Quadratic``, with the frame's Euler constants."""
    frame, den2 = family.frame, 2 * family.base.den ** 2
    marked = tuple(MarkedArea(x, c, s, family.base.den)
                   for x, c, s in zip(frame.classes, family.row, frame.slopes))
    n, r = frame.rulings.start, frame.rulings.stop
    volume = Quadratic(*(Fraction(v, den2) for v in family.volume_nums))
    return AreaView(marked[0] if n else None, marked[n:r], marked[r:], volume,
                    frame.euler_self, frame.euler_canonical)


def reference_view(family: AffineClassFamily) -> AreaView:
    """The area view of ``family`` built from ``lattice.pair`` alone."""
    lat, base, slope = family.lattice, family.base, family.slope
    return AreaView(
        reference_area(lat, base, slope, lat.basis(0)) if lat.form == "default" else None,
        tuple(reference_area(lat, base, slope, x) for x in ruling_classes(lat)),
        tuple(reference_area(lat, base, slope, x) for x in exceptional_classes(lat)),
        reference_volume(family),
        lat.pair(slope, slope),
        -lat.pair(slope, lat.canonical),
    )


def _fraction_prefix(c: Fraction) -> str:
    """Multiplier in front of ``t``; empty for 1, ``-`` for -1."""
    if c == 1:
        return ""
    if c == -1:
        return "-"
    return f"{fmt_q(c)}*"


def fraction_fmt_affine(const: Fraction | int, slope: Fraction | int) -> str:
    """``const + slope*t`` rendered in ``Fraction`` arithmetic: ``t-2``, ``5-t``."""
    if slope == 0:
        return fmt_q(const)
    t_term = f"{_fraction_prefix(slope)}t"
    if const == 0:
        return t_term
    if slope > 0:
        sign = "+" if const > 0 else "-"
        return f"{t_term}{sign}{fmt_q(abs(const))}"
    # negative slope: write the constant first, "5-t" style
    return f"{fmt_q(const)}{'-' if slope < 0 else '+'}{_fraction_prefix(abs(slope))}t"


def fraction_fmt_quadratic(c0: Fraction, c1: Fraction, c2: Fraction) -> str:
    """``c2*t^2 + c1*t + c0`` rendered in ``Fraction`` arithmetic, no spaces."""
    terms: list[str] = []
    for coeff, power in ((c2, "t^2"), (c1, "t")):
        if coeff == 0:
            continue
        body = f"{_fraction_prefix(abs(coeff))}{power}"
        if not terms:
            terms.append(("-" if coeff < 0 else "") + body)
        else:
            terms.append(("-" if coeff < 0 else "+") + body)
    if c0 != 0 or not terms:
        if not terms:
            terms.append(fmt_q(c0))
        else:
            terms.append(("-" if c0 < 0 else "+") + fmt_q(abs(c0)))
    return "".join(terms)


def reference_areas_text(family: AffineClassFamily, sep: str) -> str:
    """The areas a trace row reports: the line (or the rulings), then exceptional."""
    view = reference_view(family)
    marked = ((view.line,) if view.line else view.rulings) + view.exceptional
    lat = family.lattice
    return sep.join(f"{lat.name_of(m.cls)}={fraction_fmt_affine(m.const, m.s)}" for m in marked)


def reference_euler_text(family: AffineClassFamily) -> str:
    view = reference_view(family)
    body = ",".join(fmt_q(e) for e in sorted(-m.s for m in view.exceptional + view.rulings))
    return f"e.e={fmt_q(view.euler_self)}|e.K={fmt_q(view.euler_canonical)}|e.C=[{body}]"


def reference_volume_text(family: AffineClassFamily) -> str:
    vol = reference_view(family).volume
    return fraction_fmt_quadratic(vol.c0, vol.c1, vol.c2)


def reference_trace_csv(trace: WalkTrace) -> str:
    """``trace_csv`` as the ``MarkedArea`` layer emitted it."""
    lines = ["interval_lo,interval_hi,k,exc_areas,euler_fingerprint,volume_poly,rigidity_status"]
    for family in trace.intervals:
        lines.append(",".join([
            fmt_q(family.interval.lo),
            fmt_q(family.interval.hi),
            str(family.lattice.rank - 1),
            reference_areas_text(family, ";"),
            reference_euler_text(family),
            reference_volume_text(family),
            family.rigidity.status.value,
        ]))
    return "\n".join(lines) + "\n"


def reference_trace_text(trace: WalkTrace) -> str:
    """``trace_text`` as the ``MarkedArea`` layer emitted it."""
    out = [f"walk trace: {trace.name}"]
    rng = trace.moment_range
    out.append(f"moment interval: [{fmt_q(rng.lo)}, {fmt_q(rng.hi)}]")
    for i, family in enumerate(trace.intervals):
        if i > 0:
            ev = trace.events[i - 1]
            acts = ", ".join(f"{a.kind}({a.class_name})" for a in ev.actions)
            out.append(f"-- wall {fmt_q(ev.value)}: {acts}")
        out.append(
            f"interval {family.interval}: k={family.lattice.rank - 1} "
            f"[{'/'.join(family.lattice.labels)}]"
            f"  areas: {reference_areas_text(family, '  ')}"
        )
        out.append(
            f"    euler {reference_euler_text(family)}  volume "
            f"{reference_volume_text(family)}  rigidity {family.rigidity.status.value}"
        )
    if trace.final_report is not None:
        out.append(f"maximum at {fmt_q(trace.final_report.value)}:")
        out.extend(f"    {line}" for line in trace.final_report.lines())
    return "\n".join(out) + "\n"


def reference_fingerprint(family: AffineClassFamily, t) -> Fingerprint:
    """The state fingerprint as the ``MarkedArea`` layer built it: every area a
    ``Fraction`` at ``t``, sorted with its Euler pairing."""
    t = Fraction(t)
    lat, view = family.lattice, reference_view(family)
    vol = view.volume
    return Fingerprint(
        (lat.rank, "even" if lat.is_even else "odd", lat.signature),
        lat.pair(lat.canonical, lat.canonical),
        vol(t),
        vol.c1 + 2 * vol.c2 * t,
        tuple(sorted((m.at(t), m.euler) for m in view.exceptional + view.rulings)),
        view.euler_self,
        view.euler_canonical,
    )


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
    a = fraction_coeffs(family.base)
    b = fraction_coeffs(family.slope)
    m = tuple(-Fraction(kc) for kc in lat.canonical.nums)  # -K
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
        value = lv.value.numerator if lv.value.denominator == 1 else fmt_q(lv.value)
        obj = {"value": value, "components": [component(c) for c in lv.components]}
        if lv.euler_minus is not None:
            obj["euler_minus"] = list(lv.euler_minus.integer_coeffs())
        levels.append(obj)
    return {"name": data.name, "dim": data.dim, "mode": data.mode, "levels": levels}


# ---------------------------------------------------------------------------
# tools beyond the package's API
# ---------------------------------------------------------------------------


def weyl_orbit(seeds) -> tuple[LatticeClass, ...]:
    """The default-basis tuples ``seeds`` closed under the simple reflections of
    W(E_k), as classes sorted by coefficients."""
    return tuple(LatticeClass._of(t, 1) for t in sorted(_weyl_closure((s,) for s in seeds)))


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


def column_moves(rank: int, moves) -> tuple[list[list[int]], list[list[int]]]:
    """``(U, U^-1)`` after the column moves ``col_i += m col_j``, each ``(i, j, m)``
    in turn, on the identity of ``rank``; a move with ``i == j`` is skipped."""
    u = [[int(i == j) for j in range(rank)] for i in range(rank)]
    u_inv = [row[:] for row in u]
    for i, j, m in moves:
        if i != j:
            for row in u:
                row[i] += m * row[j]
            u_inv[j] = [a - m * b for a, b in zip(u_inv[j], u_inv[i])]
    return u, u_inv


def moved_fourfold(comp: FixedComponent, u, u_inv) -> FixedComponent:
    """The declared fourfold ``comp`` in the basis whose i-th class is column i of
    ``u``: the gram, the areas, the canonical class and the Euler class move with
    it, and the last two are written out."""
    r = len(u)
    lat = general_lattice(comp.gram, comp.canonical)
    euler = comp.euler_class
    if euler is None:  # ``declared_family``'s default
        euler = (-(comp.normal_euler or 0),) + (0,) * (r - 1)

    def coords(v):
        return tuple(sum(row[t] * v[t] for t in range(r)) for row in u_inv)

    def pairing(i, j):  # of the new basis classes i and j
        return sum(u[a][i] * lat.gram[a][b] * u[b][j] for a in range(r) for b in range(r))

    return FixedComponent(
        ComponentKind.FOURFOLD,
        comp.index,
        normal_split=comp.normal_split,
        normal_euler=comp.normal_euler,
        gram=tuple(tuple(pairing(i, j) for j in range(r)) for i in range(r)),
        areas=tuple(sum(u[a][i] * comp.areas[a] for a in range(r)) for i in range(r)),
        canonical=coords(lat.canonical.nums),
        euler_class=coords(euler),
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


def carried_surface_data() -> FixedPointData:
    """Small genus-0 data whose walk carries a surface class through a blow-down.

    At 1 the line ``L`` shifts the Euler class down and a point blows up; the
    conic ``2L-E1`` shifts it up at 2 and at 3; at 4 a point blows ``E1`` down
    and ``L-E1`` is carried to ``L`` before its down-shift.  The walk passes its
    maximum check with k-sequence (0, 1, 1, 1, 0).
    """
    return FixedPointData.build("carried-surface", 6, "small", [
        CriticalLevel(0, [point_component(0)]),
        CriticalLevel(1, [point_component(2), surface_component(4, cls(1))]),
        CriticalLevel(2, [surface_component(2, cls(2, -1))]),
        CriticalLevel(3, [surface_component(2, cls(2, -1))]),
        CriticalLevel(4, [point_component(4), surface_component(4, cls(1, -1))]),
        CriticalLevel(5, [point_component(6)]),
    ])


class UniverseItem(NamedTuple):
    """One leaf of ``walk_universe``: a data set the walk accepted, with the families
    it walked and no error, or a prefix ending at the level whose crossing was
    refused, with the families before it, the refusal and ``aimed_at``, the next
    value the refused crossing was taken towards (``None`` on an accepted set)."""

    levels: tuple[CriticalLevel, ...]
    families: tuple[AffineClassFamily, ...]
    error: Optional[WalkError]
    aimed_at: Optional[int] = None


def universe_menus(lattice: IntersectionLattice, box: Sequence[int],
                   adjunctive: bool = False) -> list[list[FixedComponent]]:
    """The components a level tries on an arriving ``lattice``: five point menus,
    then a genus-0 surface of index 2 or 4 with its class in ``box^rank`` (only
    the classes F with F.F + K.F = -2 when ``adjunctive``, so no surface breaks
    adjunction), alone or beside a point of index 2 or 4."""
    p2, p4 = point_component(2), point_component(4)
    menus = [[p2], [p4], [p2, p2], [p4, p4], [p2, p4]]
    for coeffs in itertools.product(box, repeat=lattice.rank):
        if adjunctive and lattice.dot(coeffs, coeffs) + lattice.dot(
                lattice.canonical.nums, coeffs) != -2:
            continue
        for index in (2, 4):
            surface = surface_component(index, LatticeClass(coeffs))
            menus += [[surface], [surface, p2], [surface, p4]]
    return menus


def walk_universe(depth: int, values: Sequence[int], box: Sequence[int],
                  adjunctive: bool = False) -> Iterator[UniverseItem]:
    """Every data set with at most ``depth`` interior levels at increasing ``values``,
    between an isolated minimum at 0 and an isolated maximum, found depth first by
    the walk (bounded-exhaustive testing: the small scope hypothesis).

    A prefix starts from the screened family above the minimum.  At its next
    value it is closed by an isolated maximum through ``finalize_at_maximum`` and
    yielded when the check passes; then, below ``depth``, every menu of
    ``universe_menus`` (``adjunctive`` or not) is crossed there towards every later value with
    ``cross_level``, which returns the family the next crossing starts from.  A
    refused crossing is yielded with its ``WalkError`` and not extended: no
    extension of it walks.  Any other exception propagates.
    """
    def extend(levels, families):
        family = families[-1]
        lam = family.interval.hi
        top = CriticalLevel(lam, [point_component(6)])
        if finalize_at_maximum(family, top).passed:
            yield UniverseItem((*levels, top), families, None)
        if len(levels) > depth:  # the minimum and ``depth`` interior levels
            return
        later = [v for v in values if v > lam]
        for components in universe_menus(family.lattice, box, adjunctive):
            level = CriticalLevel(lam, components)
            for hi in later:
                try:
                    crossed, _ = cross_level(family, level, hi)
                except WalkError as err:
                    yield UniverseItem((*levels, level), families, err, hi)
                    continue
                yield from extend((*levels, level), (*families, crossed))

    minimum = CriticalLevel(0, [point_component(0)])
    for v in values:
        first = _screen_interval(_plane_above_minimum().with_interval(Interval(0, v)))
        yield from extend((minimum,), (first,))


@lru_cache(maxsize=None)
def small_universe() -> tuple[UniverseItem, ...]:
    """The leaves of tier-1's universe slice (depth 3, values 1 to 4, box [-1, 2]),
    enumerated once per test run for every test that reads them."""
    return tuple(walk_universe(3, range(1, 5), range(-1, 3)))


def universe_data(item: UniverseItem, name: str) -> FixedPointData:
    """A leaf as small data: an accepted set as it is, a refused prefix closed by an
    isolated maximum at the value its refused crossing was aimed at."""
    top = () if item.error is None else (CriticalLevel(item.aimed_at, [point_component(6)]),)
    return FixedPointData.build(name, 6, "small", (*item.levels, *top))


def check_universe(depth: int, values: Sequence[int], box: Sequence[int],
                   adjunctive: bool = False) -> tuple[int, int, int]:
    """Check every leaf of ``walk_universe`` and count them (``check_leaves``)."""
    return check_leaves(walk_universe(depth, values, box, adjunctive))


def check_leaves(leaves: Iterable[UniverseItem]) -> tuple[int, int, int]:
    """Check every leaf of a universe and count them: ``(accepted, reversed, refused)``.

    A refused prefix is a ``WalkError`` at the level being crossed, of a known
    kind.  An accepted set walks again to the same families, bootstraps
    idempotently through a file and, where it reverses, reverses its k-sequence.
    """
    accepted = reversed_ = refused = 0
    for item in leaves:
        if item.error is not None:
            refused += 1
            err = item.error
            assert type(err) is WalkError, err
            assert (err.wall, err.kind in WALK_REFUSALS) == (item.levels[-1].value, True), err
            continue
        accepted += 1
        data = universe_data(item, f"universe-{accepted}")
        trace = run_walk(data)
        assert trace.final_report.passed
        assert trace.intervals == item.families
        assert trace.fingerprints() == tuple(
            state_fingerprint(f, f.interval.midpoint) for f in item.families)
        assert [f.rigidity for f in trace.intervals] == [f.rigidity for f in item.families]
        full = small_data_bootstrap(data)
        again = parse_scenario(serialize_scenario(full))
        assert again == full and small_data_bootstrap(again) == full
        try:
            backwards = time_reversed(data)
        except PreconditionError:
            continue
        reversed_ += 1
        assert run_walk(backwards).k_sequence == trace.k_sequence[::-1]
    return accepted, reversed_, refused


def pencil_data(f=cls(1, -1, 0), genus=0, normal_euler=None):
    """Two blow-ups, then a sphere of index 2 in class ``f`` at 5/2 on the rank-3 lattice.

    ``L - E1`` and ``L - E2`` have the same ``F.F`` and ``F.K`` but areas 1 and
    2 at the wall.  The data walk; only the maximum check fails.
    """
    return FixedPointData.build("line-pencil", 6, "small", [
        CriticalLevel(0, [point_component(0)]),
        CriticalLevel(1, [point_component(2)]),
        CriticalLevel(2, [point_component(2)]),
        CriticalLevel(Fraction(5, 2), [surface_component(2, f, genus, normal_euler)]),
        CriticalLevel(3, [point_component(6)]),
    ])


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
            raise ValueError("class rank does not match isometry rank")
        return LatticeClass._of(_mat_vec(self.matrix, x.nums), x.den)


def cremona_standard(lattice: IntersectionLattice, i: int, j: int, m: int) -> LatticeIsometry:
    """The standard quadratic involution based at blow-up indices i < j < m.

    Sends ``L`` to ``2L - Ei - Ej - Em`` and each of the three chosen
    exceptional generators to the line through the other two; fixes the rest.
    """
    if lattice.form != "default":
        raise ValueError("Cremona moves are defined on the default form")
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


def area_affine(family: AffineClassFamily, c: LatticeClass) -> tuple[Fraction, Fraction]:
    """The affine area function of ``c`` as ``(constant, slope)``, paired in ``Fraction``s."""
    return family.lattice.pair(family.base, c), family.lattice.pair(family.slope, c)


def area(family: AffineClassFamily, c: LatticeClass, t) -> Fraction:
    """The symplectic area of ``c`` at ``t`` (endpoints allowed); ``ValueError``
    outside the family's interval or on a float."""
    t = exact_rational(t)
    if not family.interval.contains(t):
        raise ValueError(f"moment value {fmt_q(t)} outside interval {family.interval}")
    const, slope = area_affine(family, c)
    return const + t * slope


def area_text(family: AffineClassFamily, c: LatticeClass) -> str:
    """The area of ``c`` as an affine function of t, e.g. ``"5-t"``."""
    const, slope = area_affine(family, c)
    assert slope.denominator == 1
    return fmt_affine(const.numerator, const.denominator, slope.numerator,
                      fmt_term(abs(slope.numerator), 1, "t"))


def interval_containing(trace: WalkTrace, t) -> AffineClassFamily:
    """The family of the regular interval that holds ``t`` strictly inside."""
    t = Fraction(t)
    for family in trace.intervals:
        if family.interval.lo < t < family.interval.hi:
            return family
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
    return state_fingerprint(interval_containing(trace, t), t)


def level_at(data: FixedPointData, value) -> CriticalLevel:
    value = Fraction(value)
    for lv in data.levels:
        if lv.value == value:
            return lv
    raise KeyError(f"no critical level at {value}")


def index_multiset(level: CriticalLevel) -> tuple[int, ...]:
    return tuple(sorted(c.index for c in level.components))
