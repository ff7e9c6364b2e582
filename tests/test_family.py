from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from dhwalk.errors import PreconditionError
from dhwalk.family import (
    AffineClassFamily,
    Interval,
    symplectic_cone_check,
)
from dhwalk.lattice import (
    blow_up_lattice,
    default_lattice,
    exceptional_classes,
    hyperbolic_lattice,
)
from dhwalk.walk import WalkTrace
from testutil import Quadratic, area, area_affine, area_text, cls, reference_volume

rationals = st.fractions(
    min_value=Fraction(-50), max_value=Fraction(50), max_denominator=12
)


def hopf_family(hi=10):
    """Reduction of the round five-sphere: area(L) = t, Euler class -L."""
    lat = default_lattice(0)
    return AffineClassFamily(lat, lat.cls(0), lat.cls(1), Interval(0, hi))


def two_blowup_family(l1, l2, lo, hi):
    """Areas (t, t-l1, t-l2) on (L, E1, E2); Euler class -L+E1+E2."""
    lat = default_lattice(2)
    base = lat.cls(0, l1, l2)
    slope = lat.cls(1, -1, -1)
    return AffineClassFamily(lat, base, slope, Interval(lo, hi))


# ---------------------------------------------------------------------------
# areas
# ---------------------------------------------------------------------------


def test_hopf_line_area_is_t():
    fam = hopf_family()
    L = fam.lattice.basis(0)
    assert area(fam, L, Fraction(7, 2)) == Fraction(7, 2)
    assert area_text(fam, L) == "t"


def test_fresh_exceptional_area_after_crossing():
    lat = default_lattice(1)
    lam1 = Fraction(2)
    fam = AffineClassFamily(lat, lat.cls(0, lam1), lat.cls(1, -1), Interval(2, 3))
    assert area(fam, lat.basis(1), Fraction(5, 2)) == Fraction(1, 2)  # t - 2
    assert area_text(fam, lat.basis(1)) == "t-2"


def test_line_through_two_points_area():
    # bilinearity forces t - (t-l1) - (t-l2) = l1 + l2 - t
    fam = two_blowup_family(2, 3, 4, 5)
    c = cls(1, -1, -1)
    const, slope = area_affine(fam, c)
    assert (const, slope) == (5, -1)
    assert area_text(fam, c) == "5-t"


def test_area_outside_interval_is_domain_error():
    fam = hopf_family(hi=1)
    with pytest.raises(ValueError, match="^moment value 2 outside interval"):
        area(fam, fam.lattice.basis(0), 2)


@given(t=rationals, s=rationals)
def test_area_affine_consistency(t, s):
    fam = two_blowup_family(2, 3, -100, 100)
    c = cls(1, -1, 0)
    slope = fam.lattice.pair(fam.slope, c)
    assert area(fam, c, t) - area(fam, c, s) == (t - s) * slope


# ---------------------------------------------------------------------------
# the Euler convention
# ---------------------------------------------------------------------------


def family_with_euler(lat, e):
    """A family over (0, 1) whose bundle has Euler class ``e``: slope ``-e``."""
    return AffineClassFamily(lat, lat.cls(*[0] * lat.rank), -e, Interval(0, 1))


def test_slope_from_negative_generator():
    lat = default_lattice(0)
    fam = family_with_euler(lat, -lat.basis(0))
    assert fam.euler == -lat.basis(0)
    assert lat.pair(fam.slope, lat.basis(0)) == 1
    assert area(fam, lat.basis(0), 1) - area(fam, lat.basis(0), 0) == 1  # area(L) grows like t


def test_slope_from_two_blowup_euler_class():
    lat = default_lattice(2)
    e = lat.cls(-1, 1, 1)
    fam = family_with_euler(lat, e)
    assert fam.euler == e
    for name, c, expected in [
        ("L", lat.basis(0), 1),
        ("E1", lat.basis(1), 1),
        ("E2", lat.basis(2), 1),
        ("L-E1-E2", cls(1, -1, -1), -1),
    ]:
        assert area_affine(fam, c)[1] == expected, name
        assert area_affine(fam, c)[1] == -lat.pair(fam.euler, c)


def test_slope_from_positive_generator_flips_sign():
    lat = default_lattice(0)
    fam = family_with_euler(lat, lat.basis(0))
    assert lat.pair(fam.slope, lat.basis(0)) == -1


def test_family_slope_must_be_integral():
    lat = default_lattice(0)
    with pytest.raises(ValueError, match="family slope must be integral"):
        AffineClassFamily(lat, lat.cls(0), cls(Fraction(1, 2)), Interval(0, 1))
    with pytest.raises(ValueError, match="family classes must match the lattice rank"):
        AffineClassFamily(lat, lat.cls(0), cls(1, 0), Interval(0, 1))


# ---------------------------------------------------------------------------
# volume polynomials
# ---------------------------------------------------------------------------


def test_hopf_volume_is_half_t_squared():
    fam = hopf_family()
    vol = reference_volume(fam)
    assert (vol.c0, vol.c1, vol.c2) == (0, 0, Fraction(1, 2))
    assert fam.volume_nums == (0, 0, 1)
    for t in (0, Fraction(3, 2), 4):
        assert fam.volume(t) == vol(t) == Fraction(t) ** 2 / 2


def test_three_blowup_volume_piece():
    # areas (t, t-2, t-3, t-4): volume (t^2 - (t-2)^2 - (t-3)^2 - (t-4)^2)/2
    lat = default_lattice(3)
    fam = AffineClassFamily(
        lat, lat.cls(0, 2, 3, 4), lat.cls(1, -1, -1, -1), Interval(4, 5)
    )
    vol = reference_volume(fam)
    expected = Quadratic(Fraction(-29, 2), Fraction(9), Fraction(-1))
    assert (vol.c0, vol.c1, vol.c2) == (expected.c0, expected.c1, expected.c2)
    assert fam.volume_nums == (-29, 18, -2)  # 2*den^2 = 2 times the coefficients
    for t in (4, Fraction(9, 2), 5):
        t = Fraction(t)
        by_hand = (t**2 - (t - 2) ** 2 - (t - 3) ** 2 - (t - 4) ** 2) / 2
        assert fam.volume(t) == vol(t) == by_hand


def test_volume_continuity_across_a_wall():
    left = hopf_family(hi=2)
    lat = default_lattice(1)
    right = AffineClassFamily(lat, lat.cls(0, 2), lat.cls(1, -1), Interval(2, 3))
    assert left.volume(2) == right.volume(2) == 2


@given(
    base=st.tuples(*[st.fractions(max_denominator=6, min_value=-9, max_value=9)] * 3),
    slope=st.tuples(*[st.integers(-4, 4)] * 3),
)
def test_volume_leading_coefficient(base, slope):
    lat = default_lattice(2)
    fam = AffineClassFamily(lat, lat.cls(*base), lat.cls(*slope), Interval(0, 1))
    assert reference_volume(fam).c2 == Fraction(lat.pair(fam.slope, fam.slope), 2)
    # the numerators hold it as 2*den^2 * c2
    assert fam.volume_nums[2] == lat.pair(fam.slope, fam.slope) * fam.base.den ** 2
    # a second difference reads c2 off the values: f(t+1) - 2f(t) + f(t-1) = 2*c2
    assert fam.volume(1) - 2 * fam.volume(0) + fam.volume(-1) == lat.pair(fam.slope, fam.slope)


def test_quadratic_exact_integration():
    p = Quadratic(Fraction(1), Fraction(-3, 2), Fraction(2))
    # antiderivative t - 3t^2/4 + 2t^3/3 evaluated exactly
    assert p.integrate(0, 3) == Fraction(3) - Fraction(27, 4) + Fraction(18)
    # the trace integrates its families' numerators to the same closed form:
    # the piece (t^2 - (t-2)^2 - (t-3)^2 - (t-4)^2)/2 on (4, 5), base over den 2
    lat = default_lattice(3)
    fam = AffineClassFamily(lat, lat.cls(0, 2, 3, Fraction(9, 2)), lat.cls(1, -1, -1, -1),
                            Interval(Fraction(9, 2), 5))
    trace = WalkTrace("piece", (fam,), (), None, None)
    vol = reference_volume(fam)
    assert fam.base.den == 2
    assert trace.volume_integral() == vol.integrate(Fraction(9, 2), 5)


# ---------------------------------------------------------------------------
# cone membership
# ---------------------------------------------------------------------------


def test_cone_hopf_positive():
    assert symplectic_cone_check(hopf_family(), 1).status is True


def test_cone_violation_names_the_vanishing_class():
    fam = two_blowup_family(2, 3, Fraction(9, 2), 6)
    check = symplectic_cone_check(fam, 5)
    assert check.status is False
    assert check.witness == cls(1, -1, -1)
    assert symplectic_cone_check(fam, Fraction(9, 2)).status is True


def five_blowup_family(*coeffs):
    """A constant class on the five-point blow-up, over (0, 1)."""
    lat = default_lattice(5)
    return AffineClassFamily(lat, lat.cls(*coeffs), lat.cls(*(0,) * 6), Interval(0, 1))


def test_cone_on_five_blowups_certifies_the_anticanonical_class():
    check = symplectic_cone_check(five_blowup_family(3, -1, -1, -1, -1, -1), Fraction(1, 2))
    assert check.status is True
    assert check.witness is None


def test_cone_on_five_blowups_names_the_negative_conic():
    # line, every Ei and every L-Ei-Ej have positive area and the square is 1;
    # only the conic through all five points, 2L-E1-...-E5, has area -2
    fam = five_blowup_family(9, -4, -4, -4, -4, -4)
    lat = fam.lattice
    check = symplectic_cone_check(fam, Fraction(1, 2))
    assert check.status is False
    assert check.witness == cls(2, -1, -1, -1, -1, -1)
    assert area(fam, check.witness, Fraction(1, 2)) == -2
    assert fam.volume(0) == Fraction(1, 2)
    assert all(
        area(fam, c, 0) > 0 for c in (lat.basis(0), *exceptional_classes(lat)) if c != check.witness
    )


def test_cone_unknown_off_the_default_basis():
    # the sphere product blown up once, before the walk presents it: A/B/E1
    lat = blow_up_lattice(hyperbolic_lattice()).target
    fam = AffineClassFamily(lat, lat.cls(2, 1, 0), lat.cls(0, 0, 0), Interval(0, 4))
    check = symplectic_cone_check(fam, 2)
    assert check.status is None
    assert "non-default" in check.reason


@pytest.mark.parametrize(
    "base,slope,status,witness",
    [
        ((2, 1), (0, 0), True, None),
        ((2, 1), (0, -1), False, (1, 0)),  # area(A) = 1 - t is -1 at t = 2
        ((2, 1), (-1, 0), False, (0, 1)),  # area(B) = 2 - t vanishes at t = 2
        ((-1, -1), (0, 0), False, (0, 1)),  # both fail: B comes first by coefficients
    ],
    ids=["positive", "A-negative", "B-vanishes", "both"],
)
def test_cone_on_the_sphere_product_is_positivity_on_both_rulings(base, slope, status, witness):
    lat = hyperbolic_lattice()
    fam = AffineClassFamily(lat, lat.cls(*base), lat.cls(*slope), Interval(0, 4))
    check = symplectic_cone_check(fam, 2)
    assert check.status is status
    assert check.witness == (None if witness is None else cls(*witness))
    if status is False:
        assert check.reason == "ruling area not positive"
        assert area(fam, check.witness, 2) <= 0


def test_cone_refuses_where_the_exceptional_classes_are_infinite():
    lat = default_lattice(9)
    fam = AffineClassFamily(lat, lat.cls(*(1,) * 10), lat.cls(*(0,) * 10), Interval(0, 1))
    with pytest.raises(PreconditionError, match="K.K = 0"):
        symplectic_cone_check(fam, Fraction(1, 2))


def test_the_euler_class_is_the_frames_so_it_refuses_where_the_frame_does():
    # beyond eight blow-ups the marked classes need not be finite: no frame, no euler
    lat = default_lattice(9)
    fam = AffineClassFamily(lat, lat.cls(*(1,) * 10), lat.cls(-1, *(0,) * 9), Interval(0, 1))
    with pytest.raises(PreconditionError, match="K.K = 0"):
        fam.euler
    lat = default_lattice(8)
    fam = AffineClassFamily(lat, lat.cls(*(1,) * 9), lat.cls(-1, *(0,) * 8), Interval(0, 1))
    assert fam.euler is fam.frame.euler and fam.euler == lat.cls(1, *(0,) * 8)


def test_cone_domain_error():
    with pytest.raises(ValueError, match=r"^moment value 5 outside interval \(0,1\)$"):
        symplectic_cone_check(hopf_family(hi=1), 5)


def test_cone_constant_between_area_roots():
    # sample rational midpoints between consecutive roots of the marked areas
    fam = two_blowup_family(2, 3, Fraction(1, 10), 20)
    lat = fam.lattice
    marked = [lat.basis(0), *exceptional_classes(lat)]
    roots = sorted(
        {-Fraction(c) / s for c, s in (area_affine(fam, m) for m in marked) if s != 0}
    )
    roots = [r for r in roots if fam.interval.lo < r < fam.interval.hi]
    cuts = [fam.interval.lo, *roots, fam.interval.hi]
    for lo, hi in zip(cuts, cuts[1:]):
        samples = [lo + (hi - lo) * Fraction(i, 4) for i in (1, 2, 3)]
        statuses = {symplectic_cone_check(fam, t).status for t in samples}
        assert len(statuses) == 1
