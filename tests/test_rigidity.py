import random
from fractions import Fraction

from dhwalk.family import AffineClassFamily, Interval, symplectic_cone_check
from dhwalk.lattice import LatticeClass, default_lattice, general_lattice, hyperbolic_lattice
from dhwalk.rigidity import (
    _monotone_moment,
    FACTS,
    RigidityStatus,
    certify,
    citation_table,
    lookup,
)
from dhwalk.scenario import (
    CriticalLevel,
    FixedPointData,
    point_component,
    three_sphere_product_data,
)
from dhwalk.walk import compose_traces, run_walk, split_trace
from testutil import area_affine, cremona_standard, monotone_moment


def plane_family():
    lat = default_lattice(0)
    return lat, AffineClassFamily(lat, lat.cls(0), lat.cls(1), Interval(0, 2))


def two_blowup_family(l1, l2, lo, hi):
    lat = default_lattice(2)
    return lat, AffineClassFamily(
        lat, lat.cls(0, l1, l2), lat.cls(1, -1, -1), Interval(lo, hi)
    )


def test_every_fact_is_cited():
    for fact in FACTS:
        assert fact.citation.strip()
    assert "Seidel" in citation_table()


def test_plane_is_rigid():
    lat, fam = plane_family()
    result = lookup(fam)
    assert result.status is RigidityStatus.RIGID
    assert "McDuff" in result.fact.citation


def test_two_blowups_distinct_areas_use_restricted_symplectomorphisms():
    lat, fam = two_blowup_family(2, 3, Fraction(7, 2), 4)
    result = lookup(fam)
    assert result.status is RigidityStatus.RIGID_VIA_H_RESTRICTED_SYMP
    assert result.fact.key == "small-blowup-distinct-areas"


def test_equal_area_branch_cites_the_diffeomorphism_refinement():
    lat, fam = two_blowup_family(2, 2, Fraction(5, 2), 3)
    result = lookup(fam)
    assert result.status is RigidityStatus.RIGID_VIA_H_RESTRICTED_SYMP
    assert result.fact.key == "small-blowup-equal-areas"


def test_sphere_product_is_rigid():
    lat = hyperbolic_lattice()
    fam = AffineClassFamily(lat, lat.cls(2, 1), lat.cls(0, 0), Interval(0, 3))
    result = lookup(fam)
    assert result.status is RigidityStatus.RIGID
    assert result.fact.key == "sphere-product"


def test_a_sphere_product_with_a_ruling_of_negative_area_is_unknown():
    lat = hyperbolic_lattice()
    fam = AffineClassFamily(lat, lat.cls(2, -1), lat.cls(0, -1), Interval(0, 1))
    assert area_affine(fam, lat.basis(0)) == (-1, -1)  # area(A) = -1 - t
    result = lookup(fam)
    assert (result.status, result.fact) == (RigidityStatus.UNKNOWN, None)
    assert result.detail == "degenerate ruling areas on a sphere product"


def test_monotone_five_blowup_is_not_rigid():
    lat = default_lattice(5)
    # anticanonical ray: [w_t] = t * (-K); all five exceptional areas equal
    fam = AffineClassFamily(
        lat, lat.cls(*([0] * 6)), -lat.canonical, Interval(1, 2)
    )
    result = lookup(fam)
    assert result.status is RigidityStatus.NOT_RIGID
    assert "Seidel" in result.fact.citation


def test_monotone_witness_off_the_midpoint_is_the_crossing_of_the_ray():
    lat = default_lattice(5)
    # w_t = A + t(L - E1) equals 2(-K) = (6, -2, ..., -2) at t = 5/4, not at the midpoint 3/2
    fam = AffineClassFamily(
        lat,
        lat.cls(Fraction(19, 4), Fraction(-3, 4), -2, -2, -2, -2),
        lat.cls(1, -1, 0, 0, 0, 0),
        Interval(1, 2),
    )
    assert _monotone_moment(fam) == monotone_moment(fam) == Fraction(5, 4)
    result = lookup(fam)
    assert result.status is RigidityStatus.NOT_RIGID
    assert result.detail == "family carries the monotone class at t = 5/4"


ANTICANONICAL = (3, -1, -1, -1, -1, -1)


def five_point_families(rnd: random.Random, count: int):
    """Families on five blow-ups, most of them through a multiple of -K.

    A quarter have slopes parallel to -K (or zero); the rest have random
    slopes.  The base puts ``A + t0 B = s(-K)`` with ``s`` of either sign and
    ``t0`` inside, on or outside the interval; a quarter are then nudged off
    the ray.
    """
    lat = default_lattice(5)
    for _ in range(count):
        kind = rnd.randrange(4)
        if kind == 0:
            factor = rnd.randint(-1, 2)
            slope = [factor * m for m in ANTICANONICAL]
        else:
            slope = [rnd.randint(-2, 2) for _ in range(6)]
        lo = Fraction(rnd.randint(-4, 4), rnd.randint(1, 3))
        hi = lo + Fraction(rnd.randint(0, 6), rnd.randint(1, 3))
        t0 = lo + (hi - lo) * Fraction(rnd.randint(-1, 5), 4)
        s = Fraction(rnd.randint(-2, 4), rnd.randint(1, 2))
        base = [s * m - t0 * b for m, b in zip(ANTICANONICAL, slope)]
        if kind == 3:
            base[rnd.randrange(6)] += Fraction(1, rnd.randint(1, 3))
        yield AffineClassFamily(lat, lat.cls(*base), lat.cls(*slope), Interval(lo, hi))


def test_monotone_closed_form_matches_the_linear_system():
    witnesses = {"midpoint": 0, "other": 0, "none": 0}
    for fam in five_point_families(random.Random(12), 2000):
        t = _monotone_moment(fam)
        assert t == monotone_moment(fam)
        assert t is None or type(t) is Fraction
        key = "none" if t is None else "midpoint" if t == fam.interval.midpoint else "other"
        witnesses[key] += 1
    # the sample reaches both branches and both answers
    assert min(witnesses.values()) >= 100, witnesses


def test_five_blowups_off_the_monotone_ray_are_unknown():
    lat = default_lattice(5)
    fam = AffineClassFamily(
        lat,
        lat.cls(0, 1, 2, 3, Fraction(7, 2), Fraction(15, 4)),
        lat.cls(1, -1, -1, -1, -1, -1),
        Interval(4, Fraction(17, 4)),
    )
    assert lookup(fam).status is RigidityStatus.UNKNOWN


def test_nine_blowups_are_unknown_before_any_area_table():
    # K.K = 0: the marked classes are infinitely many, so no frame can be built
    lat = default_lattice(9)
    line = lat.basis(0)
    fam = AffineClassFamily(lat, 10 * line, -1 * line, Interval(0, 1))
    result = lookup(fam)
    assert (result.status, result.fact) == (RigidityStatus.UNKNOWN, None)
    assert result.detail == "reduced space outside the rigidity tables"
    assert fam._frame is None and fam._row is None


def volume_failing_family():
    """L - 2E1 with zero slope: the line and E1 have positive areas, the volume
    (1 - 4)/2 does not."""
    return AffineClassFamily(default_lattice(1), LatticeClass((1, -2)), LatticeClass((0, 0)),
                             Interval(0, 1))


def test_a_family_whose_volume_alone_fails_leaves_the_cone():
    fam = volume_failing_family()
    check = symplectic_cone_check(fam, Fraction(1, 2))
    assert (check.status, check.witness, check.reason) == (False, None, "volume not positive")
    result = lookup(fam)
    assert (result.status, result.fact) == (RigidityStatus.UNKNOWN, None)
    assert result.detail == "family leaves the symplectic cone"


def test_lookup_without_in_cone_reads_the_screen_verdict():
    """``lookup(f)`` is ``lookup`` told the verdict of ``f``'s own screen, and
    answers "leaves the cone" exactly when that verdict is not True, on every
    family built here that has a screen (nine blow-ups have none)."""
    hyperbolic, five = hyperbolic_lattice(), default_lattice(5)
    families = [
        plane_family()[1],
        two_blowup_family(2, 3, Fraction(7, 2), 4)[1],
        two_blowup_family(2, 2, Fraction(5, 2), 3)[1],
        AffineClassFamily(hyperbolic, hyperbolic.cls(2, 1), hyperbolic.cls(0, 0), Interval(0, 3)),
        AffineClassFamily(hyperbolic, hyperbolic.cls(2, -1), hyperbolic.cls(0, -1),
                          Interval(0, 1)),
        AffineClassFamily(five, five.cls(*([0] * 6)), -five.canonical, Interval(1, 2)),
        AffineClassFamily(five, five.cls(0, 1, 2, 3, Fraction(7, 2), Fraction(15, 4)),
                          five.cls(1, -1, -1, -1, -1, -1), Interval(4, Fraction(17, 4))),
        volume_failing_family(),
        *five_point_families(random.Random(3), 200),
    ]
    left = {"default": "family leaves the symplectic cone",
            "ruling": "degenerate ruling areas on a sphere product"}
    verdicts = set()
    for f in families:
        in_cone = f.screen(f.interval)[0].status is True
        verdicts.add(in_cone)
        assert lookup(f) == lookup(f, in_cone)
        assert (lookup(f).detail == left[f.lattice.form]) is not in_cone
    assert verdicts == {True, False}


def test_lookup_blind_to_canonical_preserving_relabeling():
    lat = default_lattice(3)
    sigma = cremona_standard(lat, 1, 2, 3)
    base, slope = lat.cls(0, 2, 3, 4), lat.cls(1, -1, -1, -1)
    fam = AffineClassFamily(lat, base, slope, Interval(Fraction(9, 2), 5))
    moved = AffineClassFamily(
        lat, sigma.apply(base), sigma.apply(slope), Interval(Fraction(9, 2), 5)
    )
    assert lookup(fam).status == lookup(moved).status
    # the same coefficients under the labels G1, G2, ...: the answer reads the
    # gram and the canonical class, not what the basis classes are called
    for k in range(4):
        named, renamed = default_lattice(k), general_lattice(default_lattice(k).gram)
        for line, *exceptional in ((6, 1, 2, 3), (6, 1, 1, 3), (1, 2, 3, 4), (6, -1, 2, 3)):
            base, slope = (line, *(-a for a in exceptional[:k])), (1,) + (0,) * k
            answers = []
            for lat in (named, renamed):
                family = AffineClassFamily(lat, lat.cls(*base), lat.cls(*slope), Interval(0, 1))
                answers.append((lookup(family), symplectic_cone_check(family, Fraction(1, 2))))
            assert answers[0] == answers[1]
            assert answers[1][1].status is not None


def test_certify_product_walks():
    assert certify(run_walk(three_sphere_product_data(2, 3, 4))).certified
    cert_111 = certify(run_walk(three_sphere_product_data(1, 1, 1)))
    assert cert_111.certified
    assert any(
        r.fact is not None and r.fact.key == "small-blowup-equal-areas"
        for r in cert_111.statuses
    )


def test_uncertified_interval_reason_renders_from_a_shared_result():
    # four index-2 points at 1 leave four blow-ups on (1, 3/2), outside the tables;
    # the maximum check fails too, but certification reads the intervals only
    levels = [
        CriticalLevel(0, [point_component(0)]),
        CriticalLevel(1, [point_component(2)] * 4),
        CriticalLevel(Fraction(3, 2), [point_component(6)]),
    ]
    trace = run_walk(FixedPointData.build("four-blowups", 6, "small", levels))
    certification = certify(trace)
    assert not certification.certified
    assert certification.reason == (
        "interval (1,3/2) has rigidity status unknown: 4 blow-ups outside the certified tables"
    )
    # every interval that gets a fixed (status, detail) pair shares one result
    assert lookup(trace.intervals[1]) is certification.statuses[1]
    plane = certify(run_walk(three_sphere_product_data(2, 3, 4))).statuses[0]
    assert plane is lookup(plane_family()[1])


def test_certification_of_composition_is_the_minimum():
    trace = run_walk(three_sphere_product_data(2, 3, 4))
    left, right = split_trace(trace, Fraction(9, 2))
    glued = compose_traces(left, right)
    assert (
        certify(glued).certified
        == min(certify(left).certified, certify(right).certified)
        == True  # noqa: E712 - spelling out the min rule
    )
