"""Acceptance suite.

One test per acceptance criterion, each asserting exact (rational) equality
at its stated scope and printing a single pass line.  Randomised suites use a
fixed seed; the independent oracles (box enumeration, symbolic integration,
clipped-box slice areas) live outside the package code they check.
"""

import random
import time
from fractions import Fraction
from pathlib import Path

import sympy

from dhwalk import cli
from dhwalk.classify import small_data_bootstrap, weak_classification_check
from dhwalk.lattice import LatticeClass, default_lattice, exceptional_classes
from dhwalk.rigidity import certify
from dhwalk.scenario import (
    CriticalLevel,
    FixedPointData,
    three_sphere_product_data,
    time_reversed,
)
from dhwalk.io import parse_scenario, serialize_scenario
from dhwalk.walk import compose_traces, run_walk, split_trace
from testutil import (
    area,
    brute_force_exceptional,
    cls,
    fingerprint_at,
    fraction_coeffs,
    level_at,
    random_triple,
    reference_volume,
    with_negated_euler,
)

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def _passed(n: int, message: str) -> None:
    print(f"[criterion {n:2d}] PASS  {message}")


def _regular_seam(rnd: random.Random, trace) -> Fraction:
    walls = set(trace.walls)
    lo, hi = trace.moment_range.lo, trace.moment_range.hi
    while True:
        t = lo + (hi - lo) * Fraction(rnd.randint(1, 119), 120)
        if t not in walls:
            return t


def test_criterion_1_figure_walk_234():
    trace = run_walk(three_sphere_product_data(2, 3, 4))
    assert trace.k_sequence == (0, 1, 2, 3, 2, 1, 0)
    assert trace.walls == (2, 3, 4, 5, 6, 7)
    assert trace.moment_range.hi == 9
    first = trace.intervals[0]
    line = first.lattice.basis(0)
    for t in (Fraction(1, 3), 1, Fraction(19, 10)):
        assert area(first, line, t) == Fraction(t)
    rec = trace.intervals[3]
    assert rec.interval.lo == 4 and rec.interval.hi == 5
    fam, lat = rec, rec.lattice
    for t in (4, Fraction(13, 3), Fraction(99, 20), 5):
        t = Fraction(t)
        assert area(fam, lat.basis(0), t) == t
        for i, lam in ((1, 2), (2, 3), (3, 4)):
            assert area(fam, lat.basis(i), t) == t - lam
        blowdowns = {
            area(fam, cls(1, -1, -1, 0), t),
            area(fam, cls(1, -1, 0, -1), t),
            area(fam, cls(1, 0, -1, -1), t),
        }
        assert blowdowns == {5 - t, 6 - t, 7 - t}
    _passed(1, "walk of the (2,3,4) product: k-chain, walls, exact area tables")


def test_criterion_2_euler_sign_flip():
    trace = run_walk(three_sphere_product_data(2, 3, 4))
    first, last = trace.intervals[0], trace.intervals[-1]
    assert first.lattice.pair(first.euler, first.lattice.basis(0)) == -1
    assert last.lattice.pair(last.euler, last.lattice.basis(0)) == 1
    _passed(2, "reduction bundle starts at -L and ends at +L, exactly")


def test_criterion_3_case_split():
    thin = run_walk(three_sphere_product_data(1, 2, 4))
    assert thin.k_sequence == (0, 1, 2, 1, 2, 1, 0)
    assert thin.final_report.passed

    equal = run_walk(three_sphere_product_data(1, 1, 1))
    assert equal.k_sequence == (0, 3, 0)
    assert all(len(ev.actions) == 3 for ev in equal.events)
    certification = certify(equal)
    assert certification.certified
    assert any(
        r.fact is not None and r.fact.key == "small-blowup-equal-areas"
        for r in certification.statuses
    )
    _passed(3, "thin triple gives (0,1,2,1,2,1,0); equal triple gives (0,3,0), "
               "certified via the equal-area branch")


def test_criterion_4_volume_integral():
    t_sym = sympy.Symbol("t")
    rnd = random.Random(20260809)
    triples = [(Fraction(2), Fraction(3), Fraction(4))]
    triples += [random_triple(rnd) for _ in range(20)]
    for lams in triples:
        trace = run_walk(three_sphere_product_data(*lams))
        for prev, nxt in zip(trace.intervals, trace.intervals[1:]):
            wall = prev.interval.hi
            assert prev.volume(wall) == nxt.volume(wall), lams
        assert trace.intervals[0].volume(trace.moment_range.lo) == 0
        assert trace.intervals[-1].volume(trace.moment_range.hi) == 0
        product = lams[0] * lams[1] * lams[2]
        assert trace.volume_integral() == product, lams
        # independent oracle: symbolic antiderivative of each piece, at the interval ends
        total = sympy.Integer(0)
        for rec in trace.intervals:
            vol = reference_volume(rec)
            coeffs = (vol.c2, vol.c1, vol.c0)
            antiderivative = sympy.Poly([sympy.Rational(c) for c in coeffs], t_sym).integrate()
            lo, hi = rec.interval.lo, rec.interval.hi
            assert all(rec.volume(t) == vol(t) for t in (lo, (lo + hi) / 2, hi)), lams
            lo, hi = sympy.Rational(lo), sympy.Rational(hi)
            total += antiderivative.eval(hi) - antiderivative.eval(lo)
        assert total == sympy.Rational(product), lams
    assert run_walk(three_sphere_product_data(2, 3, 4)).volume_integral() == 24
    _passed(4, "piecewise volume continuous, vanishing at the ends, with exact "
               "integral area1*area2*area3 on 21 triples (symbolic oracle agrees)")


def test_criterion_5_lattice_oracle_equivalence():
    start = time.perf_counter()
    for k in range(4):
        lat = default_lattice(k)
        listed = {fraction_coeffs(c) for c in exceptional_classes(lat)}
        assert listed == brute_force_exceptional(lat)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"enumeration took {elapsed:.3f}s"
    _passed(5, f"exceptional classes equal the box-search oracle for k <= 3 "
               f"({elapsed * 1000:.0f} ms)")


def test_criterion_6_blow_down_law_suite():
    rnd = random.Random(6)
    walks = 0
    blowdowns = 0
    while walks < 100:
        lams = random_triple(rnd)
        trace = run_walk(three_sphere_product_data(*lams))
        walks += 1
        for event in trace.events:
            for action in event.actions:
                if action.kind != "blow_down":
                    continue
                blowdowns += 1
                assert action.euler_pairing == 1, (lams, event.value)
                bdm = action.blow_down_map
                r = bdm.target.rank
                for _ in range(50):
                    x = LatticeClass([rnd.randint(-9, 9) for _ in range(r)])
                    assert bdm.apply(bdm.pullback(x)) == x
    assert blowdowns == 3 * walks
    _passed(6, f"pair(e,C) = 1 at every one of {blowdowns} blow-downs over 100 walks; "
               f"pushforward o pullback fixed 50 random classes each")


def test_criterion_7_composition_gluing():
    rnd = random.Random(7)
    trace = run_walk(three_sphere_product_data(2, 3, 4))
    for _ in range(5):
        seam = _regular_seam(rnd, trace)
        left, right = split_trace(trace, seam)
        glued = compose_traces(left, right)
        assert glued.fingerprints() == trace.fingerprints(), seam
        assert glued.k_sequence == trace.k_sequence
        assert glued.final_report == trace.final_report
        assert glued.intervals == trace.intervals, seam  # families and rigidity
        assert glued.events == trace.events, seam
    _passed(7, "five random split-and-recompose round trips reproduce every "
               "trace fingerprint")


def test_criterion_8_time_reversal_and_permutation():
    rnd = random.Random(8)
    for _ in range(50):
        lams = random_triple(rnd)
        data = three_sphere_product_data(*lams, mode="small")
        fwd = run_walk(data)
        total = fwd.moment_range.hi

        rev = run_walk(time_reversed(data))
        assert rev.k_sequence == tuple(reversed(fwd.k_sequence)), lams
        for rec in fwd.intervals:
            t = rec.interval.midpoint
            assert (
                fingerprint_at(rev, total - t) == with_negated_euler(fingerprint_at(fwd, t))
            ), (lams, t)

        # permutation: shuffle the declared order through the wire format
        payload = serialize_scenario(data)
        shuffled = parse_scenario(payload)
        levels = list(shuffled.levels)
        rnd.shuffle(levels)
        reordered = FixedPointData.build(data.name, 6, "small", levels)
        assert run_walk(reordered).fingerprints() == fwd.fingerprints(), lams
    _passed(8, "50 random scenarios: reversal reverses fingerprints and negates "
               "Euler data; declaration order never matters")


def test_criterion_9_negative_suite(capsys):
    assert cli.main(["classify", str(SCENARIOS / "bad_value_lattice.json")]) == 2
    assert cli.main(["walk", str(SCENARIOS / "bad_value_lattice.json")]) == 2
    assert cli.main(["walk", str(SCENARIOS / "bad_maximum_8.json")]) == 2
    assert cli.main(["classify", str(SCENARIOS / "bad_maximum_8.json")]) == 2
    capsys.readouterr()

    good = small_data_bootstrap(three_sphere_product_data(2, 3, 4, mode="full"))
    corrupted_levels = [
        CriticalLevel(lv.value, lv.components, LatticeClass((-1, 0)))
        if lv.value == 3
        else lv
        for lv in good.levels
    ]
    corrupted = FixedPointData.build(good.name, 6, "full", corrupted_levels)
    verdict = weak_classification_check(good, corrupted)
    assert verdict.kind == "distinct data"
    _passed(9, "perturbed values and early maximum exit 2; a one-generator "
               "Euler corruption is reported as distinct data")


def test_criterion_10_bootstrap():
    small = three_sphere_product_data(2, 3, 4, mode="small")
    full = small_data_bootstrap(small)
    expected = {
        2: cls(-1),
        3: cls(-1, 1),
        4: cls(-1, 1, 1),
        5: cls(-1, 1, 1, 1),
        6: cls(1, -1, -1),
        7: cls(1, -1),
    }
    for value, euler in expected.items():
        assert level_at(full, value).euler_minus == euler, value
    again = small_data_bootstrap(full)
    assert serialize_scenario(again) == serialize_scenario(full)
    _passed(10, "bundle classes recovered at every level and stable under a "
                "second bootstrap")
