"""The integer renderers, trace emitters and fingerprints against the
``Fraction`` layer they replaced.

A trace row renders from its family's integer row, with the templates
that its walk frame holds (each class's ``name=`` head and ``t`` term, the
volume's ``t^2`` term and the Euler text), and a fingerprint sorts the same
row's numerators.  The references in ``testutil`` rebuild each row from
``lattice.pair`` as ``MarkedArea`` records and render or sort it in
``Fraction`` arithmetic.  Both must agree: the renderers on drawn integers,
and whole traces and fingerprints on the shipped scenarios, on a declared
fourfold minimum and on seeded sphere-area triples.
"""

import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from dhwalk.errors import WalkError
from dhwalk.family import AffineClassFamily, walk_frame
from dhwalk.formatting import fmt_affine, fmt_quadratic, fmt_term
from dhwalk.io import _areas_text, _volume_text, load_scenario, trace_csv, trace_text
from dhwalk.lattice import LatticeClass
from dhwalk.scenario import CriticalLevel, FixedPointData, three_sphere_product_data
from dhwalk.walk import WalkTrace, cross_level, init_from_minimum, run_walk, state_fingerprint
from testutil import (
    fourfold_component,
    fraction_fmt_affine,
    fraction_fmt_quadratic,
    random_triple,
    reference_areas_text,
    reference_fingerprint,
    reference_trace_csv,
    reference_trace_text,
    reference_volume_text,
)

SCENARIOS = sorted((Path(__file__).resolve().parent.parent / "scenarios").glob("*.json"))

# small values, with 0 and +-1 (the cases the renderers write differently) drawn often
integers = st.integers(-40, 40) | st.sampled_from([0, 1, -1])
denominators = st.integers(1, 24) | st.just(1)


# ---------------------------------------------------------------------------
# the renderers
# ---------------------------------------------------------------------------


@settings(max_examples=500)
@given(integers, denominators, integers)
@example(0, 1, 0)
@example(0, 5, 1)
@example(0, 5, -1)
@example(0, 1, -3)
@example(3, 3, 1)
@example(-6, 4, -1)
@example(7, 2, 2)
def test_fmt_affine_matches_the_fraction_renderer(c, den, s):
    expected = fraction_fmt_affine(Fraction(c, den), s)
    assert fmt_affine(c, den, s, fmt_term(abs(s), 1, "t")) == expected  # a frame's template


@settings(max_examples=500)
@given(integers, integers, integers, denominators)
@example(0, 0, 0, 1)
@example(0, 0, 0, 8)
@example(-3, 0, 0, 2)
@example(1, -1, 1, 1)
@example(2, -2, 2, 2)
@example(4, 0, -8, 8)
def test_fmt_quadratic_matches_the_fraction_renderer(n0, n1, n2, d):
    coeffs = (Fraction(n0, d), Fraction(n1, d), Fraction(n2, d))
    expected = fraction_fmt_quadratic(*coeffs)
    assert fmt_quadratic(fmt_term(n2, d, "t^2"), n1, n0, d) == expected  # a frame's head


# ---------------------------------------------------------------------------
# whole traces and their fingerprints
# ---------------------------------------------------------------------------


def walked(data: FixedPointData) -> WalkTrace:
    """The trace of ``data`` or, when a crossing is refused, of the intervals
    before the refused wall (no final report)."""
    try:
        return run_walk(data)
    except WalkError:
        pass
    rec, declared = init_from_minimum(data)
    intervals, events = [rec], []
    for i in range(1, len(data.levels) - 1):
        try:
            rec, event = cross_level(rec, data.levels[i], data.levels[i + 1].value)
        except WalkError:
            break
        intervals.append(rec)
        events.append(event)
    return WalkTrace(data.name, tuple(intervals), tuple(events), None, declared)


def assert_emits_as_the_fraction_layer(trace: WalkTrace) -> None:
    assert trace_csv(trace) == reference_trace_csv(trace)
    assert trace_text(trace) == reference_trace_text(trace)
    for rec in trace.intervals:
        interval = rec.interval
        for t in (interval.lo, interval.midpoint, interval.hi):
            got = state_fingerprint(rec, t)
            assert got == reference_fingerprint(rec, t), (trace.name, t)
            assert all(type(v) is Fraction for pair in got.marked_areas for v in pair)


def six_blowup_minimum() -> FixedPointData:
    """A declared fourfold minimum on the default k = 6 gram, maximum one unit up."""
    gram = tuple(tuple((1 if i == 0 else -1) if i == j else 0 for j in range(7)) for i in range(7))
    areas = (6, 1, 1, 1, 1, 1, 1)
    return FixedPointData.build("six-blowup-minimum", 6, "small", [
        CriticalLevel(0, [fourfold_component(0, gram, areas, 1)]),
        CriticalLevel(1, [fourfold_component(2, gram, (7,) + areas[1:], 1)]),
    ])


@pytest.mark.parametrize("path", SCENARIOS, ids=lambda p: p.stem)
def test_scenario_traces_emit_as_the_fraction_layer(path):
    trace = walked(load_scenario(path))
    assert len(trace.intervals) >= 1
    assert_emits_as_the_fraction_layer(trace)


def test_a_declared_fourfold_minimum_emits_as_the_fraction_layer():
    trace = run_walk(six_blowup_minimum())
    assert trace.declared_extremum and trace.intervals[0].frame.k == 6
    assert_emits_as_the_fraction_layer(trace)


def test_seeded_triples_emit_as_the_fraction_layer():
    rnd = random.Random(19)
    for _ in range(60):
        assert_emits_as_the_fraction_layer(run_walk(three_sphere_product_data(*random_triple(rnd))))


@pytest.mark.parametrize("name", ["conic_surface_wall", "sphere_product_extrema"])
def test_frame_templates_render_steep_slopes_and_zero_constants_as_the_fraction_layer(name):
    # the lattices of the scenario's frames, under slopes with |s| >= 2 and bases
    # with zero constants: the templates' "2*t" and "-6*t^2" against fraction_fmt_*
    trace = run_walk(load_scenario(SCENARIOS[0].parent / f"{name}.json"))
    steep = zero = 0
    for rec in trace.intervals:
        lat, family = rec.lattice, rec
        half = LatticeClass([Fraction(i % 2, 2) for i in range(lat.rank)])  # some constants zero
        slopes = [m * family.slope for m in (2, -3)] + [LatticeClass([2] + [-3] * (lat.rank - 1))]
        for slope in slopes:
            frame = walk_frame(lat, slope)
            steep += sum(abs(s) >= 2 for _, _, s, _ in frame.reported)
            for base in (lat.cls(*[0] * lat.rank), half, family.base):
                moved = AffineClassFamily(lat, base, slope, rec.interval)
                assert moved.frame is frame
                zero += sum(moved.row[j] == 0 for j, _, _, _ in frame.reported)
                assert _areas_text(moved, ";") == reference_areas_text(moved, ";")
                assert _areas_text(moved, "  ") == reference_areas_text(moved, "  ")
                assert _volume_text(moved) == reference_volume_text(moved)
    assert steep and zero
