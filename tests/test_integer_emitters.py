"""The integer renderers, trace emitters and fingerprints against the
``Fraction`` layer they replaced.

A trace row renders from its area table's integer row, with the class names
and the Euler text that its walk frame holds, and a fingerprint sorts the
same row's numerators.  The references in ``testutil`` rebuild each row from
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
from dhwalk.family import QuadraticPolynomial
from dhwalk.formatting import fmt_affine, fmt_quadratic
from dhwalk.io import load_scenario, trace_csv, trace_text
from dhwalk.scenario import CriticalLevel, FixedPointData, three_sphere_product_data
from dhwalk.walk import WalkTrace, cross_level, init_from_minimum, run_walk, state_fingerprint
from testutil import (
    fourfold_component,
    fraction_fmt_affine,
    fraction_fmt_quadratic,
    random_triple,
    reference_fingerprint,
    reference_trace_csv,
    reference_trace_text,
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
    assert fmt_affine(c, den, s) == fraction_fmt_affine(Fraction(c, den), s)


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
    assert fmt_quadratic(n0, n1, n2, d) == expected
    assert str(QuadraticPolynomial(*coeffs)) == expected


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
            rec, event = cross_level(rec.family, data.levels[i], data.levels[i + 1].value)
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
            got = state_fingerprint(rec.family, t)
            assert got == reference_fingerprint(rec.family, t), (trace.name, t)
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
    assert trace.declared_extremum and trace.intervals[0].k == 6
    assert_emits_as_the_fraction_layer(trace)


def test_seeded_triples_emit_as_the_fraction_layer():
    rnd = random.Random(19)
    for _ in range(60):
        assert_emits_as_the_fraction_layer(run_walk(three_sphere_product_data(*random_triple(rnd))))
