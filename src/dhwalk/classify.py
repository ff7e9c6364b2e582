"""Executable classification certificates.

A certificate is a logical object: it asserts that the classification
hypotheses (consistent fixed point data, a completed walk, rigidity of every
intermediate reduced space) verifiably hold for the given scenario.  No
symplectomorphism is ever constructed.
"""

from __future__ import annotations

from itertools import repeat
from typing import Callable, Optional, Union

from .errors import BootstrapError, PreconditionError, WalkError
from .formatting import fmt_q, fmt_vector
from .family import AffineClassFamily, Interval
from .lattice import LatticeClass
from .record import Record
from .rigidity import certify
from .scenario import (
    ComponentKind,
    CriticalLevel,
    FixedComponent,
    FixedPointData,
    isolated_value_lattice_check,
    validate_structure,
)
from .walk import Fingerprint, WalkTrace, declared_family, run_walk, state_fingerprint


class Certificate(Record):
    """A positive classification outcome with its supporting evidence.

    Asserts that any manifold realising this fixed point data (simple or
    isolated levels, all reduced spaces rigid) is equivariantly
    symplectomorphic to the walked one.  For isolated data ``lambdas`` holds
    the sphere areas read off the value lattice and the certificate names the
    diagonal ``S2 x S2 x S2`` model; otherwise it is ``None`` and the
    certificate states that the data (small data suffices, because the walk
    rederives the bundle classes) determines the manifold.
    """

    __slots__ = ("scenario", "mode", "lambdas", "trace", "certification")

    def lines(self) -> list[str]:
        if self.lambdas is not None:
            lams = ",".join(fmt_q(x) for x in self.lambdas)
            out = [
                f"CERTIFICATE: {self.scenario} is equivariantly symplectomorphic to the",
                f"  diagonal circle action on S2 x S2 x S2 with sphere areas ({lams})",
            ]
        else:
            basis = "small fixed point data" if self.mode == "small" else "fixed point data"
            out = [
                f"CERTIFICATE: {self.scenario} is determined up to equivariant",
                f"  symplectomorphism by its {basis}",
            ]
        out += [
            f"  walk: k-sequence {list(self.trace.k_sequence)}, "
            f"walls at ({', '.join(fmt_q(w) for w in self.trace.walls)})",
            f"  certification: {self.certification.level}",
            "  rigidity facts used:",
        ]
        seen = []
        for res in self.certification.statuses:
            if res.fact is not None and res.fact.key not in seen:
                seen.append(res.fact.key)
                out.append(f"    - {res.fact.key}: {res.fact.citation}")
        return out


class Refusal(Record):
    """A negative outcome naming the first failing check."""

    __slots__ = ("scenario", "stage", "reason")

    def lines(self) -> list[str]:
        return [f"REFUSAL: {self.scenario}", f"  failing check: {self.stage}", f"  {self.reason}"]


def _validation_refusal(data: FixedPointData) -> Optional[Refusal]:
    report = validate_structure(data)
    return None if report.ok else Refusal(data.name, "structure validation", report.lines()[0])


def classify(data: FixedPointData) -> Union[Certificate, Refusal]:
    """Certify a scenario, or refuse it at the first failing check.

    Runs, in order: structural validation; for isolated data the
    critical-value lattice check, which yields the sphere areas, and for any
    other data the requirement that every level be simple; then the full
    walk, the declared bundle data against it (``_bundle_mismatch``), its
    maximum check, and rigidity certification.
    """
    refusal = _validation_refusal(data)
    if refusal is not None:
        return refusal
    lambdas = None
    if data.is_isolated():
        value_check = isolated_value_lattice_check(data)
        if not value_check.passed:
            return Refusal(data.name, "critical value lattice", value_check.message)
        lambdas = value_check.lambdas
    else:
        non_simple = [lv.value for lv in data.levels if not lv.simple]
        if non_simple:
            return Refusal(
                data.name,
                "applicability",
                f"levels at {[fmt_q(v) for v in non_simple]} are not simple",
            )
    try:
        trace = run_walk(data, validated=True)
    except WalkError as err:
        return Refusal(data.name, "wall crossing", str(err))
    mismatch = _bundle_mismatch(data, trace)
    if mismatch is not None:
        return Refusal(data.name, "bundle data", mismatch)
    if not trace.final_report.passed:
        failing = [line for line in trace.final_report.lines() if line.startswith("FAIL")]
        return Refusal(data.name, "maximum check", "; ".join(failing))
    certification = certify(trace)
    if not certification.certified:
        return Refusal(data.name, "rigidity certification", certification.reason)
    return Certificate(data.name, data.mode, lambdas, trace, certification)


def classify_isolated(data: FixedPointData) -> Union[Certificate, Refusal]:
    """``classify`` restricted to scenarios with only isolated fixed points.

    Valid data with other components is refused as not applicable.
    """
    if data.is_isolated():
        return classify(data)
    return _validation_refusal(data) or Refusal(
        data.name, "applicability", "isolated classification needs point components in dim 6"
    )


def _bundle_mismatch(data: FixedPointData, trace: WalkTrace) -> Optional[str]:
    """The first ``euler_minus`` unlike the Euler class the walk brings to its level.

    Both are in the basis the walk holds there, the one ``small_data_bootstrap``
    writes.  The interval arriving at level ``i`` is ``trace.intervals[i-1]``;
    validated data declares nothing at the minimum.
    """
    for lv, rec in zip(data.levels[1:], trace.intervals):
        derived = None if lv.euler_minus is None else rec.family.euler
        if lv.euler_minus != derived:
            declared = fmt_vector(lv.euler_minus.coeffs)
            return (f"level {fmt_q(lv.value)}: declared euler_minus {declared}, "
                    f"the walk derives {fmt_vector(derived.coeffs)}")
    return None


def small_data_bootstrap(data: FixedPointData) -> FixedPointData:
    """Recover full fixed point data by replaying the walk.

    Each interior level's reduction-bundle Euler class is read off the state
    arriving from below, so the bundle data is a function of everything
    beneath it.  The validated levels keep their order and their extrema.
    Idempotent: bootstrapping the result reproduces it.
    """
    report = validate_structure(data)
    if not report.ok:
        raise BootstrapError(f"scenario fails validation: {report.lines()[0]}")
    try:
        trace = run_walk(data, validated=True)
    except WalkError as err:
        raise BootstrapError(str(err), level=err.wall) from err
    levels = data.levels
    interior = (CriticalLevel(lv.value, lv.components, rec.family.euler)
                for lv, rec in zip(levels[1:-1], trace.intervals))
    return FixedPointData(data.name, data.dim, "full", (levels[0], *interior, levels[-1]))


# ---------------------------------------------------------------------------
# comparison up to relabeling and lattice isometry
# ---------------------------------------------------------------------------


class ComparisonResult(Record):
    __slots__ = ("same", "witness")


def _component_fingerprint(comp: FixedComponent, value, interval_record) -> tuple:
    base: tuple = (comp.kind.value, comp.index)
    if comp.kind is ComponentKind.SURFACE:
        extras: tuple = (comp.genus,)
        if interval_record is not None and comp.reduced_class is not None:
            lat = interval_record.lattice
            fam = interval_record.family
            f = comp.reduced_class
            if f.rank == lat.rank:
                extras += (
                    lat.pair(f, f),
                    lat.pair(f, lat.canonical),
                    fam.area_affine(f),
                )
        elif comp.reduced_class is not None:
            extras += (comp.reduced_class.coeffs,)
        extras += (comp.normal_euler,)
        return base + extras
    if comp.kind is ComponentKind.FOURFOLD:
        return base + (state_fingerprint(declared_family(comp, value), value),)
    return base


def _euler_fingerprint(euler_cls: LatticeClass, interval_record) -> Fingerprint:
    """The arriving class at the level, paired with the declared Euler class."""
    fam, value = interval_record.family, interval_record.interval.hi
    cls_ = fam.base + value * (fam.slope + euler_cls)
    return state_fingerprint(
        AffineClassFamily(fam.lattice, cls_, -euler_cls, Interval(value, value)), value
    )


def _walk_or_error(data: FixedPointData) -> tuple[Optional[WalkTrace], Optional[WalkError]]:
    try:
        return run_walk(data, validated=True), None
    except WalkError as err:
        return None, err


def _compare(
    d1: FixedPointData,
    d2: FixedPointData,
    walk: Callable[[FixedPointData], Optional[WalkTrace]],
) -> ComparisonResult:
    """Level-by-level comparison of valid same-mode data against their walks.

    ``walk`` is called on each side only when the critical values agree; a
    side whose walk failed (``None``) is compared on its declared data only.
    """
    if [lv.value for lv in d1.levels] != [lv.value for lv in d2.levels]:
        return ComparisonResult(False, "value multiset")
    # the interval arriving at each level from below: none at the minimum or without a walk
    arriving = [(None, *t.intervals) if t else repeat(None) for t in (walk(d1), walk(d2))]
    for lv1, lv2, rec1, rec2 in zip(d1.levels, d2.levels, *arriving):
        fp1 = sorted(_component_fingerprint(c, lv1.value, rec1) for c in lv1.components)
        fp2 = sorted(_component_fingerprint(c, lv2.value, rec2) for c in lv2.components)
        if fp1 != fp2:
            return ComparisonResult(False, f"level {fmt_q(lv1.value)}: component fingerprints")
        if (lv1.euler_minus is None) != (lv2.euler_minus is None):
            return ComparisonResult(
                False, f"level {fmt_q(lv1.value)}: Euler data present on one side only"
            )
        if lv1.euler_minus is not None and rec1 is not None and rec2 is not None:
            e1 = _euler_fingerprint(lv1.euler_minus, rec1)
            e2 = _euler_fingerprint(lv2.euler_minus, rec2)
            if e1 != e2:
                return ComparisonResult(
                    False, f"level {fmt_q(lv1.value)}: Euler fingerprint {{pair(e,C)}}"
                )
    return ComparisonResult(True, None)


def compare_fixed_point_data(d1: FixedPointData, d2: FixedPointData) -> ComparisonResult:
    """Level-by-level equality on basis-independent fingerprints.

    Declared classes are fingerprinted against the reduced-space lattice the
    walk engine derives on arrival at each level, so the comparison is blind
    to component relabeling and to any canonical-class-preserving isometry of
    the coordinates.  A declared fourfold is fingerprinted by its own state
    (``declared_family``); one whose marked classes need not be finite has
    no fingerprint, and the comparison raises ``PreconditionError``.

    No command calls it.  It is kept as a library call because "same fixed
    point data" is the hypothesis of the paper's classification theorem, and
    a caller holding two data sets needs that comparison, not a walk.
    """
    for d in (d1, d2):
        report = validate_structure(d)
        if not report.ok:
            raise PreconditionError(
                f"cannot compare invalid data {d.name!r}: {report.lines()[0]}"
            )
    if d1.mode != d2.mode:
        raise PreconditionError("cannot compare data of different modes")
    return _compare(d1, d2, lambda d: _walk_or_error(d)[0])


class WeakVerdict(Record):
    # kind: "isomorphic (certified)" | "distinct data" | "inconclusive" | "not applicable"
    __slots__ = ("kind", "detail")

    def lines(self) -> list[str]:
        return [f"VERDICT: {self.kind}", f"  {self.detail}"]


def weak_classification_check(d1: FixedPointData, d2: FixedPointData) -> WeakVerdict:
    """Same full fixed point data plus rigidity implies isomorphism.

    Exactly that logical content and nothing more: matching data over a
    reduced space outside the rigidity tables is reported as inconclusive,
    never as a classification, and data whose bundle classes contradict
    their own walk is not applicable.  Each side is walked once; the same trace
    feeds the comparison and the certification.

    No command calls it.  It is kept as a library call because it is the
    paper's theorem applied to two data sets: equal data plus rigid reduced
    spaces give an isomorphism.
    """
    for d in (d1, d2):
        if d.mode != "full":
            return WeakVerdict("not applicable", f"{d.name} is not full-mode data")
        report = validate_structure(d)
        if not report.ok:
            return WeakVerdict("not applicable", f"{d.name}: {report.lines()[0]}")
        if any(not lv.simple for lv in d.levels):
            return WeakVerdict("not applicable", f"{d.name} has non-simple levels")
    walks = []

    def walk(d: FixedPointData) -> Optional[WalkTrace]:
        walks.append((d, *_walk_or_error(d)))
        return walks[-1][1]

    try:
        comparison = _compare(d1, d2, walk)
    except PreconditionError as err:
        return WeakVerdict("not applicable", f"a declared lattice has no fingerprint: {err}")
    if not comparison.same:
        return WeakVerdict("distinct data", f"fixed point data differ: {comparison.witness}")
    for d, trace, err in walks:
        if err is not None:
            return WeakVerdict("not applicable", f"{d.name} does not walk: {err}")
        mismatch = _bundle_mismatch(d, trace)
        if mismatch is not None:
            return WeakVerdict("not applicable", f"{d.name} contradicts its walk: {mismatch}")
    certs = [certify(trace) for _, trace, _ in walks]
    if all(c.certified for c in certs):
        return WeakVerdict(
            "isomorphic (certified)", "fixed point data agree and every reduced space is rigid"
        )
    reasons = "; ".join(c.reason for c in certs if not c.certified)
    return WeakVerdict("inconclusive", f"data agree but rigidity is not certified: {reasons}")
