"""Executable classification certificates.

A certificate is a logical object: it asserts that the classification
hypotheses (consistent fixed point data, a completed walk, rigidity of every
intermediate reduced space) verifiably hold for the given scenario.  No
symplectomorphism is ever constructed.
"""

from __future__ import annotations

from collections import Counter

from .errors import PreconditionError, WalkError
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
    """A negative outcome naming the first failing check, and ``trace``, the walk
    that check read (bundle data, maximum check, rigidity certification), or
    ``None`` for a refusal made before the walk finished.  Not printed."""

    __slots__ = ("scenario", "stage", "reason", "trace")

    def lines(self) -> list[str]:
        return [f"REFUSAL: {self.scenario}", f"  failing check: {self.stage}", f"  {self.reason}"]


def classify(data: FixedPointData) -> Certificate | Refusal:
    """Certify a scenario, or refuse it at the first failing check.

    Runs, in order: structural validation; for isolated data
    (``is_isolated``) the critical-value lattice check, which yields the
    sphere areas, and for any other data the requirement that every level be
    simple; then the full walk, the declared bundle data against it
    (``_bundle_mismatch``), its maximum check, and rigidity certification.
    This is the one judgement of a data set: the weak check reads it too.
    """
    report = validate_structure(data)
    if not report.ok:
        return Refusal(data.name, "structure validation", report.lines()[0], None)
    lambdas = None
    if data.is_isolated():
        value_check = isolated_value_lattice_check(data)
        if not value_check.passed:
            return Refusal(data.name, "critical value lattice", value_check.message, None)
        lambdas = value_check.lambdas
    else:
        non_simple = [lv.value for lv in data.levels if not lv.simple]
        if non_simple:
            return Refusal(data.name, "applicability",
                           f"levels at {[fmt_q(v) for v in non_simple]} are not simple", None)
    try:
        trace = run_walk(data)
    except WalkError as err:
        return Refusal(data.name, "wall crossing", str(err), None)
    mismatch = _bundle_mismatch(data, trace)
    if mismatch is not None:
        return Refusal(data.name, "bundle data", mismatch, trace)
    if not trace.final_report.passed:
        failing = [line for line in trace.final_report.lines() if line.startswith("FAIL")]
        return Refusal(data.name, "maximum check", "; ".join(failing), trace)
    certification = certify(trace)
    if not certification.certified:
        return Refusal(data.name, "rigidity certification", certification.reason, trace)
    return Certificate(data.name, data.mode, lambdas, trace, certification)


def classify_isolated(data: FixedPointData) -> Certificate | Refusal:
    """``classify`` behind a gate: valid data that is not isolated (``is_isolated``)
    is refused as not applicable, and any other data goes to ``classify``."""
    if data.is_isolated() or not validate_structure(data).ok:
        return classify(data)
    return Refusal(data.name, "applicability",
                   "isolated classification needs point components in dim 6", None)


def _bundle_mismatch(data: FixedPointData, trace: WalkTrace) -> str | None:
    """The first ``euler_minus`` unlike the Euler class the walk brings to its level.

    Both are in the basis the walk holds there, the one ``small_data_bootstrap``
    writes.  The interval arriving at level ``i`` is ``trace.intervals[i-1]``;
    valid data declares nothing at the minimum.
    """
    for lv, family in zip(data.levels[1:], trace.intervals):
        derived = None if lv.euler_minus is None else family.euler
        if lv.euler_minus != derived:
            declared = fmt_vector(lv.euler_minus.coeffs)
            return (f"level {fmt_q(lv.value)}: declared euler_minus {declared}, "
                    f"the walk derives {fmt_vector(derived.coeffs)}")
    return None


def small_data_bootstrap(data: FixedPointData) -> FixedPointData:
    """Recover full fixed point data by replaying the walk.

    Each interior level's reduction-bundle Euler class is read off the state
    arriving from below, so the bundle data is a function of everything
    beneath it.  The valid levels keep their order and their extrema.
    Idempotent: bootstrapping the result reproduces it.  Invalid data raises
    ``run_walk``'s ``PreconditionError`` and a refused wall its ``WalkError``.
    """
    trace = run_walk(data)
    levels = data.levels
    interior = (CriticalLevel(lv.value, lv.components, family.euler)
                for lv, family in zip(levels[1:-1], trace.intervals))
    return FixedPointData(data.name, data.dim, "full", (levels[0], *interior, levels[-1]),
                          _line=(data._den, data._nums))  # the levels keep their values


# ---------------------------------------------------------------------------
# comparison up to relabeling and lattice isometry
# ---------------------------------------------------------------------------


class ComparisonResult(Record):
    __slots__ = ("same", "witness")


def _component_fingerprint(comp: FixedComponent, value, fam: AffineClassFamily) -> tuple:
    base: tuple = (comp.kind.value, comp.index)
    if comp.kind is ComponentKind.SURFACE:  # interior: a surface extremum does not walk
        f = comp.reduced_class
        return base + (comp.genus, comp.normal_euler, fam.lattice.dot(fam.slope.nums, f.nums),
                       _arriving_fingerprint(f, fam))
    if comp.kind is ComponentKind.FOURFOLD:
        return base + (state_fingerprint(declared_family(comp, value), value),)
    return base


def _arriving_fingerprint(euler_cls: LatticeClass, fam: AffineClassFamily) -> Fingerprint:
    """The arriving class at the level, fingerprinted with ``euler_cls`` as its Euler class;
    a class of another rank (bundle data that ``classify`` refuses) is its own fingerprint."""
    if euler_cls.rank != fam.lattice.rank:
        return euler_cls
    value = fam.interval.hi
    cls_ = fam.base + value * (fam.slope + euler_cls)
    return state_fingerprint(
        AffineClassFamily(fam.lattice, cls_, -euler_cls, Interval(value, value)), value
    )


def _compare(d1: FixedPointData, d2: FixedPointData,
             t1: WalkTrace, t2: WalkTrace) -> ComparisonResult:
    """Level-by-level comparison of same-mode data against their walks."""
    if [lv.value for lv in d1.levels] != [lv.value for lv in d2.levels]:
        return ComparisonResult(False, "value multiset")
    arriving = ((None, *t.intervals) for t in (t1, t2))  # from below: none at the minimum
    for lv1, lv2, fam1, fam2 in zip(d1.levels, d2.levels, *arriving):
        fp1 = Counter(_component_fingerprint(c, lv1.value, fam1) for c in lv1.components)
        fp2 = Counter(_component_fingerprint(c, lv2.value, fam2) for c in lv2.components)
        if fp1 != fp2:
            return ComparisonResult(False, f"level {fmt_q(lv1.value)}: component fingerprints")
        if (lv1.euler_minus is None) != (lv2.euler_minus is None):
            return ComparisonResult(
                False, f"level {fmt_q(lv1.value)}: Euler data present on one side only"
            )
        # valid data declares no Euler class at the minimum, which no interval reaches
        if lv1.euler_minus is not None and (_arriving_fingerprint(lv1.euler_minus, fam1)
                                             != _arriving_fingerprint(lv2.euler_minus, fam2)):
            return ComparisonResult(
                False, f"level {fmt_q(lv1.value)}: Euler fingerprint {{pair(e,C)}}"
            )
    return ComparisonResult(True, None)


def compare_fixed_point_data(d1: FixedPointData, d2: FixedPointData) -> ComparisonResult:
    """Level-by-level equality on basis-independent fingerprints.

    Each side is walked once.  Levels compare their components as multisets
    of fingerprints; a surface's holds the arriving state fingerprint with
    its class ``F`` as the Euler class (``F.F``, ``F.K``, its area at the
    wall) and ``F``'s pairing with the arriving slope, so the comparison is
    blind to relabeling and to canonical-class-preserving isometries.  A
    declared fourfold is fingerprinted by its own state (``declared_family``).
    Data of different modes raise ``PreconditionError``, and so does invalid
    data (``run_walk``).  Only walked data is compared: a side that does not
    walk is not the data of any manifold, and its ``WalkError`` propagates.

    No command calls it; the gluing audit checks it.  It is a library call
    because "same fixed point data" is the hypothesis of the paper's
    classification theorem.
    """
    if d1.mode != d2.mode:
        raise PreconditionError("cannot compare data of different modes")
    return _compare(d1, d2, run_walk(d1), run_walk(d2))


class WeakVerdict(Record):
    # kind: "isomorphic (certified)" | "distinct data" | "inconclusive" | "not applicable"
    __slots__ = ("kind", "detail")

    def lines(self) -> list[str]:
        return [f"VERDICT: {self.kind}", f"  {self.detail}"]


def weak_classification_check(d1: FixedPointData, d2: FixedPointData) -> WeakVerdict:
    """Same full fixed point data plus rigidity implies isomorphism.

    Each side is full-mode data judged once by ``classify``; a side whose
    outcome holds no walk (refused before its walk finished) is not
    applicable.  The two walks are compared; equal data are then read off
    the two outcomes: a side refused at its bundle data or maximum check is
    not applicable, a side refused at rigidity certification (a reduced
    space outside the rigidity tables) makes the verdict inconclusive, never
    a classification, and two certificates certify it.

    No command calls it; the gluing audit checks it.  It is a library call
    because it is the paper's theorem applied to two data sets.
    """
    outcomes = []
    for d in (d1, d2):
        if d.mode != "full":
            return WeakVerdict("not applicable", f"{d.name} is not full-mode data")
        outcome = classify(d)
        if outcome.trace is None:
            return WeakVerdict("not applicable", f"{d.name}: {outcome.reason}")
        outcomes.append(outcome)
    comparison = _compare(d1, d2, *(outcome.trace for outcome in outcomes))
    if not comparison.same:
        return WeakVerdict("distinct data", f"fixed point data differ: {comparison.witness}")
    refusals = [outcome for outcome in outcomes if isinstance(outcome, Refusal)]
    for refusal in refusals:
        if refusal.stage != "rigidity certification":
            return WeakVerdict("not applicable",
                               f"{refusal.scenario} contradicts its walk: {refusal.reason}")
    if not refusals:
        return WeakVerdict(
            "isomorphic (certified)", "fixed point data agree and every reduced space is rigid"
        )
    reasons = "; ".join(refusal.reason for refusal in refusals)
    return WeakVerdict("inconclusive", f"data agree but rigidity is not certified: {reasons}")
