"""Deterministic text rendering of rationals, affine functions and polynomials.

All emitters in this package are required to be byte-stable: the same input
must produce the same output, so every formatting decision is made here once.
The moment variable is always printed as ``t``.
"""

from __future__ import annotations

from fractions import Fraction


def exact_rational(x) -> Fraction:
    """The one coercion of a library value to a rational: a ``Fraction`` is kept
    as it is, and a float is refused, as the scenario parser refuses float
    literals (a float is a binary approximation, never the rational meant)."""
    if type(x) is Fraction:
        return x
    if isinstance(x, float):
        raise ValueError(f"floating-point value {x!r}: rationals must be exact")
    return Fraction(x)


def fmt_q(x: Fraction | int) -> str:
    """``7/2`` for non-integers, plain integer string otherwise."""
    if type(x) is int:
        return str(x)
    if type(x) is not Fraction:
        x = Fraction(x)
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def _coeff_prefix(c: Fraction) -> str:
    """Multiplier in front of ``t``; empty for 1, ``-`` for -1."""
    if c == 1:
        return ""
    if c == -1:
        return "-"
    return f"{fmt_q(c)}*"


def fmt_affine(const: Fraction | int, slope: Fraction | int) -> str:
    """Render ``const + slope*t`` the way area tables are usually written.

    Increasing areas read ``t-2``, decreasing ones ``5-t``, constants as bare
    rationals.  Either argument may be an ``int`` or a ``Fraction``.
    """
    if slope == 0:
        return fmt_q(const)
    t_term = f"{_coeff_prefix(slope)}t"
    if const == 0:
        return t_term
    if slope > 0:
        sign = "+" if const > 0 else "-"
        return f"{t_term}{sign}{fmt_q(abs(const))}"
    # negative slope: write the constant first, "5-t" style
    return f"{fmt_q(const)}{'-' if slope < 0 else '+'}{_coeff_prefix(abs(slope))}t"


def fmt_quadratic(c0: Fraction, c1: Fraction, c2: Fraction) -> str:
    """Render ``c2*t^2 + c1*t + c0`` with explicit ``*`` and no spaces."""
    terms: list[str] = []
    for coeff, power in ((c2, "t^2"), (c1, "t")):
        if coeff == 0:
            continue
        body = f"{_coeff_prefix(abs(coeff))}{power}"
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


def fmt_vector(coeffs) -> str:
    """``(2,-1,-1,-1)`` with exact rational entries."""
    return "(" + ",".join(fmt_q(c) for c in coeffs) + ")"


def fmt_combination(coeffs, labels) -> str:
    """Integer combination of named basis classes, e.g. ``2L-E1-E2-E3``.

    Zero is rendered as ``0``.  Non-integer coefficients are rejected; named
    combinations are only used for integral classes.
    """
    parts: list[str] = []
    for n, label in zip(coeffs, labels):
        if not n:
            continue
        if type(n) is not int:
            c = Fraction(n)
            if c.denominator != 1:
                raise ValueError(f"cannot name class with non-integer coefficient {c}")
            n = c.numerator
        mag = "" if abs(n) == 1 else str(abs(n))
        if not parts:
            parts.append(("-" if n < 0 else "") + mag + label)
        else:
            parts.append(("-" if n < 0 else "+") + mag + label)
    return "".join(parts) if parts else "0"
