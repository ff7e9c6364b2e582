"""Deterministic text rendering of rationals, affine functions and polynomials.

All emitters in this package are required to be byte-stable: the same input
must produce the same output, so every formatting decision is made here once.
The moment variable is always printed as ``t``.  Areas and polynomials are
rendered from integer numerators over a positive denominator, each reduced by
``gcd`` alone, as the area tables hold them.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd


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


def _q(n: int, d: int) -> str:
    """``n/d`` (``d > 0``) in lowest terms, as ``fmt_q`` writes the rational."""
    g = gcd(n, d)
    return str(n // g) if g == d else f"{n // g}/{d // g}"


def _prefix(n: int, d: int) -> str:
    """The multiplier ``n/d > 0`` in front of a power of ``t``; empty for 1."""
    return "" if n == d else f"{_q(n, d)}*"


def fmt_term(n: int, d: int, power: str) -> str:
    """The term ``n/d`` times ``power`` (``d > 0``) as it leads a sum: ``-`` in
    front when negative, no multiplier for ``n/d = 1``, empty for 0."""
    if not n:
        return ""
    return f"{'-' if n < 0 else ''}{_prefix(abs(n), d)}{power}"


def fmt_affine(c: int, den: int, s: int, term: str) -> str:
    """Render the area ``c/den + s*t`` (``den > 0``) the way area tables are
    usually written.

    Increasing areas read ``t-2``, decreasing ones ``5-t``, constants as bare
    rationals.  ``term`` is the unsigned ``t`` term ``fmt_term(abs(s), 1,
    "t")``, which a walk frame holds per class.
    """
    if not s:
        return _q(c, den)
    if not c:
        return term if s > 0 else f"-{term}"
    if s > 0:
        return f"{term}{'+' if c > 0 else '-'}{_q(abs(c), den)}"
    # negative slope: write the constant first, "5-t" style
    return f"{_q(c, den)}-{term}"


def fmt_quadratic(head: str, n1: int, n0: int, d: int) -> str:
    """Render ``(n2*t^2 + n1*t + n0) / d`` (``d > 0``) with explicit ``*`` and
    no spaces, from its ``t^2`` term ``head = fmt_term(n2, d, "t^2")``, which
    a walk frame holds."""
    out = head
    if n1:
        out += f"{'-' if n1 < 0 else '+' if out else ''}{_prefix(abs(n1), d)}t"
    if n0 or not out:
        out += f"{'-' if n0 < 0 else '+' if out else ''}{_q(abs(n0), d)}"
    return out


def fmt_vector(nums, den: int = 1) -> str:
    """``(2,-1,-1,-1)``: the integer numerators ``nums`` over ``den > 0``, each reduced."""
    return "(" + ",".join(_q(n, den) for n in nums) + ")"


def fmt_combination(coeffs, labels) -> str:
    """The ``int`` combination of named basis classes, e.g. ``2L-E1-E2-E3``; zero is ``0``."""
    parts: list[str] = []
    for n, label in zip(coeffs, labels):
        if not n:
            continue
        mag = "" if abs(n) == 1 else str(abs(n))
        if not parts:
            parts.append(("-" if n < 0 else "") + mag + label)
        else:
            parts.append(("-" if n < 0 else "+") + mag + label)
    return "".join(parts) if parts else "0"
