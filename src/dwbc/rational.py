"""Exact rational scalars and dense univariate polynomials over them.

Standard library only, and small: the lattice oracle, the command line
and the float routes of `ik_numeric` (which take `_horner` and
`_perm_sign`, the sign of a permutation, from here) need nothing else
from the exact engine, so they import this module and never compile
`exact_core`, which re-exports every name here.
"""

from __future__ import annotations

from fractions import Fraction


def as_fraction(v) -> Fraction:
    """Coerce ints, strings like '3/7', and floats (dyadic, hence exact)."""
    if isinstance(v, Fraction):
        return v
    if isinstance(v, str):
        return parse_rational(v)
    return Fraction(v)


def format_rational(q) -> str:
    """Serialize lowest-terms rational as 'p/q', or 'p' when q = 1."""
    q = as_fraction(q)
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def parse_rational(s: str) -> Fraction:
    s = s.strip()
    if "/" in s:
        num, den = s.split("/")
        return Fraction(int(num), int(den))
    return Fraction(int(s))


class ExactPoly:
    """Dense univariate polynomial with Fraction coefficients.

    Coefficients are stored degree-ascending; the zero polynomial has an
    empty coefficient list.  Evaluation accepts anything that supports
    ring arithmetic with Fractions (Fractions, complex, Laurent tower
    elements, multivariate polynomials), so the same h_N(z) object can
    be evaluated at a number or substituted into a series.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        cs = [as_fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = cs

    def __repr__(self):
        return f"ExactPoly({[format_rational(c) for c in self.coeffs]})"

    def derivative(self) -> "ExactPoly":
        return ExactPoly([k * c for k, c in enumerate(self.coeffs)][1:])

    def eval(self, x):
        """Horner evaluation; x may be any Fraction-compatible ring element."""
        if not self.coeffs:
            return 0 * x if not isinstance(x, (int, Fraction)) else Fraction(0)
        return _horner(self.coeffs, x)


def _horner(coeffs, x):
    """sum_k coeffs[k] x^k for a nonempty ascending coefficient list; x
    may be any ring element that accepts the coefficients."""
    acc = coeffs[-1]
    for c in reversed(coeffs[:-1]):
        acc = acc * x + c
    return acc


def _perm_sign(perm):
    """Sign of a permutation of 0..n-1, by counting inversions."""
    sign = 1
    for i in range(len(perm)):
        for j in range(i + 1, len(perm)):
            if perm[i] > perm[j]:
                sign = -sign
    return sign
