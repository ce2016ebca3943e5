"""Exact scalar, polynomial and truncated-Laurent arithmetic, plus
iterated residue extraction.

Every "multiple integral" evaluated in this package is a contour
integral of a rational function around explicit poles, so it equals a
finite iterated residue and can be computed exactly over the rationals:
substitute z = center + D eps one variable at a time (innermost contour
first), expand as a truncated Laurent series in eps, and read off the
coefficient of eps^(-1) at each level.

The series engine is a tower of univariate Laurent rings: a series in
the first-integrated variable whose coefficients are series in the
second, and so on, with exact rational leaves.  The leaves of every
residue integrand are Python ints.  `residue_drive` substitutes each
variable as z = center + D eps, with D from `eps_scale` (the lcm of the
denominators of the route's factor ratios, as the lattice sweep scales
its weights), and hands the integrand `Scaled` elements: a rational
scalar times a tower on int leaves.  The Fractions of the weights, of
the centers and of the constants that the inverted factors pull out
(each such factor becomes its constant times 1 + an integer polynomial
in the eps's, so the tower inverts only units) stay in the scalars, and
the residue is the product of the scalars times the int residue times
D per variable.  A leaf is a Fraction only where a route inverts a
factor with no such unit form.  Each element tracks the
exponent `err` past which its coefficients are unknown (math.inf for
exact polynomials); dividing by a series introduces a finite window
sized by the ring's `prec`.  The quotient comes from the power-series
division recurrence, one step per coefficient against the divisor's
known terms, so the 2- and 3-term factors the routes divide by cost
size(f) * terms(g) and are never expanded into a dense inverse; an
inverse is the division of 1.  An exact monomial divisor (one known
term, err = inf) only shifts the dividend: the quotient knows what the
dividend knows, err - lo, so 1/eps is the exact Laurent monomial.
Operations propagate `err` honestly, and extraction past the window
raises PrecisionLoss so drivers can retry with a wider tower.  Nothing
is ever rounded.

The nesting order also disambiguates iterated contours around
variable-dependent poles: a factor 1/(w_l - w_j) expands in powers of
w_j/w_l exactly when w_j sits above w_l in the tower, i.e. when the
w_j contour is the smaller (inner) one.

`residue_drive` is the one residue path: every integrand of the
package, the trace's sum over the pole assignments of its flipped
contours included, is a `build` function that returns a tower element
or a pair (A, B) of elements whose product it is, and `residue_drive`
extracts the iterated residue, widening the windows when they run
out.  A route states one (center, order_bound) pair per variable, in
integration order, and `build` gets the shifted variables as a list in
that order, so an integrand names its variables by position only.
The residue of A*B is taken by contraction, sum_i Res(A_i B_(-1-i))
level by level, so the product tower is never formed; a single element
is the pair (elem, 1).  The contraction raises exactly what the
residue of the formed product would: PrecisionLoss when a needed
pairing lies past either window (the err rule of Series.__mul__),
OrderExceeded for a definitely nonzero coefficient below a level's
pole-order bound.

The determinants the integrands multiply in (h_{N,s} times a
Vandermonde, the rows of P_s) are separable: each column depends on one
point, and each point is a Laurent polynomial in one tower variable.
`line_det` builds such a determinant without a tower product.
`_tower_point` reads a point's polynomial, `_point_line` expands a
column's entries in that variable by integer polynomial arithmetic
(contents pulled out, a divisor other than a monomial inverted as an
integer power series) and keeps the exponents of the level's window,
prec past the column's valuation, marking with `err` what that cuts;
`line_det` then assembles the determinant level by level, outermost
column first, by Laplace expansion with minors memoized by their rows,
using only integer times tower and tower plus tower.  A window too
short for the residue raises PrecisionLoss like any other, so it shows
as a retry of `residue_drive`, never as a wrong value.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import OrderExceeded, PrecisionLoss, ZeroDenominator

INF = math.inf

# default relative tolerance for every approximate (complex double) check
DEFAULT_RTOL = 1e-9

# towers `residue_drive` builds, each window doubled, before it gives up
RESIDUE_TRIES = 6


def approx_eq(x, y, rtol=DEFAULT_RTOL):
    """Relative comparison |x - y| <= rtol * max(1, |x|, |y|)."""
    return abs(x - y) <= rtol * max(1.0, abs(x), abs(y))


# ---------------------------------------------------------------------------
# exact scalars
# ---------------------------------------------------------------------------

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


# ---------------------------------------------------------------------------
# dense univariate polynomials over exact rationals
# ---------------------------------------------------------------------------

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

    def __eq__(self, other):
        if isinstance(other, ExactPoly):
            return self.coeffs == other.coeffs
        return NotImplemented

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


# ---------------------------------------------------------------------------
# Laurent series towers
# ---------------------------------------------------------------------------

class ScalarRing:
    """Leaf ring of a tower: exact rationals or complex doubles.

    The rational ring keeps every integral value a Python int (`const`,
    `zero`, and the inverse of +-1), so a tower built from integers
    stays on ints and only a leaf it has to invert turns into a
    Fraction."""

    is_series = False

    def __init__(self, exact, name):
        self.exact = exact
        self.name = name

    def const(self, v):
        if not self.exact:
            return complex(v)
        if isinstance(v, int):
            return v
        q = as_fraction(v)
        return q.numerator if q.denominator == 1 else q

    def zero(self):
        return 0 if self.exact else 0j

    def __repr__(self):
        return self.name


RATIONALS = ScalarRing(True, "Q")
COMPLEXES = ScalarRing(False, "C")


def _is_exact_zero(x) -> bool:
    if isinstance(x, Series):
        return not x.coeffs and x.err == INF
    return x == 0


def _definitely_nonzero(x) -> bool:
    """True when x provably differs from zero (not just unknown)."""
    if isinstance(x, Series):
        return any(_definitely_nonzero(c) for c in x.coeffs)
    return x != 0


def _invert(x):
    """Inverse of a leaf, the one leaf inverse of every tower division:
    an int +-1 stays an int, any other int becomes an exact Fraction."""
    if x == 0:
        raise ZeroDenominator("scalar division by zero")
    if isinstance(x, int):
        return x if x in (1, -1) else Fraction(1, x)
    return 1 / x


class SeriesRing:
    """Univariate truncated Laurent ring over `coeff_ring`.

    `prec` is the relative window (number of tracked coefficients)
    introduced whenever an element is divided by an exact one.
    """

    is_series = True

    def __init__(self, coeff_ring, var: str, prec: int):
        if prec < 1:
            raise ValueError("prec must be >= 1")
        self.coeff_ring = coeff_ring
        self.var = var
        self.prec = prec

    def const(self, v):
        if isinstance(v, Series) and v.ring is self:
            return v
        return Series(self, 0, [self.coeff_ring.const(v)], INF)

    def lift(self, c):
        """Embed a coefficient-ring element as the constant term."""
        return Series(self, 0, [c], INF)

    def gen(self):
        one = self.coeff_ring.const(1)
        return Series(self, 1, [one], INF)

    def zero(self):
        return Series(self, 0, [], INF)

    def __repr__(self):
        return f"{self.coeff_ring!r}[[{self.var}]]/prec={self.prec}"


class Series:
    """Element of a SeriesRing: sum_i coeffs[i] * x^(lo+i) + O(x^err).

    err == math.inf marks an exact (polynomial) element.  Coefficients
    live in the ring's coefficient ring, which may itself be a
    SeriesRing; the resulting tower implements multivariate Laurent
    expansions with an explicit nesting (= contour ordering).
    """

    __slots__ = ("ring", "lo", "coeffs", "err")

    def __init__(self, ring, lo, coeffs, err):
        # trim coefficients at or past the error horizon
        if err != INF and lo + len(coeffs) > err:
            coeffs = coeffs[: max(0, err - lo)]
        # strip exactly-zero leading/trailing coefficients
        i, j = 0, len(coeffs)
        if ring.coeff_ring.is_series:
            while i < j and not coeffs[i].coeffs and coeffs[i].err == INF:
                i += 1
            while j > i and not coeffs[j - 1].coeffs and coeffs[j - 1].err == INF:
                j -= 1
        else:
            while i < j and not coeffs[i]:
                i += 1
            while j > i and not coeffs[j - 1]:
                j -= 1
        if i or j < len(coeffs):
            coeffs = coeffs[i:j]
            lo = lo + i
        if not coeffs:
            lo = 0 if err == INF else err
        self.ring = ring
        self.lo = lo
        self.coeffs = coeffs
        self.err = err

    # -- helpers ---------------------------------------------------------

    @property
    def min_exp(self):
        """Lowest exponent that could carry a nonzero coefficient."""
        return self.lo if self.coeffs else self.err

    def _coerce(self, other):
        if isinstance(other, Series):
            if other.ring is self.ring:
                return other
            raise TypeError("mixed series rings")
        if isinstance(other, (int, Fraction, float, complex)):
            return self.ring.const(other)
        return NotImplemented

    def __repr__(self):
        err = "" if self.err == INF else f" + O({self.ring.var}^{self.err})"
        terms = ", ".join(
            f"{self.ring.var}^{self.lo + i}: {c!r}" for i, c in enumerate(self.coeffs)
        )
        return f"Series({terms or '0'}{err})"

    def __eq__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        d = self - other
        return not d.coeffs

    __hash__ = None

    # -- arithmetic --------------------------------------------------------
    #
    # Each operation decides once, from the coefficient ring, whether its
    # coefficients are leaves (zero is `not c`) or series (zero is the
    # exact zero), instead of testing the type of every coefficient.

    def __add__(self, other):
        if other.__class__ is not Series or other.ring is not self.ring:
            other = self._coerce(other)
            if other is NotImplemented:
                return NotImplemented
        err = min(self.err, other.err)
        if not other.coeffs:
            return Series(self.ring, self.lo, self.coeffs, err)
        if not self.coeffs:
            return Series(self.ring, other.lo, other.coeffs, err)
        a, b = (self, other) if self.lo <= other.lo else (other, self)
        lo = a.lo
        hi = max(a.lo + len(a.coeffs), b.lo + len(b.coeffs))
        if hi > err:
            hi = err
        if hi <= lo:
            return Series(self.ring, 0, [], err)
        out = a.coeffs[: hi - lo]
        bc = b.coeffs[: max(0, hi - b.lo)]
        if bc:
            off = b.lo - lo
            if off > len(out):
                out.extend([self.ring.coeff_ring.zero()] * (off - len(out)))
            k = min(len(out) - off, len(bc))
            if k > 0:
                out[off:off + k] = [x + y for x, y in zip(out[off:off + k], bc)]
            out.extend(bc[max(k, 0):])
        return Series(self.ring, lo, out, err)

    __radd__ = __add__

    def __neg__(self):
        return Series(self.ring, self.lo, [-c for c in self.coeffs], self.err)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if other.__class__ is not Series or other.ring is not self.ring:
            other = self._coerce(other)
            if other is NotImplemented:
                return NotImplemented
        err = min(self.err + other.min_exp, other.err + self.min_exp)
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return Series(self.ring, 0, [], err)
        lo = self.lo + other.lo
        n = len(a) + len(b) - 1
        if err != INF:
            n = min(n, err - lo)
        if n <= 0:
            return Series(self.ring, 0, [], err)
        # monomial fast paths avoid allocating zero rows
        if len(a) == 1:
            x = a[0]
            return Series(self.ring, lo, [x * c for c in b[:n]], err)
        if len(b) == 1:
            y = b[0]
            return Series(self.ring, lo, [c * y for c in a[:n]], err)
        series = self.ring.coeff_ring.is_series
        out = [None] * n
        for i, x in enumerate(a):
            if (not x.coeffs and x.err == INF) if series else not x:
                continue
            for j in range(min(len(b), n - i)):
                prod = x * b[j]
                out[i + j] = prod if out[i + j] is None else out[i + j] + prod
        zero = None
        for i in range(n):
            if out[i] is None:
                if zero is None:
                    zero = self.ring.coeff_ring.zero()
                out[i] = zero
        return Series(self.ring, lo, out, err)

    __rmul__ = __mul__

    def __truediv__(self, other):
        """self / other by the power-series division recurrence
        q_k = (f_k - sum_(m>=1) g_m q_(k-m)) / g_0, indices counted from
        each valuation (Knuth, TAOCP vol. 2, sec. 4.7).  A leaf g_0 is
        inverted once by `_invert`; a series g_0 divides each q_k at its
        own level, so a sparse divisor costs size(f) * terms(g) however
        deep the tower.

        The window is that of self times the inverse of other: other's
        window w = min(other.err - other.lo, prec) bounds what is known
        of 1/other, and the quotient knows its coefficients below
        min(self.err - other.lo, self.min_exp - other.lo + w).
        """
        if other.__class__ is not Series or other.ring is not self.ring:
            other = self._coerce(other)
            if other is NotImplemented:
                return NotImplemented
        g = other.coeffs
        if not g:
            if other.err == INF:
                raise ZeroDenominator("division by the zero series")
            raise PrecisionLoss(
                f"division by O({self.ring.var}^{other.err}) with no known terms"
            )
        g0 = g[0]
        series = self.ring.coeff_ring.is_series
        lead = g0
        while lead.__class__ is Series:
            # the valuation of other is certain only if g_0 is invertible
            if not lead.coeffs:
                raise PrecisionLoss(
                    f"division by a leading coefficient O({lead.ring.var}^"
                    f"{lead.err}) with no known terms")
            lead = lead.coeffs[0]
        if len(g) == 1 and other.err == INF:
            # an exact monomial: each coefficient divides by g_0 alone, so
            # the quotient is self shifted and knows what self knows
            if series:
                q = [c / g0 for c in self.coeffs]
            else:
                r = _invert(g0)
                q = [c * r for c in self.coeffs]
            return Series(self.ring, self.lo - other.lo, q, self.err - other.lo)
        window = other.err - other.lo
        w = self.ring.prec if window == INF else min(int(window), self.ring.prec)
        err = min(self.err - other.lo, self.min_exp - other.lo + w)
        f = self.coeffs
        if not f:
            return Series(self.ring, 0, [], err)
        n = err - self.lo + other.lo  # at most w coefficients
        # the divisor's known terms past g_0, negated
        tail = [(m, -g[m]) for m in range(1, min(len(g), n))
                if ((g[m].coeffs or g[m].err != INF) if series else g[m])]
        if series:
            zero = self.ring.coeff_ring.zero()
            q = []
            for k in range(n):
                acc = f[k] if k < len(f) else None
                for m, c in tail:
                    if m > k:
                        break
                    term = c * q[k - m]
                    acc = term if acc is None else acc + term
                q.append(zero if acc is None else acc / g0)
        else:
            r = _invert(g0)
            q = []
            for k in range(n):
                acc = f[k] if k < len(f) else 0
                for m, c in tail:
                    if m > k:
                        break
                    acc += c * q[k - m]
                q.append(acc * r)
        return Series(self.ring, self.lo - other.lo, q, err)

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other / self

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** (-n)
        out = self.ring.const(1)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def inverse(self) -> "Series":
        """Multiplicative inverse, 1 / self by the division recurrence;
        exists iff the first tracked coefficient is invertible (nonzero
        leading Laurent coefficient).  Its window is prec coefficients
        past its valuation, or fewer when self knows fewer."""
        return self.ring.const(1) / self

    # -- extraction ---------------------------------------------------------

    def coefficient(self, k: int):
        """Coefficient of x^k, raising PrecisionLoss past the window."""
        if k >= self.err:
            raise PrecisionLoss(
                f"coefficient {self.ring.var}^{k} beyond window O(^{self.err})"
            )
        if self.coeffs and self.lo <= k < self.lo + len(self.coeffs):
            return self.coeffs[k - self.lo]
        return self.ring.coeff_ring.zero()

    def residue(self, order_bound=None):
        """Coefficient of x^(-1).

        If `order_bound` is given, a nonzero coefficient below
        x^(-order_bound) raises OrderExceeded (the stated pole order was
        wrong, which in this package means an implementation bug).  A
        below-bound coefficient that is merely *unknown* to be zero
        (an exhausted window after deep cancellations) raises
        PrecisionLoss instead, so drivers retry with a wider tower.
        """
        if order_bound is not None and self.coeffs and self.lo < -order_bound:
            definite = any(_definitely_nonzero(self.coeffs[i])
                           for i in range(min(len(self.coeffs),
                                              -order_bound - self.lo)))
            if not definite:
                raise PrecisionLoss(
                    f"cannot certify pole order bound {order_bound} in "
                    f"{self.ring.var} (window exhausted)")
            raise OrderExceeded(
                f"pole order {-self.lo} in {self.ring.var} exceeds bound {order_bound}"
            )
        return self.coefficient(-1)


class Scaled:
    """k * e: a rational scalar k times a tower element (or an int) e.

    `residue_drive` hands every integrand its variables as Scaled
    elements, so an integrand is written over the rationals while its
    towers stay on integer leaves and the Fractions collect in the
    scalars.  A product multiplies the scalars.  A sum brings its terms
    to the largest rational dividing both scalars, which leaves them
    integer multipliers (fraction-free, in the manner of Bareiss).  A
    quotient or an inverse pulls the leading leaf of the divisor's e,
    the one leaf the division recurrence inverts, into the scalar, so
    the towers divide by a unit: a factor c (1 + sum_m p_m eps^m) has
    integer p_m when the variables are scaled as `eps_scale` chooses.
    Where the leading leaf does not divide e, e is divided by as it is
    and the quotient's leaves become Fractions.
    """

    __slots__ = ("k", "e")

    def __init__(self, k, e):
        self.k = k
        self.e = e

    @property
    def min_exp(self):
        return self.e.min_exp

    @staticmethod
    def _coerce(v):
        if isinstance(v, Scaled):
            return v
        if isinstance(v, Series):
            return Scaled(1, v)
        if isinstance(v, (int, Fraction)):
            return Scaled(v, 1)
        return NotImplemented

    def __repr__(self):
        return f"Scaled({self.k!r}, {self.e!r})"

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return other
        return Scaled(self.k * other.k, _times(self.e, other.e))

    __rmul__ = __mul__

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return other
        if not other.k:
            return self
        if not self.k:
            return other
        k, m1, m2 = _common_scale(self.k, other.k)
        return Scaled(k, _times(self.e, m1) + _times(other.e, m2))

    __radd__ = __add__

    def __neg__(self):
        return Scaled(-self.k, self.e)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return other
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return other
        if not isinstance(other.e, Series):
            return self * other.inverse()
        c, u = other._unit()
        e = self.e if isinstance(self.e, Series) else u.ring.const(self.e)
        return Scaled(self.k / Fraction(c), e / u)

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return other
        return other / self

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** (-n)
        return Scaled(self.k ** n, self.e ** n)

    def inverse(self) -> "Scaled":
        e = self.e
        if not isinstance(e, Series):
            if not (self.k and e):
                raise ZeroDenominator("scalar division by zero")
            return Scaled(1 / Fraction(self.k * e), 1)
        c, u = self._unit()
        return Scaled(1 / Fraction(c), u.inverse())

    def _unit(self):
        """(c, u) with self = c * u for a tower u: u is e with its
        leading leaf pulled into c when that leaf divides every leaf of
        e (then u's leading leaf is 1), else e itself."""
        if not self.k:
            raise ZeroDenominator("inverse of the zero series")
        e = lead = self.e
        while isinstance(lead, Series) and lead.coeffs:
            lead = lead.coeffs[0]
        unit = _divide_leaves(e, lead) if isinstance(lead, int) else None
        if unit is None:
            return self.k, e
        return self.k * lead, unit


def _times(a, b):
    """a * b, skipping the multiplication by an int 1."""
    if isinstance(b, int) and b == 1:
        return a
    if isinstance(a, int) and a == 1:
        return b
    return a * b


def _common_scale(k1, k2):
    """(k, m1, m2) with k1 = m1 k and k2 = m2 k for coprime integers
    m1, m2: k is the gcd of the numerators over the lcm of the
    denominators."""
    p1, q1, p2, q2 = k1.numerator, k1.denominator, k2.numerator, k2.denominator
    g = math.gcd(p1, p2)
    q = math.lcm(q1, q2)
    return (Fraction(g, q) if q != 1 else g,
            p1 * (q // q1) // g, p2 * (q // q2) // g)


def _divide_leaves(x, d):
    """x with every leaf divided by the int d, or None when a leaf is
    not an integer multiple of d."""
    if d == 1:
        return x
    if isinstance(x, Series):
        out = []
        for c in x.coeffs:
            c = _divide_leaves(c, d)
            if c is None:
                return None
            out.append(c)
        return Series(x.ring, x.lo, out, x.err)
    if isinstance(x, int) and x % d == 0:
        return x // d
    return None


def eps_scale(*ratios) -> int:
    """The least D with D q an integer for every q given: the lcm of the
    denominators, as the lattice sweep scales its weights.

    A route passes the ratios, to its constant term, of the linear
    coefficients of every factor it inverts, written at its contour
    centre; with z = centre + D eps each such factor is its constant
    times 1 + (integer polynomial in the eps's) (a coefficient of
    degree m carries D^m), and its inverse stays on integer leaves.
    """
    return math.lcm(1, *(as_fraction(q).denominator for q in ratios))


def build_tower(varspecs, base=RATIONALS):
    """Build a Laurent tower and its variable atoms.

    varspecs: list of (name, prec) pairs, *first entry = first-integrated
    variable* (outermost data level, innermost/smallest contour).
    Returns (ring, atoms) where atoms[name] is the generator of its
    level lifted into the full tower.
    """
    ring = base
    for name, prec in reversed(varspecs):
        ring = SeriesRing(ring, name, prec)
    atoms = {}
    level = ring
    lifts = []
    for name, _ in varspecs:
        atom = level.gen()
        for outer in reversed(lifts):
            atom = outer.lift(atom)
        atoms[name] = atom
        lifts.append(level)
        level = level.coeff_ring
    return ring, atoms


def _leaf_zero(ring):
    while ring.is_series:
        ring = ring.coeff_ring
    return ring.zero()


def _product_coefficient(pairs, k):
    """Coefficient of x^k in sum a*b over the pairs."""
    acc = pairs[0][0].ring.coeff_ring.zero()
    for a, b in pairs:
        for i, ca in enumerate(a.coeffs):
            j = k - a.lo - i - b.lo
            if 0 <= j < len(b.coeffs):
                acc = acc + ca * b.coeffs[j]
    return acc


def _contract_level(pairs, bound):
    """One level of the contraction.

    `pairs` holds series (a, b) of one ring whose products sum to an
    element X.  Raises what X.residue(bound) would raise, then returns
    the pairs of coefficients whose products sum to X's x^(-1)
    coefficient, without forming X.
    """
    var = pairs[0][0].ring.var
    err = INF
    lo = INF
    for a, b in pairs:
        err = min(err, a.err + b.min_exp, b.err + a.min_exp)
        if a.coeffs and b.coeffs:
            lo = min(lo, a.lo + b.lo)
    if bound is not None and lo < -bound:
        # the valuations cannot certify the pole order: form the
        # coefficients below the bound and check them as Series.residue
        low = [_product_coefficient(pairs, k)
               for k in range(lo, min(-bound, err))]
        known = [k for k, c in zip(range(lo, -bound), low)
                 if not _is_exact_zero(c)]
        if any(_definitely_nonzero(c) for c in low):
            raise OrderExceeded(
                f"pole order {-known[0]} in {var} exceeds bound {bound}")
        if known:
            raise PrecisionLoss(
                f"cannot certify pole order bound {bound} in {var} "
                f"(window exhausted)")
    if -1 >= err:
        raise PrecisionLoss(f"coefficient {var}^-1 beyond window O(^{err})")
    out = []
    for a, b in pairs:
        aco, bco = a.coeffs, b.coeffs
        j0 = -1 - a.lo - b.lo  # a.coeffs[i] pairs with b.coeffs[j0 - i]
        for i in range(max(0, j0 - len(bco) + 1), min(len(aco), j0 + 1)):
            ca, cb = aco[i], bco[j0 - i]
            if not (_is_exact_zero(ca) or _is_exact_zero(cb)):
                out.append((ca, cb))
    return out


def iterated_residue(integrand, order_bounds=None):
    """Iterated residue of a tower element, or of the product of a pair
    (A, B) of elements of one tower, taken by contraction.  Either may
    be `Scaled`: the contraction runs on the towers and the scalars
    multiply the result.  An int result is returned as a Fraction.

    The x^(-1) coefficient of A*B is sum_i A_i B_(-1-i), and the residue
    is linear, so each level turns the pairs whose products sum to the
    current coefficient into the pairs of their coefficients; the leaf
    products are summed at the end and the product tower is never built.
    A single element is the pair (elem, 1).

    `order_bounds` optionally gives the pole-order bound per level,
    aligned with the tower from the outside in.  Each level raises
    exactly what residue(bound) on the formed product would:
    PrecisionLoss when x^(-1) lies past the product's window (the err
    rule of Series.__mul__ and __add__), OrderExceeded for a definitely
    nonzero coefficient below the bound, PrecisionLoss for one that is
    only not known to vanish.  Where the valuations of the pairs certify
    the bound, no coefficient is formed for the check; otherwise the
    coefficients below it are formed and checked.
    """
    a, b = integrand if isinstance(integrand, tuple) else (integrand, 1)
    k = 1
    if isinstance(a, Scaled):
        k, a = a.k, a.e
    if isinstance(b, Scaled):
        k, b = k * b.k, b.e
    if not isinstance(a, Series):
        if not isinstance(b, Series):
            return _exact(k * a * b)
        a = b.ring.const(a)
    elif not isinstance(b, Series):
        b = a.ring.const(b)
    pairs = [(a, b)]
    level = 0
    while pairs and isinstance(pairs[0][0], Series):
        bound = None
        if order_bounds is not None and level < len(order_bounds):
            bound = order_bounds[level]
        pairs = _contract_level(pairs, bound)
        level += 1
    acc = _leaf_zero(a.ring)
    for ca, cb in pairs:
        acc = acc + ca * cb
    return _exact(k * acc)


def _exact(v):
    """An int residue as the Fraction every exact route returns."""
    return Fraction(v) if isinstance(v, int) else v


def residue_drive(specs, build, scale=1):
    """Adaptive iterated-residue evaluation.

    specs: list of (center, order_bound) pairs, one per variable, first
    entry integrated first (innermost contour).  `build(vars, ring)`
    receives the shifted variables as a list in spec order, the j-th
    center_j + scale * eps_j, each a `Scaled` element over the atom of
    tower level j, and returns the integrand either as an element or
    as a pair (A, B) of elements whose product it is; the pair is
    contracted by `iterated_residue` without forming A*B, so a builder
    keeps its factors in two small halves (say, one per set of
    variables) instead of one dense product.  The residue in z is
    `scale` times the residue in eps, once per variable.

    The towers run on integer leaves; the Fractions of the integrand
    (its weights, the centers and the scalars its inverted factors pull
    out) collect in the Scaled scalars.  A route picks `scale` with
    `eps_scale` so that every factor it inverts is a unit on the tower.

    The first tower opens each level's window at its order bound b
    (at least 2): a level whose pole order is at most b needs b
    coefficients past the valuation of what it divides.  Errors are
    those of the residue of the formed product.  A pairing past either
    window, or a below-bound coefficient not known to vanish, raises
    PrecisionLoss inside a try, and the driver doubles every window and
    rebuilds, up to RESIDUE_TRIES towers.  A definitely nonzero
    coefficient below a level's order_bound raises OrderExceeded at
    once (the stated pole order was wrong).
    """
    bounds = [b for _, b in specs]
    precs = [max(2, b) for b in bounds]
    names = [f"eps{j}" for j in range(len(specs))]
    for _ in range(RESIDUE_TRIES):
        ring, atoms = build_tower(list(zip(names, precs)))
        shifted = [Scaled(scale, atoms[nm]) + c
                   for nm, (c, _) in zip(names, specs)]
        try:
            return scale ** len(specs) * iterated_residue(
                build(shifted, ring), order_bounds=bounds)
        except PrecisionLoss:
            precs = [2 * p for p in precs]
    raise PrecisionLoss(f"residue_drive did not stabilize at precs={precs}")


# ---------------------------------------------------------------------------
# determinants whose lines each live on one tower level
# ---------------------------------------------------------------------------
#
# A univariate Laurent polynomial is a pair (lo, cs): sum_m cs[m] x^(lo+m).

def _pmul(a, b, hi=INF):
    """Product of two univariate Laurent polynomials, exponents below hi."""
    (la, ca), (lb, cb) = a, b
    lo = la + lb
    n = len(ca) + len(cb) - 1
    if hi != INF:
        n = min(n, hi - lo)
    if n <= 0:
        return (lo, [])
    out = [0] * n
    for i, x in enumerate(ca[:n]):
        if x:
            for j, y in enumerate(cb[:n - i]):
                out[i + j] += x * y
    return (lo, out)


def _padd(a, b):
    lo = min(a[0], b[0])
    out = [0] * (max(a[0] + len(a[1]), b[0] + len(b[1])) - lo)
    for l, cs in (a, b):
        for m, c in enumerate(cs):
            out[l - lo + m] += c
    return (lo, out)


def _plin(k, c, p):
    """k * p + c for numbers k, c and a univariate Laurent polynomial p."""
    return _padd((p[0], [k * x for x in p[1]]), (0, [c]))


def _trimmed(cs):
    """cs without its trailing zeros."""
    j = len(cs)
    while j and not cs[j - 1]:
        j -= 1
    return cs[:j]


def _ppowers(p, n):
    """[p^0, .., p^n] of a univariate Laurent polynomial p."""
    out = [(0, [1])]
    for _ in range(n):
        out.append(_pmul(out[-1], p))
    return out


def _leaf_value(c):
    """The leaf of an exact constant tower element; TypeError otherwise."""
    while c.__class__ is Series:
        if not c.coeffs and c.err == INF:
            return 0
        if c.lo or len(c.coeffs) != 1 or c.err != INF:
            raise TypeError("not an exact polynomial in one tower variable")
        c = c.coeffs[0]
    return c


def _tower_point(p):
    """Read a point of a separable determinant: (top, level, poly) with
    p = poly(eps) for eps the variable of tower level `level` under the
    outermost ring `top`, poly an exact univariate Laurent polynomial
    with rational coefficients; (None, None, (0, [p])) for a number.
    Takes numbers, Series and `Scaled` elements; raises TypeError for a
    tower element that is not an exact polynomial in one variable."""
    k, e = (p.k, p.e) if isinstance(p, Scaled) else (1, p)
    if not isinstance(e, Series):
        return None, None, (0, [k * e])
    top, level = e.ring, 0
    while (e.ring.coeff_ring.is_series and len(e.coeffs) == 1 and not e.lo
           and e.err == INF):
        e = e.coeffs[0]
        level += 1
    if e.err != INF:
        raise TypeError("not an exact polynomial in one tower variable")
    cs = [k * _leaf_value(c) for c in e.coeffs]
    if not cs or (not e.lo and len(cs) == 1):
        return None, None, (0, [cs[0] if cs else 0])
    return top, level, (e.lo, cs)


def _content(values):
    """(k, ints) with values = k * ints, the ints coprime integers; k = 1
    when every value is 0."""
    g, q = 0, 1
    for v in values:
        if v:
            g = math.gcd(g, v.numerator)
            q = math.lcm(q, v.denominator)
    if not g:
        return 1, [0] * len(values)
    return (Fraction(g, q) if q != 1 else g,
            [v.numerator * (q // v.denominator) // g for v in values])


class Line:
    """One column of a separable determinant: entry i is
    k * sum_m rows[i][m] eps^(lo + m) + O(eps^err), eps the variable of
    level `level` of the tower whose outermost ring is `top`; the rows
    are integer lists of one length."""

    __slots__ = ("k", "top", "level", "lo", "rows", "err")

    def __init__(self, k, top, level, lo, rows, err):
        self.k, self.top, self.level = k, top, level
        self.lo, self.rows, self.err = lo, rows, err


def _point_line(point, polys, k=1, div=None):
    """The line of entries k * polys[i] / div[0]^div[1] at a point read
    by `_tower_point`: a `Line` cut to its level's window, or at a
    number point the numbers k * polys[i], constant polynomials there.

    polys are exact univariate Laurent polynomials in the point's eps,
    div an optional (integer polynomial, power) pair, taken at tower
    points only.  Kept are the exponents below v + prec, v the line's
    valuation and prec the window of its tower level; the line is
    exact (err = inf) when that cuts nothing and no divisor leaves a
    series.  A divisor with one term is a shift; any other is inverted
    as a power series in integer arithmetic (q_j scaled by u_0^(j+1)),
    so the window is always finite there.  The rational content goes
    into the line's k.
    """
    top, level, _ = point
    if top is None:
        return [k * (p[1][0] if p[1] else 0) for p in polys]
    ring = top
    for _ in range(level):
        ring = ring.coeff_ring
    d = None
    if div is not None and div[1]:
        (dlo, d), power = div
        j = next(i for i, c in enumerate(d) if c)
        dlo, d = dlo + j, d[j:]
        polys = [(lo - dlo * power, cs) for lo, cs in polys]
        if len(d) == 1:
            k = k / Fraction(d[0]) ** power
            d = None
    lows = [lo + next(i for i, c in enumerate(cs) if c)
            for lo, cs in polys if any(cs)]
    if not lows:
        return Line(1, top, level, 0, [[] for _ in polys], INF)
    lo = min(lows)
    w = ring.prec
    cut = lo + w
    if d is None:
        err = INF if all(l + len(cs) <= cut or not any(cs[cut - l:])
                         for l, cs in polys) else cut
    else:
        # 1/u for u = d^power, u_0 != 0, by the division recurrence on
        # q_m u_0^(m+1), which stays integral; w terms are u_0^-w inv
        u = (0, [1])
        for _ in range(power):
            u = _pmul(u, (0, d), w)
        u = u[1]
        inv = [1]
        for m in range(1, w):
            inv.append(-sum(u[i] * u[0] ** (i - 1) * inv[m - i]
                            for i in range(1, min(m + 1, len(u)))))
        inv = [c * u[0] ** (w - 1 - m) for m, c in enumerate(inv)]
        k = k / Fraction(u[0]) ** w
        polys = [_pmul(p, (0, inv), cut) for p in polys]
        err = cut
    width = min(cut, max(l + len(cs) for l, cs in polys)) - lo
    rows = []
    for l, cs in polys:
        row = [0] * width
        for m, c in enumerate(cs):
            if c and lo <= l + m < cut:
                row[l + m - lo] = c
        rows.append(row)
    kr, flat = _content([c for row in rows for c in row])
    rows = [flat[i * width:(i + 1) * width] for i in range(len(rows))]
    return Line(k * kr, top, level, lo, rows, err)


def _lincomb(terms):
    """sum c x over pairs (int c, x) of elements of one ring, leaves or
    Series, scaled and added coefficient by coefficient: no tower
    product is formed."""
    if len(terms) == 1 and terms[0][0] == 1:
        return terms[0][1]
    x0 = terms[0][1]
    if x0.__class__ is not Series:
        acc = 0
        for c, x in terms:
            acc += c * x
        return acc
    ring = x0.ring
    err, lo, hi = INF, INF, -INF
    for _, x in terms:
        if x.err < err:
            err = x.err
        if x.coeffs:
            lo = min(lo, x.lo)
            hi = max(hi, x.lo + len(x.coeffs))
    hi = min(hi, err)
    if lo >= hi:
        return Series(ring, 0, [], err)
    out = []
    if ring.coeff_ring.is_series:
        zero = ring.coeff_ring.zero()
        for e in range(lo, hi):
            sub = [(c, x.coeffs[e - x.lo]) for c, x in terms
                   if x.lo <= e < x.lo + len(x.coeffs)]
            sub = [(c, y) for c, y in sub if y.coeffs or y.err != INF]
            out.append(_lincomb(sub) if sub else zero)
    else:
        for e in range(lo, hi):
            acc = 0
            for c, x in terms:
                if x.lo <= e < x.lo + len(x.coeffs):
                    acc += c * x.coeffs[e - x.lo]
            out.append(acc)
    return Series(ring, lo, out, err)


def line_det(lines):
    """det M for the square matrix whose j-th column is lines[j]: a list
    of numbers, or a `Line` on one tower level, no two on one level.

    The determinant is assembled level by level, outermost line first,
    by Laplace expansion along the lines with the minors memoized by
    their set of rows: the coefficient of eps^e in the minor on rows R
    of the lines from j on is sum_(i in R) +- c_(i,e) times the minor
    on R - {i} of the lines after j, lifted to the next level.  So the
    only tower operations are integer times tower and tower plus tower;
    the lines' contents go into the `Scaled` scalar, and number lines,
    expanded last, give number minors, brought to integers by their
    common denominator.  Returns a `Scaled` element, or a number when
    every line is numbers.
    """
    s = len(lines)
    tower = sorted((j for j in range(s) if isinstance(lines[j], Line)),
                   key=lambda j: lines[j].level)
    order = tower + [j for j in range(s) if not isinstance(lines[j], Line)]
    cols = [lines[j] for j in order]
    m = len(tower)
    memo = {}

    def number_minor(j, mask):
        if j == s:
            return 1
        key = (j, mask)
        if key not in memo:
            acc, odd = 0, False
            for i in range(s):
                if mask >> i & 1:
                    x = cols[j][i]
                    if x:
                        term = x * number_minor(j + 1, mask ^ (1 << i))
                        acc = acc - term if odd else acc + term
                    odd = not odd
            memo[key] = acc
        return memo[key]

    full = (1 << s) - 1
    if not m:
        return _exact(_perm_sign(order) * number_minor(0, full))
    top = cols[0].top
    chain = []
    ring = top
    while ring.is_series:
        chain.append(ring)
        ring = ring.coeff_ring
    levels = [c.level for c in cols[:m]]
    if any(c.top is not top for c in cols[:m]) or len(set(levels)) < m:
        raise ValueError("lines must lie on distinct levels of one tower")
    k = _perm_sign(order)
    for c in cols[:m]:
        k = k * c.k
    rests = {mask: number_minor(m, mask) for mask in range(full + 1)
             if bin(mask).count("1") == s - m}
    if m < s and all(isinstance(v, (int, Fraction)) for v in rests.values()):
        q = math.lcm(*(Fraction(v).denominator for v in rests.values()))
        k = Fraction(k, q)
        rests = {mask: int(v * q) for mask, v in rests.items()}

    def lift(x, frm, to):
        for lev in range(frm - 1, to - 1, -1):
            x = Series(chain[lev], 0, [x], INF)
        return x

    minors = {}

    def minor(j, mask):
        # the minor of the lines from j on, on the rows in mask: a number
        # past the last tower line, else an element of the ring just
        # inside line j - 1's level
        if j == m:
            return rests[mask]
        key = (j, mask)
        if key not in minors:
            col, level = cols[j], levels[j]
            inner, odd = [], False
            for i in range(s):
                if mask >> i & 1:
                    inner.append((col.rows[i], odd, minor(j + 1, mask ^ (1 << i))))
                    odd = not odd
            coeffs = []
            if j == m - 1:
                # number minors: sum them, then lift each coefficient
                for e in range(len(col.rows[0])):
                    acc = 0
                    for row, odd, x in inner:
                        if row[e]:
                            acc = acc - row[e] * x if odd else acc + row[e] * x
                    coeffs.append(lift(acc, len(chain), level + 1))
            else:
                zero = chain[level].coeff_ring.zero()
                for e in range(len(col.rows[0])):
                    terms = [(-row[e] if odd else row[e], x)
                             for row, odd, x in inner if row[e]]
                    coeffs.append(_lincomb(terms) if terms else zero)
            minors[key] = lift(Series(chain[level], col.lo, coeffs, col.err),
                               level, levels[j - 1] + 1 if j else 0)
        return minors[key]

    return Scaled(k, minor(0, full))


# ---------------------------------------------------------------------------
# sparse multivariate polynomials
# ---------------------------------------------------------------------------

class MultiPoly:
    """Multivariate polynomial as {exponent tuple: coefficient}.

    Coefficients are Fractions (or complex in numeric mode).  Holds only
    h_{N,s} (`BoundaryGenFamily.hns_poly`), the Vandermonde-divided
    determinant polynomial, evaluated at numbers where points coincide;
    no residue integrand and no identity check evaluates one.  Terms,
    not the representation, carry the cost.
    """

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms=None):
        self.nvars = nvars
        self.terms = {}
        if terms:
            for e, c in terms.items():
                if c != 0:
                    self.terms[tuple(e)] = c

    @classmethod
    def constant(cls, nvars, c):
        return cls(nvars, {(0,) * nvars: c})

    @classmethod
    def variable(cls, nvars, i):
        e = [0] * nvars
        e[i] = 1
        return cls(nvars, {tuple(e): Fraction(1)})

    def __add__(self, other):
        out = dict(self.terms)
        for e, c in other.terms.items():
            c2 = out.get(e, 0) + c
            if c2 == 0:
                out.pop(e, None)
            else:
                out[e] = c2
        return MultiPoly(self.nvars, out)

    def __neg__(self):
        return MultiPoly(self.nvars, {e: -c for e, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, float, complex)):
            if other == 0:
                return MultiPoly(self.nvars)
            return MultiPoly(self.nvars, {e: c * other for e, c in self.terms.items()})
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                c = out.get(e, 0) + c1 * c2
                if c == 0:
                    out.pop(e, None)
                else:
                    out[e] = c
        return MultiPoly(self.nvars, out)

    __rmul__ = __mul__

    def degree(self, i: int) -> int:
        """Degree in variable i (zero polynomial gives -1)."""
        return max((e[i] for e in self.terms), default=-1)

    def eval(self, args):
        """Evaluate at numbers (Fractions or complex)."""
        if len(args) != self.nvars:
            raise ValueError("argument count mismatch")
        maxdeg = [self.degree(i) for i in range(self.nvars)]
        powers = []
        for x, d in zip(args, maxdeg):
            tab = [1]
            for _ in range(max(d, 0)):
                tab.append(tab[-1] * x)
            powers.append(tab)
        acc = None
        for e, c in self.terms.items():
            term = c
            for i, k in enumerate(e):
                if k:
                    term = term * powers[i][k]
            acc = term if acc is None else acc + term
        if acc is None:
            return Fraction(0)
        return acc


def complete_homogeneous(nvars: int, upto_var: int, k: int) -> MultiPoly:
    """Complete homogeneous symmetric polynomial h_k(x_1..x_{upto_var}).

    Embedded in `nvars` variables; h_0 = 1, h_{k<0} = 0.
    """
    if k < 0:
        return MultiPoly(nvars)
    if k == 0 or upto_var == 0:
        if upto_var == 0 and k > 0:
            return MultiPoly(nvars)
        return MultiPoly.constant(nvars, Fraction(1))
    # h_k(x_1..x_m) = sum_i x_m^i h_{k-i}(x_1..x_{m-1})
    xm = MultiPoly.variable(nvars, upto_var - 1)
    out = MultiPoly(nvars)
    xpow = MultiPoly.constant(nvars, Fraction(1))
    for i in range(k + 1):
        out = out + xpow * complete_homogeneous(nvars, upto_var - 1, k - i)
        if i < k:
            xpow = xpow * xm
    return out


def poly_det(matrix):
    """Determinant of a small square matrix over a commutative ring
    (MultiPoly / Series / Fraction entries), by cofactor expansion."""
    n = len(matrix)
    if n == 0:
        return Fraction(1)
    if n == 1:
        return matrix[0][0]
    acc = None
    for j in range(n):
        minor = [row[:j] + row[j + 1:] for row in matrix[1:]]
        term = matrix[0][j] * poly_det(minor)
        if j % 2:
            term = -term
        acc = term if acc is None else acc + term
    return acc


def _perm_sign(perm):
    """Sign of a permutation of 0..n-1, by counting inversions."""
    sign = 1
    for i in range(len(perm)):
        for j in range(i + 1, len(perm)):
            if perm[i] > perm[j]:
                sign = -sign
    return sign
