"""Exact scalar, polynomial and truncated-Laurent arithmetic, plus
iterated residue extraction.

Every "multiple integral" evaluated in this package is a contour
integral of a rational function around explicit poles, so it equals a
finite iterated residue and can be computed exactly over the rationals:
substitute z = center + eps one variable at a time (innermost contour
first), expand as a truncated Laurent series in eps, and read off the
coefficient of eps^(-1) at each level.

The series engine is a tower of univariate Laurent rings: a series in
the first-integrated variable whose coefficients are series in the
second, and so on, with exact rational leaves.  Each element tracks the
exponent `err` past which its coefficients are unknown (math.inf for
exact polynomials); inverting a unit series introduces a finite window
sized by the ring's `prec`.  Operations propagate `err` honestly, and
extraction past the window raises PrecisionLoss so drivers can retry
with a wider tower.  Nothing is ever rounded.

The nesting order also disambiguates iterated contours around
variable-dependent poles: a factor 1/(w_l - w_j) expands in powers of
w_j/w_l exactly when w_j sits above w_l in the tower, i.e. when the
w_j contour is the smaller (inner) one.

`residue_drive` is the one residue path: every integrand of the
package, the trace's sum over the pole assignments of its flipped
contours included, is a `build` function that returns a tower element
or a pair (A, B) of elements whose product it is, and `residue_drive`
extracts the iterated residue, widening the windows when they run
out.  The residue of A*B is taken by contraction,
sum_i Res(A_i B_(-1-i)) level by level, so the product tower is never
formed; a single element is the pair (elem, 1).  The contraction
raises exactly what the residue of the formed product would:
PrecisionLoss when a needed pairing lies past either window (the err
rule of Series.__mul__), OrderExceeded for a definitely nonzero
coefficient below a level's pole-order bound.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

from .errors import OrderExceeded, PrecisionLoss, ZeroDenominator

INF = math.inf

# default relative tolerance for every approximate (complex double) check
DEFAULT_RTOL = 1e-9


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

    # -- structure ----------------------------------------------------

    @property
    def degree(self) -> int:
        """Degree, with the zero polynomial at -1."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def __eq__(self, other):
        if isinstance(other, ExactPoly):
            return self.coeffs == other.coeffs
        return NotImplemented

    def __repr__(self):
        return f"ExactPoly({[format_rational(c) for c in self.coeffs]})"

    def __getitem__(self, k: int) -> Fraction:
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return Fraction(0)

    # -- ring operations ----------------------------------------------

    def __add__(self, other):
        other = self._coerce(other)
        n = max(len(self.coeffs), len(other.coeffs))
        return ExactPoly([self[k] + other[k] for k in range(n)])

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __neg__(self):
        return ExactPoly([-c for c in self.coeffs])

    def __mul__(self, other):
        other = self._coerce(other)
        if self.is_zero() or other.is_zero():
            return ExactPoly([])
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return ExactPoly(out)

    __radd__ = __add__
    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative polynomial power")
        out = ExactPoly([1])
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    @staticmethod
    def _coerce(v):
        if isinstance(v, ExactPoly):
            return v
        return ExactPoly([as_fraction(v)])

    # -- calculus and evaluation ----------------------------------------

    def derivative(self) -> "ExactPoly":
        return ExactPoly([k * c for k, c in enumerate(self.coeffs)][1:])

    def eval(self, x):
        """Horner evaluation; x may be any Fraction-compatible ring element."""
        if not self.coeffs:
            return 0 * x if not isinstance(x, (int, Fraction)) else Fraction(0)
        return _horner(self.coeffs, x)

    __call__ = eval

    def reversed(self, degree=None) -> "ExactPoly":
        """z^d * p(1/z) for d = max(degree, self.degree)."""
        d = self.degree if degree is None else degree
        return ExactPoly([self[d - k] for k in range(d + 1)])

    # -- serialization ---------------------------------------------------

    def to_json(self) -> str:
        return json.dumps([format_rational(c) for c in self.coeffs])

    @classmethod
    def from_json(cls, s: str) -> "ExactPoly":
        return cls([parse_rational(c) for c in json.loads(s)])


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
    """Leaf ring of a tower: exact rationals or complex doubles."""

    is_series = False

    def __init__(self, cast, name):
        self._cast = cast
        self.name = name

    def const(self, v):
        if isinstance(v, complex) and self._cast is complex:
            return v
        if self._cast is Fraction:
            return as_fraction(v)
        return self._cast(v)

    def zero(self):
        return self._cast(0)

    def __repr__(self):
        return self.name


RATIONALS = ScalarRing(Fraction, "Q")
COMPLEXES = ScalarRing(complex, "C")


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
    if isinstance(x, Series):
        return x.inverse()
    if x == 0:
        raise ZeroDenominator("scalar division by zero")
    return 1 / x if not isinstance(x, Fraction) else Fraction(1) / x


class SeriesRing:
    """Univariate truncated Laurent ring over `coeff_ring`.

    `prec` is the relative window (number of tracked coefficients)
    introduced whenever an exact element is inverted.
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
        i = 0
        while i < len(coeffs) and _is_exact_zero(coeffs[i]):
            i += 1
        j = len(coeffs)
        while j > i and _is_exact_zero(coeffs[j - 1]):
            j -= 1
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

    def is_exact_zero(self) -> bool:
        return not self.coeffs and self.err == INF

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

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        err = min(self.err, other.err)
        lo = min(self.min_exp, other.min_exp, err)
        if lo == INF:
            return Series(self.ring, 0, [], INF)
        lo = int(lo)
        hi = lo
        for t in (self, other):
            if t.coeffs:
                hi = max(hi, t.lo + len(t.coeffs))
        hi = min(hi, err) if err != INF else hi
        out = []
        zero = None
        for k in range(lo, hi):
            has_a = self.coeffs and self.lo <= k < self.lo + len(self.coeffs)
            has_b = other.coeffs and other.lo <= k < other.lo + len(other.coeffs)
            if has_a and has_b:
                out.append(self.coeffs[k - self.lo] + other.coeffs[k - other.lo])
            elif has_a:
                out.append(self.coeffs[k - self.lo])
            elif has_b:
                out.append(other.coeffs[k - other.lo])
            else:
                if zero is None:
                    zero = self.ring.coeff_ring.zero()
                out.append(zero)
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
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        err = min(self.err + other.min_exp, other.err + self.min_exp)
        if not self.coeffs or not other.coeffs:
            return Series(self.ring, 0, [], err)
        lo = self.lo + other.lo
        # monomial fast paths avoid allocating zero rows
        if len(self.coeffs) == 1:
            a = self.coeffs[0]
            n = len(other.coeffs) if err == INF else min(len(other.coeffs), err - lo)
            return Series(self.ring, lo, [a * c for c in other.coeffs[:n]], err)
        if len(other.coeffs) == 1:
            b = other.coeffs[0]
            n = len(self.coeffs) if err == INF else min(len(self.coeffs), err - lo)
            return Series(self.ring, lo, [c * b for c in self.coeffs[:n]], err)
        n = len(self.coeffs) + len(other.coeffs) - 1
        if err != INF:
            n = min(n, err - lo)
        if n <= 0:
            return Series(self.ring, 0, [], err)
        out = [None] * n
        for i, a in enumerate(self.coeffs):
            if _is_exact_zero(a):
                continue
            jmax = min(len(other.coeffs), n - i)
            for j in range(jmax):
                prod = a * other.coeffs[j]
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
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        return self.inverse() * other

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
        """Multiplicative inverse; exists iff the first tracked
        coefficient is invertible (nonzero leading Laurent coefficient)."""
        if not self.coeffs:
            if self.err == INF:
                raise ZeroDenominator("inverse of the zero series")
            raise PrecisionLoss(
                f"inverse of O({self.ring.var}^{self.err}) with no known terms"
            )
        window = self.err - self.lo
        w = self.ring.prec if window == INF else min(int(window), self.ring.prec)
        c0inv = _invert(self.coeffs[0])
        inv = [c0inv]
        for k in range(1, w):
            acc = None
            kmax = min(k, len(self.coeffs) - 1)
            for i in range(1, kmax + 1):
                term = self.coeffs[i] * inv[k - i]
                acc = term if acc is None else acc + term
            inv.append(-(c0inv * acc) if acc is not None
                       else self.ring.coeff_ring.zero())
        return Series(self.ring, -self.lo, inv, -self.lo + w)

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
    (A, B) of elements of one tower, taken by contraction.

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
    if not isinstance(a, Series):
        if not isinstance(b, Series):
            return a * b
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
    return acc


def geom_inverse(u, ring):
    """(1 - u)^(-1) for an element u of positive top-level valuation,
    via the geometric sum.

    Powers of monomial-like u stay cheap, unlike the generic dense
    series inversion; the omitted tail has top-level exponent at least
    (mmax+1) * valuation, which caps the result's error exponent.
    """
    v = u.min_exp
    if v < 1:
        raise ValueError("geom_inverse needs positive valuation")
    if v == INF:
        return ring.const(1)
    mmax = int(ring.prec // v) + 1
    acc = ring.const(1)
    p = u
    for _ in range(mmax):
        acc = acc + p
        p = p * u
    return Series(ring, acc.lo, acc.coeffs, min(acc.err, (mmax + 1) * v))


def residue_drive(specs, build, base=RATIONALS, max_tries=6):
    """Adaptive iterated-residue evaluation.

    specs: list of (name, center, order_bound), first entry integrated
    first (innermost contour).  `build(vars, ring)` receives the shifted
    variables {name: center + eps_name} and returns the integrand either
    as a tower element or as a pair (A, B) of elements of `ring` whose
    product it is; the pair is contracted by `iterated_residue` without
    forming A*B, so a builder keeps its factors in two small halves
    (say, one per set of variables) instead of one dense product.

    Errors are those of the residue of the formed product.  A pairing
    past either window, or a below-bound coefficient not known to
    vanish, raises PrecisionLoss inside a try, and the driver doubles
    every window and rebuilds, up to `max_tries` towers.  A definitely
    nonzero coefficient below a level's order_bound raises
    OrderExceeded at once (the stated pole order was wrong).
    """
    precs = [max(2, b + 1) for (_, _, b) in specs]
    bounds = [b for (_, _, b) in specs]
    for _ in range(max_tries):
        ring, atoms = build_tower(
            [(nm, p) for (nm, _, _), p in zip(specs, precs)], base=base)
        shifted = {nm: atoms[nm] + ring.const(c) if c else atoms[nm]
                   for (nm, c, _) in specs}
        try:
            return iterated_residue(build(shifted, ring), order_bounds=bounds)
        except PrecisionLoss:
            precs = [2 * p for p in precs]
    raise PrecisionLoss(f"residue_drive did not stabilize at precs={precs}")


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
