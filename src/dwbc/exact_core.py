"""Exact scalar, polynomial and truncated-Laurent arithmetic, plus
iterated residue extraction.

Every "multiple integral" evaluated in this package is a contour
integral of a rational function around explicit poles, so it equals a
finite iterated residue and can be computed exactly over the rationals:
substitute z = center + D eps one variable at a time (innermost contour
first), expand as a truncated Laurent series in eps, and read off the
coefficient of eps^(-1) at each level.

The series engine is one flat tower.  An element of an L-level tower
(level 0 is the first-integrated variable) is a box: its leaves in one
Python list, row-major with level 0 slowest, and per level the box's
lowest exponent `lo[j]` and the first unknown exponent `err[j]`
(math.inf where the element is exact in that variable).  Exponents
below err at every level are known; lo[j] bounds level j of every
coefficient whose outer exponents are known, so a zero slice at the
bottom of a level stays while a deeper level is inexact.  A product
places one factor at each leaf of the other, with lo = lo_a + lo_b and
err = min(err_a + lo_b, err_b + lo_a) per level; a sum takes the
per-level minima.  The leaves of every residue integrand are Python
ints: `residue_drive` substitutes z = center + D eps, D from
`eps_scale` (the lcm of the denominators of the route's factor ratios,
as the lattice sweep scales its weights), and hands the integrand
`Scaled` elements, a scalar n/d kept as two ints times a tower on int
leaves.  The routes write their factors with integer coefficients, so
the constants that inverted factors pull out (each becomes its
constant times 1 + an integer polynomial in the eps's, a unit) go into
the scalars' denominators, and no scalar is a Fraction: the residue,
times the route's prefactor as one integer pair, becomes one Fraction
at the end of `residue_drive` (the gcd-saving of rational products in
Knuth, TAOCP vol. 2, sec. 4.5.1).  A leaf is a Fraction only where a
route inverts a factor with no such unit form.

Division runs the power-series division recurrence (Knuth, TAOCP vol.
2, sec. 4.7) over the box in lexicographic level order, outermost level
first: q_e = (f_e - sum_h g_(v+h) q_(e-h)) / g_v, v the divisor's
lex-leading exponent, one step per known divisor term, so the 2- to
4-term factors the routes divide by cost size(f) * terms(g).  Where the
divisor has terms past its leading one, or is inexact, the quotient
knows min(window, prec) coefficients past the valuation, the window
being the divisor's known span; an exact monomial only shifts the
dividend, so 1/eps is exact.  A divisor such as 1 - w_j/w_l, whose
leading term has exponents of mixed sign, makes the quotient reach
lower in the inner variable with every outer step: its box extends
downward there by the outer steps times that spread, read from the
divisor's exponents.  Extraction past a window raises PrecisionLoss,
so drivers retry with a wider tower.  Nothing is ever rounded.  The
nesting order also disambiguates iterated contours around
variable-dependent poles: 1/(w_l - w_j) expands in powers of w_j/w_l
exactly when w_j sits above w_l in the tower.

What an operation works out from its operands' boxes alone is a plan,
computed once per key and kept in one store of at most PLAN_CAP (4096)
plans, emptied when full.  A division's key is the lo, shape and err
of both operands, the divisor's nonzero leaf positions, the tower's
precs and the dividend's `_tops` on the levels whose window they set;
its plan holds the quotient's lo, err and box and the recurrence's
padded buffer, leaf order and step reaches, while the divisor's leading
leaf is inverted and its step coefficients read on every call.  A
sum's key is the lo, shape and err of both terms, its plan the
placement of each in the sum's box cut at err.  A product's key is the
lo, shape and err of both factors; its plan holds the product's lo, err
and box, which factor is placed, and per leaf of the other only the
leaves of the placed factor that land inside the box cut at err, with
where they land, so a product forms no leaf that a window drops.  Every
operation keeps its crops in the same store.  No leaf value enters a
plan, so the first operation on a shape pays the set-up and every later
one a lookup.

`residue_drive` is the one residue path: every integrand is a `build`
function returning a tower element or a pair (A, B) whose product it
is, over the shifted variables in integration order; it extracts the
iterated residue, widening the windows when they run out.  The residue
of A*B is one dot product of A's box against B's reversed box, so the
product is never formed, and it raises what the residue of the formed
product would: PrecisionLoss for a pairing past a window, OrderExceeded
for a definitely nonzero coefficient below a level's pole-order bound.

The determinants the integrands multiply in (h_{N,s} times a
Vandermonde, the rows of P_s) are separable: each column depends on one
point, and each point is a Laurent polynomial in one tower variable.
`_tower_point` reads a point's polynomial, `_point_line` expands a
column's entries in that variable by integer polynomial arithmetic
(contents pulled out, a divisor other than a monomial inverted as an
integer power series) and keeps the exponents of the level's window,
prec past the column's valuation, marking with `err` what that cuts;
`line_det` then assembles the determinant's box by one Laplace
recursion over all its columns, a number column being one of width
one, with minors memoized by their rows, each block an integer
combination of flat minors, with no tower product.  A window too short
for the residue raises PrecisionLoss like any other, so it shows as a
retry of `residue_drive`, never as a wrong value.

One helper does each job for the whole package.  `_leaf` makes every
leaf: an int or a complex number stays as it is (the Taylor towers of
`hankel_orthopoly` are complex), any other number becomes its exact
Fraction, an int where it is integral.  A univariate Laurent
polynomial is a pair (lo, cs): sum_m cs[m] x^(lo+m) over any ring,
multiplied by `_pmul` and raised to powers by `_ppowers`; `_content`
splits rationals into a positive integer pair g/q times coprime
integers (the columns of `line_det`, the rows of h_{N,s});
`_product_box` is a tower product's box, formed or contracted.
`poly_det` is the cofactor determinant over any ring.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import compress, product
from operator import add, and_, mul, not_, sub

from .errors import OrderExceeded, PrecisionLoss, ZeroDenominator
from .rational import (ExactPoly, _horner, _perm_sign,  # noqa: F401
                       as_fraction, format_rational, parse_rational)

INF = math.inf

# default relative tolerance for every approximate (complex double) check
DEFAULT_RTOL = 1e-9

# towers `residue_drive` builds, each window doubled, before it gives up
RESIDUE_TRIES = 6


def approx_eq(x, y, rtol=DEFAULT_RTOL):
    """Relative comparison |x - y| <= rtol * max(1, |x|, |y|)."""
    return abs(x - y) <= rtol * max(1.0, abs(x), abs(y))


# ---------------------------------------------------------------------------
# Laurent series towers
# ---------------------------------------------------------------------------

def _leaf(v):
    """A number as a tower leaf: an int or a complex number as it is,
    anything else as its exact Fraction, an int where that is integral."""
    if isinstance(v, (int, complex)):
        return v
    q = as_fraction(v)
    return q.numerator if q.denominator == 1 else q


def _invert(x):
    """Inverse of a leaf, the one leaf inverse of every tower division:
    an int +-1 stays an int, any other int becomes an exact Fraction."""
    if x == 0:
        raise ZeroDenominator("scalar division by zero")
    if isinstance(x, int):
        return x if x in (1, -1) else Fraction(1, x)
    return 1 / x


class Tower:
    """The ring of an L-level tower, its leaves made by `_leaf`: level j
    is the variable names[j], whose quotients keep precs[j] coefficients
    past their valuation.  `inner` is the tower of levels 1.., where a
    coefficient in the level-0 variable lives.  A tower of no levels
    has its leaves as its elements."""

    __slots__ = ("names", "precs", "_inner")

    def __init__(self, names, precs):
        if min(precs, default=1) < 1:
            raise ValueError("prec must be >= 1")
        self.names, self.precs = tuple(names), tuple(precs)
        self._inner = None

    @property
    def inner(self):
        if self._inner is None:
            self._inner = Tower(self.names[1:], self.precs[1:])
        return self._inner

    def laurent(self, level, lo, coeffs, err=INF):
        """sum_m coeffs[m] x^(lo + m) + O(x^err) for x the variable of
        `level`: a Laurent polynomial in one level, exact in the others
        (and in its own when err is inf)."""
        L = len(self.precs)
        cs = [_leaf(c) for c in coeffs]
        if err != INF:
            cs = cs[:max(0, err - lo)]
        i, j = 0, len(cs)
        while i < j and not cs[i]:
            i += 1
        while j > i and not cs[j - 1]:
            j -= 1
        errs = tuple(err if m == level else INF for m in range(L))
        if i == j:
            return _empty(self, (0,) * L, errs)
        return Series(self,
                      tuple(lo + i if m == level else 0 for m in range(L)),
                      tuple(j - i if m == level else 1 for m in range(L)),
                      cs[i:j], errs)

    def const(self, v):
        if isinstance(v, Series) and v.ring is self:
            return v
        c, L = _leaf(v), len(self.precs)
        if not L:
            return c
        if not c:
            return self.zero()
        return Series(self, (0,) * L, (1,) * L, [c], (INF,) * L)

    def gen(self, level=0):
        return self.laurent(level, 1, [1])

    def zero(self):
        L = len(self.precs)
        return Series(self, (INF,) * L, (0,) * L, [], (INF,) * L)

    def __repr__(self):
        return f"Tower[[{', '.join(self.names)}]]/prec={self.precs}"


# The plan store: what an operation works out from the boxes of its
# operands alone, never from a leaf value, keyed by those boxes.  Keys
# of different kinds never meet: strides are keyed by a shape, offsets
# by (shape, strides), crops by (shift, shape, shape), sums by a flat
# tuple led by "+", products by one led by "*" (the lo, shape and err of
# both factors), division heads by one led by "/" and divisions by
# (head key, tops).  A plan is kept only when it holds at most
# PLAN_LEAVES positions, so a large box, whose own arithmetic dwarfs its
# set-up, plans afresh; the store is emptied when it reaches PLAN_CAP
# entries.
PLAN_CAP = 4096
PLAN_LEAVES = 256
_PLANS = {}


def _remember(key, plan, size=0):
    """Store plan under key when its `size` is at most PLAN_LEAVES, and
    return it."""
    if size <= PLAN_LEAVES:
        if len(_PLANS) >= PLAN_CAP:
            _PLANS.clear()
        _PLANS[key] = plan
    return plan


def _strides(shape):
    out = _PLANS.get(shape)
    if out is None:
        out, st = [], 1
        for n in reversed(shape):
            out.append(st)
            st *= n
        out = _remember(shape, tuple(out[::-1]))
    return out


def _index(p, strides):
    """The multi-index of flat position p."""
    out = []
    for st in strides:
        q, p = divmod(p, st)
        out.append(q)
    return out


def _offsets(shape, strides, base=0):
    """Flat offsets, at `strides`, of the leaves of a box of `shape`, in
    row-major order, the first at `base`; stored at base 0, the offsets
    every product asks for, while plans store their own."""
    offs = None if base else _PLANS.get((shape, strides))
    if offs is None:
        offs = [base]
        for n, st in zip(shape, strides):
            offs = [o + i * st for o in offs for i in range(n)]
        if not base:
            _remember((shape, strides), offs, len(offs))
    return offs


def _scatter(lo, shape, nlo, nshape):
    """Per leaf of the box (lo, shape), its flat position in the box
    (nlo, nshape), or -1 outside it."""
    plan = [0]
    for l, n, nl, m, st in zip(lo, shape, nlo, nshape,
                               _strides(tuple(nshape))):
        pos = [(i + l - nl) * st if 0 <= i + l - nl < m else -1
               for i in range(n)]
        plan = [-1 if p < 0 or k < 0 else p + k for p in plan for k in pos]
    return plan


def _runs(lo, shape, clo, cshape, dlo, dshape):
    """The box (lo, shape) clipped to the box (clo, cshape) and placed in
    the box (dlo, dshape) that holds the clip box, as runs (k, dst, src):
    k leaves from each flat position src[m] of the source to dst[m] of
    the destination.  A run spans the innermost levels that both boxes
    hold whole."""
    blo = [max(a, b) for a, b in zip(lo, clo)]
    bn = [min(a + n, b + m) - x
          for a, n, b, m, x in zip(lo, shape, clo, cshape, blo)]
    if min(bn) <= 0:
        return 0, [], []
    j = len(lo) - 1
    while j and bn[j] == shape[j] == dshape[j]:
        j -= 1
    k, outer = math.prod(bn[j:]), tuple(bn[:j])
    sst, dst = _strides(tuple(shape)), _strides(tuple(dshape))
    src = _offsets(outer, sst[:j], sum(map(mul, map(sub, blo, lo), sst)))
    dst = _offsets(outer, dst[:j], sum(map(mul, map(sub, blo, dlo), dst)))
    return k, dst, src


def _crop(c, lo, shape, nlo, nshape):
    """The leaves of box (nlo, nshape), taken from c on box (lo, shape)
    and zero outside it."""
    key = (tuple(map(sub, nlo, lo)), tuple(shape), tuple(nshape))
    plan = _PLANS.get(key)
    if plan is None:
        # per leaf, its flat position in c, or -1 (the zero appended
        # below) outside the box
        plan = _scatter(nlo, nshape, lo, shape)
        _remember(key, plan, len(plan))
    c = c + [0]
    return [c[p] for p in plan]


def _deep_exact(err):
    """Per level j, whether every level past j is exact."""
    out, exact = [], True
    for e in reversed(err):
        out.append(exact)
        exact = exact and e == INF
    return out[::-1]


def _empty(ring, lo, err):
    """An element without known nonzero leaves.  Below the deepest
    inexact level d its lows stay (the unknown coefficients of a deeper
    level sit at them); at d the low is err, past d nothing is left."""
    d = max((j for j, e in enumerate(err) if e != INF), default=-1)
    lo = tuple(l if j < d else (e if j == d else INF)
               for j, (l, e) in enumerate(zip(lo, err)))
    return Series(ring, lo, (0,) * len(lo), [], tuple(err))


def _trim(ring, lo, shape, c, err):
    """The element on box (lo, shape): cut at err, its zero slices
    stripped at the top of every level and at the bottom of the levels
    past which every level is exact."""
    cut = tuple(min(n, e - l) for n, l, e in zip(shape, lo, err))
    if min(cut) <= 0:
        return _empty(ring, lo, err)
    if cut != shape:
        c, shape = _crop(c, lo, shape, lo, cut), cut
    return _strip(ring, lo, shape, c, err)


def _live(c, k, m, inner):
    """Whether slice k of a level of extent m, with `inner` leaves per
    exponent of that level, holds a nonzero leaf of the flat box c."""
    if inner == 1:
        return any(c[k::m])
    return any(any(c[b:b + inner])
               for b in range(k * inner, len(c), m * inner))


def _strip(ring, lo, shape, c, err):
    """`_trim` of a box that lies below err: each level is scanned from
    its top slice down, and from its bottom slice up where every deeper
    level is exact, to its first slice with a nonzero leaf, so a box
    whose boundary slices are nonzero costs one slice per end."""
    if all(c):
        return Series(ring, tuple(lo), shape, c, tuple(err))
    if not any(c):
        return _empty(ring, lo, err)
    nlo, nshape, inner = [], [], len(c)
    for l, m, ok in zip(lo, shape, _deep_exact(err)):
        inner //= m
        top, bot = m, 0
        while not _live(c, top - 1, m, inner):
            top -= 1
        while ok and not _live(c, bot, m, inner):
            bot += 1
        nlo.append(l + bot)
        nshape.append(top - bot)
    nlo, nshape = tuple(nlo), tuple(nshape)
    if nlo != lo or nshape != shape:
        c = _crop(c, lo, shape, nlo, nshape)
    return Series(ring, nlo, nshape, c, tuple(err))


def _sum_plan(key, a, b):
    """The plan of a + b, stored under key: (lo, err, box, runs, offs,
    swap).  The sum's box starts at the per-level minima of the lows
    and is cut at the minima of the errs; box is None when that leaves
    nothing.  The term with more leaves (b when swap) is placed by
    `_runs`, the other's leaves added at offs (-1 past the box), None
    when it has no leaves."""
    err = tuple(map(min, a.err, b.err))
    lo = tuple(map(min, a.lo, b.lo))
    swap = len(a.coeffs) < len(b.coeffs)
    x, y = (b, a) if swap else (a, b)
    # the box of a term without leaves adds nothing
    z = y if y.coeffs else x
    box = x.coeffs and tuple(
        min(max(u + n, w + m), e) - l for u, n, w, m, e, l
        in zip(x.lo, x.shape, z.lo, z.shape, err, lo))
    if not box or min(box) <= 0:
        return _remember(key, (lo, err, None, None, None, False))
    runs = _runs(x.lo, x.shape, lo, box, lo, box)
    offs = _scatter(y.lo, y.shape, lo, box) if y.coeffs else None
    return _remember(key, (lo, err, box, runs, offs, swap),
                     len(runs[1]) + len(offs or ()))


class Series:
    """Element of a `Tower`: the leaves `coeffs` of the box with lowest
    exponents `lo` and extents `shape`, row-major with level 0 slowest,
    known below `err` at every level (see the module docstring).  An
    element with no leaves has shape all 0."""

    __slots__ = ("ring", "lo", "shape", "coeffs", "err")

    def __init__(self, ring, lo, shape, coeffs, err):
        self.ring, self.lo, self.shape = ring, lo, shape
        self.coeffs, self.err = coeffs, err

    def _coerce(self, other):
        if isinstance(other, Series):
            if other.ring is self.ring:
                return other
            raise TypeError("mixed series rings")
        if isinstance(other, (int, Fraction, float, complex)):
            return self.ring.const(other)
        return NotImplemented

    def __repr__(self):
        return (f"Series(lo={self.lo}, shape={self.shape}, "
                f"coeffs={self.coeffs!r}, err={self.err})")

    def __eq__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return not (self - other).coeffs

    __hash__ = None

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        if other.__class__ is not Series or other.ring is not self.ring:
            other = self._coerce(other)
            if other is NotImplemented:
                return NotImplemented
        key = ("+", *self.lo, *self.shape, *self.err,
               *other.lo, *other.shape, *other.err)
        lo, err, box, runs, offs, swap = (_PLANS.get(key)
                                          or _sum_plan(key, self, other))
        if box is None:
            return _empty(self.ring, lo, err)
        a, b = (other, self) if swap else (self, other)
        # a is placed by runs, b's leaves added one by one, those outside
        # the box into a last slot that is dropped
        out = [0] * (math.prod(box) + 1)
        ac = a.coeffs
        k, dst, src = runs
        for o, i in zip(dst, src):
            out[o:o + k] = ac[i:i + k]
        if offs:
            for o, v in zip(offs, b.coeffs):
                if v:
                    out[o] += v
        out.pop()
        return _strip(self.ring, lo, box, out, err)

    __radd__ = __add__

    def __neg__(self):
        return Series(self.ring, self.lo, self.shape,
                      [-c for c in self.coeffs], self.err)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if other.__class__ is not Series or other.ring is not self.ring:
            if isinstance(other, (int, Fraction, float, complex)):
                # a number scales the leaves
                x = _leaf(other)
                if not x:
                    return self.ring.zero()
                return Series(self.ring, self.lo, self.shape,
                              [x * c for c in self.coeffs], self.err)
            other = self._coerce(other)
            if other is NotImplemented:
                return NotImplemented
        key = ("*", *self.lo, *self.shape, *self.err,
               *other.lo, *other.shape, *other.err)
        lo, err, shape, swap, offa, obs, parts = (
            _PLANS.get(key) or _product_plan(key, self, other))
        if shape is None:
            return _empty(self.ring, lo, err)
        a, b = (other, self) if swap else (self, other)
        ac = a.coeffs
        if parts is None:
            # a monomial shifts the other factor, as an exact monomial
            # divisor does
            x = b.coeffs[0]
            return Series(self.ring, lo, shape, [x * c for c in ac], err)
        # each leaf x of b adds x times the leaves of a that land in the
        # box, each slot taking its terms in the order of b's leaves
        out = [0] * math.prod(shape)
        for x, ob, ia in zip(b.coeffs, obs, parts):
            if not x:
                continue
            if ia is None:
                for y, o in zip(ac, offa):
                    out[o + ob] += x * y
            else:
                for i in ia:
                    out[offa[i] + ob] += x * ac[i]
        return Series(self.ring, lo, shape, out, err)

    __rmul__ = __mul__

    def __truediv__(self, other):
        """self / other by the division recurrence over the box: the
        lex-leading leaf g_v of other is inverted once by `_invert`, and
        each further known term of other is one step of the recurrence.

        Per level j the quotient's box starts at lo_f - v_j + X_j, X_j <=
        0 the spread: min(0, lo_g - v_j) per step of an outer level times
        the steps the outer windows hold.  It knows err_f - v_j + X_j,
        and where other is inexact lo_f + err_g - 2 v_j + X_j.  Where
        other has terms past its leading one in level j, or is inexact
        there, the quotient also stops prec_j past the valuation, as a
        tower of nested series would row by row: past the highest
        valuation of a slice of the outer levels, less j (the zeros a
        Vandermonde of the outer variables leaves in the lowest slices
        need no window of their own).  The valuation of other is certain
        only where no zero slice with unknown deeper coefficients
        precedes its leading leaf; otherwise this raises PrecisionLoss.
        """
        if other.__class__ is not Series or other.ring is not self.ring:
            other = self._coerce(other)
            if other is NotImplemented:
                return NotImplemented
        f, g, ring = self, other, self.ring
        gc = g.coeffs
        # the divisor's nonzero leaves, the first its lex-leading one
        nz = tuple(compress(range(len(gc)), gc))
        key = ("/", nz, *f.lo, *f.shape, *f.err, *g.lo, *g.shape, *g.err,
               *ring.precs)
        need = _PLANS.get(key)
        if need is None:
            need = _division_head(key, f, g, nz)
        key = (key, _tops(f.shape, f.coeffs, need))
        lo, err, shape, size, runs, order, reach, out, trim = (
            _PLANS.get(key) or _division_plan(key, f, g, nz, need, ring.precs))
        r = _invert(gc[nz[0]])
        if order is None:
            if shape is None:
                return _empty(ring, lo, err)
            # an exact monomial: the quotient is f shifted, window and all
            return Series(ring, lo, shape, [c * r for c in f.coeffs], err)
        # f in the padded buffer, then each leaf in lex order adds c
        # times the leaf each step reaches back to and is scaled by r
        buf = [0] * size
        fc = f.coeffs
        k, dst, src = runs
        for o, i in zip(dst, src):
            buf[o:o + k] = fc[i:i + k]
        steps = [(d, -gc[p]) for d, p in zip(reach, nz[1:])]
        for p in order:
            acc = buf[p]
            for d, c in steps:
                acc += c * buf[p - d]
            buf[p] = acc if r == 1 else acc * r
        q = [buf[p] for p in out]
        if trim:
            return _trim(ring, lo, shape, q, err)
        return Series(ring, lo, shape, q, err)

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
        exists iff the lex-leading coefficient is known to be nonzero.
        Its window is prec coefficients past its valuation, or fewer
        when self knows fewer."""
        return self.ring.const(1) / self

    # -- extraction ---------------------------------------------------------

    def coefficient(self, k: int):
        """Coefficient of x^k, x the level-0 variable: a leaf on a
        one-level tower, else an element of the tower of the inner
        levels.  Raises PrecisionLoss past the window."""
        if k >= self.err[0]:
            raise PrecisionLoss(
                f"coefficient {self.ring.names[0]}^{k} beyond window "
                f"O(^{self.err[0]})")
        lo, n = self.lo[0], self.shape[0]
        if len(self.lo) == 1:
            if self.coeffs and lo <= k < lo + n:
                return self.coeffs[k - lo]
            return 0
        inner = self.ring.inner
        if k < lo:
            return inner.zero()
        if not self.coeffs or k >= lo + n:
            return _empty(inner, self.lo[1:], self.err[1:])
        st = len(self.coeffs) // n
        i = (k - lo) * st
        return _trim(inner, self.lo[1:], self.shape[1:],
                     self.coeffs[i:i + st], self.err[1:])

    def residue(self, order_bound=None):
        """Coefficient of x^(-1), x the level-0 variable.

        If `order_bound` is given, a nonzero coefficient below
        x^(-order_bound) raises OrderExceeded (the stated pole order was
        wrong, which in this package means an implementation bug).  A
        below-bound slice that is merely *unknown* to be zero (zero
        leaves, but inexact deeper levels) raises PrecisionLoss instead,
        so drivers retry with a wider tower.
        """
        lo, var = self.lo[0], self.ring.names[0]
        if order_bound is not None and self.coeffs and lo < -order_bound:
            st = len(self.coeffs) // self.shape[0]
            low = self.coeffs[:min(self.shape[0], -order_bound - lo) * st]
            if any(low):
                first = lo + next(i for i, x in enumerate(low) if x) // st
                raise OrderExceeded(
                    f"pole order {-first} in {var} exceeds bound {order_bound}")
            if any(e != INF for e in self.err[1:]):
                raise PrecisionLoss(f"cannot certify pole order bound "
                                    f"{order_bound} in {var} (window exhausted)")
        return self.coefficient(-1)


def _product_box(a, b):
    """(lo, err, shape) of the product a * b: the lows add, level j
    knows below min(err_a + lo_b, err_b + lo_a), and the box is the
    untruncated product's cut at err; shape is None when no leaf is
    left."""
    lo = tuple(map(add, a.lo, b.lo))
    err = tuple(map(min, map(add, a.err, b.lo), map(add, b.err, a.lo)))
    if not a.coeffs or not b.coeffs:
        return lo, err, None
    shape = tuple(min(m + n - 1, e - l)
                  for m, n, e, l in zip(a.shape, b.shape, err, lo))
    return lo, err, shape if min(shape) > 0 else None


def _product_plan(key, a, b):
    """The plan of a * b, stored under key: (lo, err, shape, swap, offa,
    obs, parts); shape is None when no leaf is left.  The factor with
    more leaves, a (b when swap), is placed at each leaf j of the other:
    its leaf i lands at offa[i] + obs[j] in the box cut at err.
    parts[j] lists the leaves i of a that land inside that box, None for
    all of them; the leaves j with one clip of a share its list.  parts
    is None when the other factor is one leaf that shifts a onto the
    whole box."""
    lo, err, shape = _product_box(a, b)
    # the one INF, so the elements and keys made from this err share it
    err = tuple(INF if e == INF else e for e in err)
    if shape is None:
        return _remember(key, (lo, err, None, False, None, None, None))
    swap = len(b.coeffs) > len(a.coeffs)
    if swap:
        a, b = b, a
    if len(b.coeffs) == 1 and shape == a.shape:
        return _remember(key, (lo, err, shape, swap, None, None, None))
    st = _strides(shape)
    clips, parts = {a.shape: None}, []
    for beta in product(*map(range, b.shape)):
        # the leaves of a at most shape - 1 - beta per level
        clip = tuple(map(min, a.shape, map(sub, shape, beta)))
        if clip not in clips:
            clips[clip] = (_offsets(clip, _strides(a.shape))
                           if min(clip) > 0 else ())
        parts.append(clips[clip])
    size = len(parts) + sum(map(len, filter(None, clips.values())))
    return _remember(key, (lo, err, shape, swap, _offsets(a.shape, st),
                           _offsets(b.shape, st), tuple(parts)), size)


def _tops(shape, c, need):
    """Per level j in `need`, ascending, the largest valuation in level
    j, from the box's low, of a slice of the levels below j with a
    nonzero leaf."""
    if not need:
        return ()
    tops, flags = [0] * len(shape), c
    for j in range(len(shape) - 1, need[0] - 1, -1):
        n = shape[j]
        if j in need:
            alive = [True] * (len(flags) // n)
            for i in range(n):
                col = flags[i::n]
                if any(compress(col, alive)):
                    tops[j] = i
                    alive = list(map(and_, alive, map(not_, col)))
                    if not any(alive):
                        break
        flags = [any(flags[o:o + n]) for o in range(0, len(flags), n)]
    return tuple(tops[j] for j in need)


def _divisor(g, nz):
    """(v, hs, levels) of a divisor g with nonzero leaves nz: v the
    exponent of its lex-leading leaf nz[0], hs the offset from v of each
    further nonzero leaf (one step of the recurrence each), levels
    their first nonzero levels.  Raises what a divisor without a certain
    leading leaf must."""
    if not nz:
        if all(e == INF for e in g.err):
            raise ZeroDenominator("division by the zero series")
        raise PrecisionLoss(f"division by O({g.err}) with no known terms")
    gst = _strides(g.shape)
    vrel = _index(nz[0], gst)
    for j, ok in enumerate(_deep_exact(g.err)):
        if vrel[j] and not ok:
            raise PrecisionLoss(
                "division by a leading coefficient not known to be nonzero")
    v = [l + i for l, i in zip(g.lo, vrel)]
    hs = [[i - u for i, u in zip(_index(p, gst), vrel)] for p in nz[1:]]
    return v, hs, {next(j for j, x in enumerate(h) if x) for h in hs}


def _division_head(key, f, g, nz):
    """The levels whose `_tops` of f the plan of f / g reads, stored
    under key."""
    _, _, levels = _divisor(g, nz)
    deep = _deep_exact(f.err)
    return _remember(key, tuple(
        j for j in range(len(g.lo)) if f.coeffs and deep[j]
        and (j in levels or g.err[j] != INF)))


def _division_plan(key, f, g, nz, need, precs):
    """The plan of f / g, stored under key, which ends with f's `_tops`
    on the levels `need`: (lo, err, shape, size, runs, order, reach,
    out, trim).  The quotient lies on the box (lo, shape) and knows
    below err; order is None for an exact monomial g (then shape is
    f's) and shape None for an empty quotient.  Otherwise the
    recurrence runs in a buffer of `size` leaves, its work box padded
    at every level by the steps' reach so that a step reaching below
    the box reads a zero: f enters by `_runs`, order lists the work
    box's leaves, reach each step's flat offset, and out the leaves of
    the quotient's box, which is then trimmed when trim is set."""
    v, hs, levels = _divisor(g, nz)
    tops = dict(zip(need, key[-1]))
    L = len(v)
    lo_f = tuple(l - u for l, u in zip(f.lo, v))
    err_f = tuple(e - u for e, u in zip(f.err, v))
    if not hs and all(e == INF for e in g.err):
        return _remember(key, (lo_f, err_f, f.shape if f.coeffs else None, 0,
                               None, None, None, None, False))
    deep = _deep_exact(f.err)
    lo, hi, err, top, held = [], [], [], [], 0
    for j in range(L):
        stepped = j in levels
        low = min(0, g.lo[j] - v[j]) * held
        known = err_f[j] + low
        if g.err[j] != INF:
            known = min(known, lo_f[j] + g.err[j] - v[j] + low)
        if stepped or g.err[j] != INF:
            known = min(known, lo_f[j] + precs[j]
                        + (max(0, tops.get(j, 0) - j) if deep[j] else 0))
        t = known - low
        if not stepped:
            t = min(t, lo_f[j] + f.shape[j]
                    + max(0, g.lo[j] + g.shape[j] - 1 - v[j]) * held)
        lo.append(lo_f[j] + low)
        err.append(known)
        top.append(t)
        hi.append(min(known, t))
        if stepped and lo[j] != INF:
            held += known - 1 - lo[j]
    lo, err = tuple(lo), tuple(err)
    if not f.coeffs or any(h <= l for l, h in zip(lo, hi)):
        return _remember(key, (lo, err, None, 0,
                               None, None, None, None, False))
    work = tuple(t - l for t, l in zip(top, lo))
    below = [max([h[j] for h in hs] + [0]) for j in range(L)]
    above = [max([-h[j] for h in hs] + [0]) for j in range(L)]
    pshape = tuple(k + x + y for k, x, y in zip(work, below, above))
    ps = _strides(pshape)
    start = sum(map(mul, below, ps))
    order = _offsets(work, ps, start)
    runs = _runs(lo_f, f.shape, lo, work, tuple(map(sub, lo, below)), pshape)
    reach = [sum(map(mul, h, ps)) for h in hs]
    trim = held and min(g.lo[j] - v[j] for j in range(L)) < 0
    shape = work if trim else tuple(h - l for h, l in zip(hi, lo))
    out = order if shape == work else _offsets(shape, ps, start)
    return _remember(key, (lo, err, shape, math.prod(pshape), runs, order,
                           reach, out, trim), len(order))


class Scaled:
    """(n/d) * e: a rational scalar, kept as the integers n and d > 0,
    times a tower element (or an int) e.

    `residue_drive` hands every integrand its variables as Scaled
    elements, so an integrand is written over the rationals while its
    towers stay on integer leaves and the scalars stay integer pairs,
    never reduced: a product multiplies numerators and denominators.  A
    sum brings its terms to the content of both scalars, the largest
    rational dividing them (one gcd), which leaves them integer
    multipliers (fraction-free, in the manner of Bareiss).  A quotient
    or an inverse pulls the lex-leading leaf of the divisor's e, the one
    leaf the division recurrence inverts, into the scalar, so the
    towers divide by a unit: a factor c (1 + sum_m p_m eps^m) has
    integer p_m when the variables are scaled as `eps_scale` chooses.
    Where the leading leaf does not divide e, e is divided by as it is
    and the quotient's leaves become Fractions.  The scalar becomes a
    Fraction once, with the residue (`iterated_residue`,
    `residue_drive`).  A rational n is taken apart into the pair.
    """

    __slots__ = ("n", "d", "e")

    def __init__(self, n, e, d=1):
        if n.__class__ is not int:
            n, d = n.numerator, n.denominator * d
        self.n, self.d, self.e = n, d, e

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
        return f"Scaled({self.n!r}/{self.d!r}, {self.e!r})"

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return other
        return Scaled(self.n * other.n, _times(self.e, other.e),
                      self.d * other.d)

    __rmul__ = __mul__

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return other
        if not other.n:
            return self
        if not self.n:
            return other
        d = self.d
        if d == other.d:
            x, y = self.n, other.n
        else:
            d = math.lcm(d, other.d)
            x, y = self.n * (d // self.d), other.n * (d // other.d)
        g = math.gcd(x, y)
        return Scaled(g, _times(self.e, x // g) + _times(other.e, y // g), d)

    __radd__ = __add__

    def __neg__(self):
        return Scaled(-self.n, self.e, self.d)

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
        cn, cd, u = other._unit()
        e = self.e if isinstance(self.e, Series) else u.ring.const(self.e)
        return _scaled(self.n * cd, e / u, self.d * cn)

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return other
        return other / self

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** (-n)
        return Scaled(self.n ** n, self.e ** n, self.d ** n)

    def inverse(self) -> "Scaled":
        e = self.e
        if not isinstance(e, Series):
            if not (self.n and e):
                raise ZeroDenominator("scalar division by zero")
            return Scaled(Fraction(self.d) / (self.n * e), 1)
        cn, cd, u = self._unit()
        return _scaled(cd, u.inverse(), cn)

    def _unit(self):
        """(cn, cd, u) with self = (cn/cd) * u for a tower u: u is e with
        its lex-leading leaf pulled into cn when that leaf divides every
        leaf of e (then u's leading leaf is 1), else e itself."""
        if not self.n:
            raise ZeroDenominator("inverse of the zero series")
        e = self.e
        lead = next((x for x in e.coeffs if x), None)
        unit = _divide_leaves(e, lead) if isinstance(lead, int) else None
        if unit is None:
            return self.n, self.d, e
        return self.n * lead, self.d, unit


def _scaled(n, e, d):
    """Scaled(n, e, d) with the sign of d moved into n."""
    return Scaled(-n, e, -d) if d < 0 else Scaled(n, e, d)


def _times(a, b):
    """a * b, skipping the multiplication by an int 1."""
    if isinstance(b, int) and b == 1:
        return a
    if isinstance(a, int) and a == 1:
        return b
    return a * b


def _divide_leaves(x, d):
    """x with every leaf divided by the int d, or None when a leaf is
    not an integer multiple of d."""
    if d == 1:
        return x
    out = []
    for c in x.coeffs:
        if c.__class__ is not int or c % d:
            return None
        out.append(c // d)
    return Series(x.ring, x.lo, x.shape, out, x.err)


def eps_scale(*ratios) -> int:
    """The least D with D q an integer for every ratio q = num/den
    given as an integer pair (num, den): the lcm of the reduced
    denominators, as the lattice sweep scales its weights.

    A route passes the ratios, to its constant term, of the linear
    coefficients of every factor it inverts, written at its contour
    centre; with z = centre + D eps each such factor is its constant
    times 1 + (integer polynomial in the eps's) (a coefficient of
    degree m carries D^m), and its inverse stays on integer leaves.
    """
    return math.lcm(1, *(abs(d) // math.gcd(n, d) for n, d in ratios))


def build_tower(varspecs):
    """Build a Laurent tower and its variable atoms.

    varspecs: list of (name, prec) pairs, *first entry = first-integrated
    variable* (level 0, the innermost/smallest contour).  Returns
    (ring, atoms) where atoms[name] is the generator of its level; with
    no variables the ring's `const` gives the leaf itself.
    """
    ring = Tower([name for name, _ in varspecs],
                 [prec for _, prec in varspecs])
    return ring, {name: ring.gen(j) for j, (name, _) in enumerate(varspecs)}


def iterated_residue(integrand, order_bounds=None):
    """Iterated residue of a tower element, or of the product of a pair
    (A, B) of elements of one tower, by contraction: the coefficient of
    eps^(-1, .., -1) in A*B is sum_e A_e B_(-1-e), one dot product of
    A's box against B's reversed (reversing the flat list reverses every
    level), and the product is never built.  Either may be `Scaled`; the
    scalars multiply the result, an int result is returned as a
    Fraction, and a single element is the pair (elem, 1).  `_residue`
    gives the same value as a numerator and an integer denominator.

    `order_bounds` optionally gives the pole-order bound per level.
    Each level raises what `Series.residue(bound)` on the formed product
    would: OrderExceeded for a definitely nonzero coefficient below the
    bound, PrecisionLoss for one only not known to vanish or when
    x^(-1) lies past the product's window.
    """
    return _exact(*_residue(integrand, order_bounds))


def _residue(integrand, order_bounds=None):
    """`iterated_residue` as (v, d): the residue of the towers times the
    numerators of the scalars, and the product of their denominators."""
    a, b = integrand if isinstance(integrand, tuple) else (integrand, 1)
    n = d = 1
    if isinstance(a, Scaled):
        n, d, a = a.n, a.d, a.e
    if isinstance(b, Scaled):
        n, d, b = n * b.n, d * b.d, b.e
    if not isinstance(a, Series):
        if not isinstance(b, Series):
            return n * a * b, d
        a = b.ring.const(a)
    elif not isinstance(b, Series):
        b = a.ring.const(b)
    return n * _contract(a, b, list(order_bounds or ())), d


def _walk(x, bounds):
    """Series.residue level by level, the product path."""
    level = 0
    while isinstance(x, Series):
        x = x.residue(bounds[level] if level < len(bounds) else None)
        level += 1
    return x


def _contract(a, b, bounds):
    """The residue of a * b, level by level as `_walk` on the formed
    product would take it, by one dot product.  A level whose bound the
    lows of the pair do not certify is left to `_walk` on the product,
    which forms the slices below the bound and checks them."""
    ring, L = a.ring, len(a.lo)
    bounds = bounds + [None] * (L - len(bounds))
    lo, err, shape = _product_box(a, b)
    if shape is None:
        return _walk(_empty(ring, lo, err), bounds)
    sub = ring
    for j in range(L):
        if bounds[j] is not None and lo[j] < -bounds[j]:
            return _walk(a * b, bounds)
        if -1 >= err[j]:
            raise PrecisionLoss(
                f"coefficient {ring.names[j]}^-1 beyond window O(^{err[j]})")
        if -1 < lo[j] or (-1 >= lo[j] + shape[j] and j == L - 1):
            return 0
        if -1 >= lo[j] + shape[j]:
            return _walk(_empty(sub.inner, lo[j + 1:], err[j + 1:]),
                         bounds[j + 1:])
        if j < L - 1:
            sub = sub.inner
    # the overlap of A's box with the reflection of B's, per level
    alo = [max(la, -lb - n) for la, lb, n in zip(a.lo, b.lo, b.shape)]
    ahi = [min(la + m, -lb) for la, m, lb in zip(a.lo, a.shape, b.lo)]
    ashape = [h - l for l, h in zip(alo, ahi)]
    ax = _crop(a.coeffs, a.lo, a.shape, alo, ashape)
    bx = _crop(b.coeffs, b.lo, b.shape, [-h for h in ahi], ashape)
    return sum(map(mul, ax, reversed(bx)))


def _exact(v, d=1):
    """v / d as the Fraction every exact route returns, for an int v (a
    Fraction or complex v is divided as it is)."""
    if isinstance(v, int):
        return Fraction(v, d)
    return v / d if d != 1 else v


def residue_drive(specs, build, scale=1, pref=(1, 1)):
    """Adaptive iterated-residue evaluation.

    specs: one (center, order_bound) pair per variable, first entry
    integrated first (innermost contour).  `build(vars, ring)` gets the
    shifted variables in spec order, the j-th center_j + scale * eps_j
    as a `Scaled` element over the atom of level j, and returns the
    integrand as an element or as a pair (A, B) whose product it is,
    contracted by `iterated_residue` without forming A*B; the residue in
    z is `scale` times that in eps, once per variable.  A route picks
    `scale` with `eps_scale` so that every factor it inverts is a unit
    on the integer-leaf tower.  `pref`, an integer pair (num, den),
    multiplies the result, which is made a Fraction once, at the end.

    The first tower opens each level's window at its order bound b (at
    least 2).  A pairing past a window, or a below-bound coefficient not
    known to vanish, raises PrecisionLoss, and the driver doubles every
    window and rebuilds, up to RESIDUE_TRIES towers; a definitely nonzero
    coefficient below a bound raises OrderExceeded at once.
    """
    bounds = [b for _, b in specs]
    precs = [max(2, b) for b in bounds]
    names = [f"eps{j}" for j in range(len(specs))]
    for _ in range(RESIDUE_TRIES):
        ring, atoms = build_tower(list(zip(names, precs)))
        shifted = [Scaled(scale, atoms[nm]) + c
                   for nm, (c, _) in zip(names, specs)]
        try:
            v, d = _residue(build(shifted, ring), bounds)
        except PrecisionLoss:
            precs = [2 * p for p in precs]
            continue
        return _exact(pref[0] * scale ** len(specs) * v, pref[1] * d)
    raise PrecisionLoss(f"residue_drive did not stabilize at precs={precs}")


# ---------------------------------------------------------------------------
# small determinants
# ---------------------------------------------------------------------------

def poly_det(matrix):
    """Determinant of a small square matrix over a commutative ring
    (multivariate polynomials, tower elements, numbers), by cofactor
    expansion."""
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


# ---------------------------------------------------------------------------
# separable determinants on the tower
# ---------------------------------------------------------------------------

def _pmul(a, b, hi=INF):
    """Product of two univariate Laurent polynomials over any ring,
    exponents below hi; a zero coefficient of a adds nothing, so an
    entry no nonzero pair reaches stays the int 0."""
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


def _tower_point(p):
    """Read a point of a separable determinant: (ring, level, poly, den)
    with p = poly(eps) / den for eps the variable of level `level` of
    the tower `ring`, poly an exact univariate Laurent polynomial (with
    integer coefficients on integer leaves: the numerator of a `Scaled`
    scalar goes into them, its denominator is den); (None, None, (0,
    [p]), 1) for a number.  Takes numbers, Series and `Scaled` elements;
    raises TypeError for a tower element that is not an exact
    polynomial in one variable."""
    n, d, e = (p.n, p.d, p.e) if isinstance(p, Scaled) else (1, 1, p)
    if not isinstance(e, Series):
        return None, None, (0, [_exact(n * e, d) if d != 1 else n * e]), 1
    if any(x != INF for x in e.err):
        raise TypeError("not an exact polynomial in one tower variable")
    spread = [j for j, (l, m) in enumerate(zip(e.lo, e.shape)) if l or m > 1]
    if not e.coeffs or not spread:
        c = n * e.coeffs[0] if e.coeffs else 0
        return None, None, (0, [_exact(c, d) if d != 1 else c]), 1
    if len(spread) > 1:
        raise TypeError("not an exact polynomial in one tower variable")
    j = spread[0]
    return e.ring, j, (e.lo[j], [n * c for c in e.coeffs]), d


def _content(values):
    """((g, q), ints) with values = (g/q) * ints for rational values, the
    ints coprime integers and g, q > 0 coprime; ((1, 1), zeros) when
    every value is 0.  Integer values take one gcd."""
    q = math.lcm(*(v.denominator for v in values))
    ns = [v.numerator * (q // v.denominator) for v in values] if q != 1 \
        else [v.numerator for v in values]
    g = math.gcd(*ns)
    if not g:
        return (1, 1), ns
    return (g, q), [v // g for v in ns] if g != 1 else ns


class Line:
    """One column of a separable determinant: entry i is
    (kn/kd) * sum_m rows[i][m] eps^(lo + m) + O(eps^err), eps the
    variable of level `level` of the tower `top`; the rows are integer
    lists of one length, the content an integer pair (kn, kd), never
    reduced."""

    __slots__ = ("kn", "kd", "top", "level", "lo", "rows", "err")

    def __init__(self, kn, kd, top, level, lo, rows, err):
        self.kn, self.kd, self.top, self.level = kn, kd, top, level
        self.lo, self.rows, self.err = lo, rows, err

    def moved(self, top, level):
        """This line on level `level` of the tower `top`, whose window is
        no wider than the one it was made for: the rows cut to that
        window and brought to integer content again, err the cut when
        anything lies past it.  Equals the line `_point_line` makes
        there."""
        if top is self.top and level == self.level:
            return self
        w = top.precs[level]
        kn, rows, err = self.kn, self.rows, self.err
        if err != INF or any(any(row[w:]) for row in rows):
            err = self.lo + w
        if rows and len(rows[0]) > w:
            (g, _), flat = _content([c for row in rows for c in row[:w]])
            rows = [flat[i * w:(i + 1) * w] for i in range(len(rows))]
            kn *= g
        return Line(kn, self.kd, top, level, self.lo, rows, err)


def _point_line(point, polys, k=1, div=None, kd=1):
    """The line of entries (k/kd) * polys[i] / div[0]^div[1] at a point
    read by `_tower_point` (its ring and level): a `Line` cut to its
    level's window, or at a number point the numbers (k/kd) * polys[i],
    constant polynomials there.

    polys are exact univariate Laurent polynomials in the point's eps,
    div an optional (integer polynomial, power) pair, taken at tower
    points only.  Kept are the exponents below v + prec, v the line's
    valuation and prec the window of its tower level; the line is
    exact (err = inf) when that cuts nothing and no divisor leaves a
    series.  A divisor with one term is a shift; any other is inverted
    as a power series in integer arithmetic (q_j scaled by u_0^(j+1)),
    so the window is always finite there.  The content of the rows and
    the divisor's leading powers go into the line's integer pair.
    """
    top, level = point[0], point[1]
    if top is None:
        k = _exact(k, kd) if kd != 1 else k
        return [k * (p[1][0] if p[1] else 0) for p in polys]
    d = None
    if div is not None and div[1]:
        (dlo, d), power = div
        j = next(i for i, c in enumerate(d) if c)
        dlo, d = dlo + j, d[j:]
        polys = [(lo - dlo * power, cs) for lo, cs in polys]
        if len(d) == 1:
            kd *= d[0] ** power
            d = None
    lows = [lo + next(i for i, c in enumerate(cs) if c)
            for lo, cs in polys if any(cs)]
    if not lows:
        return Line(1, 1, top, level, 0, [[] for _ in polys], INF)
    lo = min(lows)
    w = top.precs[level]
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
        kd *= u[0] ** w
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
    (g, q), flat = _content([c for row in rows for c in row])
    rows = [flat[i * width:(i + 1) * width] for i in range(len(rows))]
    return Line(k * g, kd * q, top, level, lo, rows, err)


def _lincomb(terms, size):
    """sum c x over pairs (int c, list x of `size` leaves)."""
    acc = None
    for c, x in terms:
        if acc is None:
            acc = x if c == 1 else [c * y for y in x]
        elif c == 1:
            acc = list(map(add, acc, x))
        else:
            acc = [u + c * y for u, y in zip(acc, x)]
    return [0] * size if acc is None else acc


def line_det(lines):
    """det M for the square matrix whose j-th column is lines[j]: a list
    of numbers, or a `Line` on one tower level, no two on one level.

    The determinant's box has, at the level of each tower line, the
    line's low, width and err, and extent 1 elsewhere.  It is assembled
    column by column, the tower lines outermost first and the number
    columns last, by Laplace expansion along the columns with the minors
    memoized by their set of rows: the block of the minor on rows R of
    the columns from j on at exponent e of column j is sum_(i in R) +-
    c_(i,e) times the flat minor on R - {i} of the columns after j.  A
    number column is a column of width one, a list of rationals whose
    content `_content` moves into the scalar.  So the only tower
    operations are integer times list and list plus list, and the
    contents form the `Scaled` scalar, an integer pair.  Returns a
    `Scaled` element, or a Fraction when every line is numbers.
    """
    s = len(lines)
    tower = sorted((j for j in range(s) if isinstance(lines[j], Line)),
                   key=lambda j: lines[j].level)
    order = tower + [j for j in range(s) if not isinstance(lines[j], Line)]
    m = len(tower)
    lines = [lines[j] for j in order]
    top = lines[0].top if m else None
    levels = [c.level for c in lines[:m]]
    if any(c.top is not top for c in lines[:m]) or len(set(levels)) < m:
        raise ValueError("lines must lie on distinct levels of one tower")
    if any(not c.rows[0] for c in lines[:m]):
        return Scaled(1, top.zero())
    kn, kd, cols = _perm_sign(order), 1, []
    for c in lines:
        if isinstance(c, Line):
            kn, kd = kn * c.kn, kd * c.kd
            cols.append(c.rows)
            continue
        (g, q), c = _content(c)
        kn, kd = kn * g, kd * q
        cols.append([[x] for x in c])
    sizes = [1] * (s + 1)
    for j in range(s - 1, -1, -1):
        sizes[j] = sizes[j + 1] * len(cols[j][0])
    minors = {}

    def minor(j, mask):
        # the flat minor of the columns from j on, on the rows in mask
        if j == s:
            return [1]
        key = (j, mask)
        if key not in minors:
            rows, inner, odd = cols[j], [], False
            for i in range(s):
                if mask >> i & 1:
                    inner.append((rows[i], odd, minor(j + 1, mask ^ (1 << i))))
                    odd = not odd
            out = []
            for e in range(len(rows[0])):
                out += _lincomb([(-row[e] if odd else row[e], x)
                                 for row, odd, x in inner if row[e]],
                                sizes[j + 1])
            minors[key] = out
        return minors[key]

    flat = minor(0, (1 << s) - 1)
    if not m:
        return _exact(kn * flat[0], kd)
    L = len(top.precs)
    lo, shape, err = [0] * L, [1] * L, [INF] * L
    for c in lines[:m]:
        lo[c.level], shape[c.level], err[c.level] = c.lo, len(c.rows[0]), c.err
    return _scaled(kn, _trim(top, tuple(lo), tuple(shape), flat, tuple(err)),
                   kd)
