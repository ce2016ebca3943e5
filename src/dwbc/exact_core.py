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
Knuth, TAOCP vol. 2, sec. 4.5.1).  An int leaf is inverted only as a
unit, +-1; any other raises ValueError.

Division is one kernel, `_divide`: a tower element divided by a chain
of divisors by the power-series division recurrence (Knuth, TAOCP vol.
2, sec. 4.7), over the box in lexicographic level order, outermost
level first: q_e = (f_e - sum_h g_(v+h) q_(e-h)) / g_v, v the divisor's
lex-leading exponent, one step per known divisor term, so the 2- to
4-term factors the routes divide by cost size(f) * terms(g).  The
dividend is placed once in one padded buffer and each divisor's
recurrence runs over it in place, one pass each.  `Series.__truediv__`
is a chain of one.  `_pair_divide` is the chain of the pair factors p
z_j z_k - q z_j + r of the residue integrands: at the variables
`residue_drive` hands out, each is an integer constant, which goes
into the `Scaled` pair, times a unit 1 + alpha eps_j + beta eps_k +
gamma eps_j eps_k with integer coefficients, so no divisor `Series` is
built.  Where a divisor has terms past its leading one, or is inexact,
the quotient knows min(window, prec) coefficients past the valuation,
the window being the divisor's known span; an exact monomial only
shifts the dividend, so 1/eps is exact.  A divisor such as 1 - w_j/w_l,
whose leading term has exponents of mixed sign, makes the quotient
reach lower in the inner variable with every outer step: its box
extends downward there by the outer steps times that spread, read from
the divisor's exponents.  Extraction past a window raises
PrecisionLoss, so drivers retry with a wider tower.  Nothing is ever
rounded.  The nesting order also disambiguates iterated contours around
variable-dependent poles: 1/(w_l - w_j) expands in powers of w_j/w_l
exactly when w_j sits above w_l in the tower.

What an operation works out from its operands' boxes alone is a plan,
computed once per key and kept in one store of at most PLAN_CAP (4096)
plans and PLAN_POSITIONS (65536) positions in all, emptied when full.
A division's key is the dividend's lo, shape and err, the tower's precs
and what each divisor's steps and box are read from: a `Series`
divisor's nonzero leaf positions and box, a pair unit's levels and
nonzero terms; so every dividend on one box shares a plan.  Its plan
holds the quotient's lo, err and box, the padded buffer and per pass
the leaf order and step reaches, while the divisors' leading leaves are
inverted and their step coefficients read on every call.  A sum's key
is the lo, shape and err of both terms, its plan the placement of each
in the sum's box cut at err.  A product's key is the lo, shape and err
of both factors; its plan holds the product's lo, err and box, which
factor is placed, and per leaf of the other only the leaves of the
placed factor that land inside the box cut at err, with where they
land, so a product forms no leaf that a window drops.  Every operation
keeps its crops in the same store.  No leaf value enters a plan, so the
first operation on a shape pays the set-up and every later one a
lookup.

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
`_tower_point` reads a point's polynomial; a column's entries are
integer polynomials in that variable packed into integers at 2^B
(`_pack`, Kronecker's substitution), and `_packed_line` keeps the
exponents of the level's window, prec past the column's valuation,
marking with `err` what that cuts.  `line_det` assembles the box with
no tower product: one line on s levels, an alternant, from its signed
maximal minors; other columns by one Laplace recursion, a number
column one of width one, each minor the alternating sum of outer
products of a row of its first column with the memoized minors of the
rest.
A window too short for the residue raises PrecisionLoss like any
other, so it shows as a retry of `residue_drive`, never a wrong value.

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
from itertools import combinations, compress, permutations, product
from operator import add, lt, mul, neg, sub

from .errors import OrderExceeded, PrecisionLoss, ZeroDenominator
from .rational import (ExactPoly, _horner, _perm_sign,  # noqa: F401
                       as_fraction, format_rational, parse_rational)

INF = math.inf

# default relative tolerance for every approximate (complex double) check
DEFAULT_RTOL = 1e-9

# towers `residue_drive` builds, each window doubled, before it gives up
RESIDUE_TRIES = 6


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
    an int +-1 is its own, any other int raises ValueError (`Scaled`
    pulls it into its scalar first)."""
    if x == 0:
        raise ZeroDenominator("scalar division by zero")
    if isinstance(x, int):
        if x in (1, -1):
            return x
        raise ValueError(f"int leaf {x} inverted: not a unit")
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
# both factors), divisions by one led by "/" (`_division_plan`; a
# `Series` divisor's nonzero leaf positions or the pattern of the pair
# units, the boxes and the precs), alternants by ("alternant", s, w).  A
# plan is counted by the positions it holds (an alternant's by its
# minors), what planning it afresh would cost.  The store holds at most
# PLAN_POSITIONS of them in all, as `lattice_oracle._IndexStore` bounds
# its entries, and PLAN_CAP plans; it is emptied when a plan would take
# it past either, and a plan larger than PLAN_POSITIONS is made, used
# and dropped.
PLAN_CAP = 4096
PLAN_POSITIONS = 1 << 16
_PLANS = {}
_held = 0


def _remember(key, plan, size=0):
    """Store plan under key, its `size` positions counted toward
    PLAN_POSITIONS, and return it."""
    global _held
    if size <= PLAN_POSITIONS:
        if not _PLANS or len(_PLANS) >= PLAN_CAP \
                or _held + size > PLAN_POSITIONS:
            _PLANS.clear()
            _held = 0
        _PLANS[key] = plan
        _held += size
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
        """self / other, a chain of one divisor for `_divide`: the
        lex-leading leaf g_v of other is inverted once by `_invert`, and
        each further known term of other is one step of the recurrence.
        The quotient's box is `_quotient_box`'s, from the two boxes
        alone, so one plan serves every dividend on a box.  The
        valuation of other is certain only where no zero slice with
        unknown deeper coefficients precedes its leading leaf; otherwise
        this raises PrecisionLoss.
        """
        if other.__class__ is not Series or other.ring is not self.ring:
            other = self._coerce(other)
            if other is NotImplemented:
                return NotImplemented
        ring, gc = self.ring, other.coeffs
        # the divisor's nonzero leaves, the first its lex-leading one
        nz = tuple(compress(range(len(gc)), gc))
        key = ("/", nz, *self.lo, *self.shape, *self.err, *other.lo,
               *other.shape, *other.err, *ring.precs)
        plan = _PLANS.get(key) or _division_plan(
            key, self, [_divisor(other, nz)], ring.precs)
        return _divide(ring, self, plan, [[-gc[p] for p in nz[1:]]],
                       _invert(gc[nz[0]]))

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


def _divisor(g, nz):
    """(v, hs, box) of a divisor g with nonzero leaves nz: v the exponent
    of its lex-leading leaf nz[0], hs the offset from v of each further
    nonzero leaf (one step of the recurrence each), box its (lo, shape,
    err).  Raises what a divisor without a certain leading leaf must."""
    if not nz:
        if all(e == INF for e in g.err):
            raise ZeroDenominator("division by the zero series")
        raise PrecisionLoss(f"division by O({g.err}) with no known terms")
    gst = _strides(g.shape)
    vrel = _index(nz[0], gst)
    if any(i and not ok for i, ok in zip(vrel, _deep_exact(g.err))):
        raise PrecisionLoss(
            "division by a leading coefficient not known to be nonzero")
    v = [l + i for l, i in zip(g.lo, vrel)]
    hs = [[i - u for i, u in zip(_index(p, gst), vrel)] for p in nz[1:]]
    return v, hs, (g.lo, g.shape, g.err)


def _quotient_box(fbox, gbox, v, hs, precs):
    """(lo, err, top, held): the box of the quotient of a dividend on
    fbox by a divisor on gbox, each a triple (lo, shape, err), v the
    divisor's lex-leading exponent and hs its steps (`_divisor`).

    Per level j the quotient starts at lo_f - v_j + X_j, X_j <= 0 the
    spread: min(0, lo_g - v_j) per step of an outer level times the
    outer steps the windows hold (held).  It knows below err_f - v_j +
    X_j, and where the divisor is inexact below lo_f + err_g - 2 v_j +
    X_j.  Where the divisor steps in level j, or is inexact there, the
    quotient also stops at lo_f - v_j + prec_j, prec_j past the
    valuation, so no leaf of the dividend decides the box.  The
    recurrence runs up to top and the quotient is cut at min(top,
    err)."""
    box, held = [], 0
    levels = {next(j for j, x in enumerate(h) if x) for h in hs}
    for j, (lf, n, ef, gl, gn, ge, u, prec) in enumerate(zip(
            *fbox, *gbox, v, precs)):
        lf, ef, stepped = lf - u, ef - u, j in levels
        low = min(0, gl - u) * held
        known = ef + low
        if stepped or ge != INF:
            known = min(known, lf + ge - u + low, lf + prec)
        t = known - low
        if not stepped:
            t = min(t, lf + n + max(0, gl + gn - 1 - u) * held)
        box.append((lf + low, known, t))
        if stepped and lf + low != INF:
            held += known - 1 - lf - low
    return (*zip(*box), held)


def _division_plan(key, f, divisors, precs):
    """The plan of f divided by a chain of divisors, each (v, hs, box)
    as `_divisor` gives it, from boxes alone; stored under key: (lo,
    err, shape, size, runs, passes, out, trim).  The quotient lies on
    the box (lo, shape), shape None when it is empty, and knows below
    err.

    An exact monomial divisor shifts the box, window and all, and takes
    no pass; when no divisor takes one, runs is None.  Every other
    divisor's box is `_quotient_box` of the box before it, as its
    `Series` division would take it, and its recurrence runs over that
    box in one pass.  The buffer of `size` leaves holds the hull of the
    passes' boxes, each box placed where its exponents sit in f (a
    divisor's v shifts the exponents), padded at every level by the
    steps' reach, so that a step reaching outside a box reads a zero;
    f enters it by `_runs`, cut to the first pass's box.  passes lists
    per pass its box's leaves in lex order and each step's flat reach,
    out the leaves of the quotient's box, which is trimmed when trim is
    set: the box of a divisor of mixed sign runs below its leaves, so
    such a divisor ends its chain.

    In place equals the chain of divisions for the pair units of
    `_pair_divide`, which keep the low: a level's box shrinks only where
    a unit steps in it, to its window, its err from then on, and no
    later box passes that err, so every leaf a box takes that the box
    before it did not hold is still the buffer's zero, as the next
    division would read it."""
    L = len(f.lo)
    lo, shape, err, full = f.lo, f.shape, f.err, bool(f.coeffs)
    at, boxes, trim = (0,) * L, [], False
    for v, hs, gbox in divisors:
        at = tuple(map(add, at, v))
        if hs or any(e != INF for e in gbox[2]):
            lo, err, top, held = _quotient_box((lo, shape, err), gbox, v,
                                               hs, precs)
            hi = list(map(min, top, err))
            trim = held and min(map(sub, gbox[0], v)) < 0
            full = full and all(map(lt, lo, hi))
            shape = tuple(map(sub, top if trim else hi, lo))
            if full:
                boxes.append((tuple(map(add, lo, at)),
                              tuple(map(sub, top, lo)), hs))
        else:
            lo, err = tuple(map(sub, lo, v)), tuple(map(sub, err, v))
        if not full:
            x = _empty(None, lo, err)
            lo, shape, err = x.lo, x.shape, x.err
    if not (full and boxes):
        return _remember(key, (lo, err, shape if full else None, 0, None,
                               (), None, False))
    reach = [h for _, _, hs in boxes for h in hs]
    below = [max([h[j] for h in reach] + [0]) for j in range(L)]
    base = [min(b[0][j] for b in boxes) - below[j] for j in range(L)]
    pshape = tuple(max(b[0][j] + b[1][j] for b in boxes) - base[j]
                   + max([-h[j] for h in reach] + [0]) for j in range(L))
    ps, orders = _strides(pshape), {}
    out = (tuple(map(add, lo, at)), shape)
    for box in [b[:2] for b in boxes] + [out]:
        if box not in orders:
            orders[box] = _offsets(box[1], ps,
                                   sum(map(mul, map(sub, box[0], base), ps)))
    passes = [(orders[b[:2]], tuple(sum(map(mul, h, ps)) for h in b[2]))
              for b in boxes]
    return _remember(key, (lo, err, shape, math.prod(pshape),
                           _runs(f.lo, f.shape, *boxes[0][:2], base, pshape),
                           passes, orders[out], trim),
                     sum(map(len, orders.values())))


def _divide(ring, f, plan, coefs, r=1):
    """f divided by the chain of divisors of `plan` (`_division_plan`):
    coefs holds per pass the negated coefficients of its steps, and r
    is the inverse of the leading leaf, which a chain's divisors share
    (a pair unit's is 1).  Each leaf of a pass adds each coefficient
    times the leaf its step reaches back to, in the order of the steps,
    and is then scaled by r: ((f_e - g_1 q_1) - g_2 q_2 - ..) r, the
    order a complex leaf rounds in."""
    lo, err, shape, size, runs, passes, out, trim = plan
    if shape is None:
        return _empty(ring, lo, err)
    if runs is None:
        # exact monomials: the quotient is f shifted, window and all
        return Series(ring, lo, shape, [c * r for c in f.coeffs], err)
    buf, (k, dst, src), fc = [0] * size, runs, f.coeffs
    for o, i in zip(dst, src):
        buf[o:o + k] = fc[i:i + k]
    for (order, reach), cs in zip(passes, coefs):
        n = len(cs) if r == 1 else 0
        if n == 1:
            (da,), (x,) = reach, cs
            for i in order:
                buf[i] += x * buf[i - da]
        elif n == 2:
            (da, db), (x, y) = reach, cs
            for i in order:
                buf[i] = buf[i] + x * buf[i - da] + y * buf[i - db]
        elif n == 3:
            (da, db, dc), (x, y, z) = reach, cs
            for i in order:
                buf[i] = (buf[i] + x * buf[i - da] + y * buf[i - db]
                          + z * buf[i - dc])
        else:
            steps = list(zip(reach, cs))
            for i in order:
                acc = buf[i]
                for d, c in steps:
                    acc += c * buf[i - d]
                buf[i] = acc if r == 1 else acc * r
    q = list(map(buf.__getitem__, out))
    if trim:
        return _trim(ring, lo, shape, q, err)
    return Series(ring, lo, shape, q, err)


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
    An int leading leaf that does not divide every leaf of e raises
    ValueError; a Fraction or complex one stays in e.  The scalar
    becomes a Fraction once, with the residue (`iterated_residue`,
    `residue_drive`).  A rational n is taken apart into the pair.
    """

    __slots__ = ("n", "d", "e", "_point")

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
        its lex-leading leaf pulled into cn when that leaf is an int
        (then u's leading leaf is 1), else e itself.  An int leaf that
        does not divide every leaf of e raises ValueError."""
        if not self.n:
            raise ZeroDenominator("inverse of the zero series")
        e = self.e
        lead = next((x for x in e.coeffs if x), None)
        if not isinstance(lead, int) or lead == 1:
            return self.n, self.d, e
        if any(c.__class__ is not int or c % lead for c in e.coeffs):
            raise ValueError(f"{lead} does not divide every leaf of {e!r}")
        return self.n * lead, self.d, Series(
            e.ring, e.lo, e.shape, [c // lead for c in e.coeffs], e.err)


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


def _pair_divide(f, zs, p, q, r, pairs):
    """f / prod (p z_j z_k - q z_j + r) over the index pairs (j, k), for
    integers p, q, r and z's as `residue_drive` hands them out, each
    linear in its own tower level: one chain of units for `_divide`.

    At z_j = (u_j + v_j eps_j)/d_j a pair factor times d_j d_k is K (1 +
    alpha eps_j + beta eps_k + gamma eps_j eps_k), K = p u_j u_k - q u_j
    d_k + r d_j d_k, and the eps_scale of the routes makes alpha, beta
    and gamma integers.  K and the d's go into the `Scaled` pair; each
    unit's nonzero terms are its steps, at offsets read from its levels
    without building it.  The quotient is that of the chain of `Series`
    divisions by the pair factors in turn: box, leaves and scalar value.
    A K of 0, or one that does not divide the terms, raises
    ValueError."""
    f, pts = Scaled._coerce(f), []
    for z in zs:
        # z = (u + v eps)/den, eps the variable of its level
        top, level, (lo, cs), den = _tower_point(z)
        if top is None or lo < 0 or lo + len(cs) > 2:
            raise TypeError("a pair factor needs variables linear in one "
                            "tower variable")
        pts.append((top, level, *([0] * lo + cs + [0])[:2], den))
    ring = pts[0][0]
    e = f.e if isinstance(f.e, Series) else ring.const(f.e)
    if any(x[0] is not ring for x in pts) or e.ring is not ring:
        raise ValueError("pair factors on mixed towers")
    n, d, pattern, coefs = f.n, f.d, [], []
    for j, k in pairs:
        _, lj, uj, vj, dj = pts[j]
        _, lk, uk, vk, dk = pts[k]
        if lj == lk:
            raise ValueError("pair variables on one tower level")
        x = p * uk - q * dk
        K = uj * x + r * dj * dk
        terms = (vj * x, p * uj * vk, p * vj * vk)
        if not K or any(t % K for t in terms):
            raise ValueError(f"pair factor {K} + {terms} in eps_j, eps_k, "
                             "eps_j eps_k is no constant times a unit")
        # the unit's steps, as the levels each term raises
        pattern.append(tuple(h for h, t in zip(((lj,), (lk,), (lj, lk)),
                                               terms) if t))
        coefs.append([-t // K for t in terms if t])
        n, d = n * dj * dk, d * K
    key = ("/", tuple(pattern), e.lo, e.shape, e.err, ring.precs)
    plan = _PLANS.get(key)
    if plan is None:
        L, units = len(e.lo), []
        for hs in pattern:
            hs = [[int(m in h) for m in range(L)] for h in hs]
            shape = [1 + any(h[m] for h in hs) for m in range(L)]
            units.append(((0,) * L, hs, ((0,) * L, shape, (INF,) * L)))
        plan = _division_plan(key, e, units, ring.precs)
    return _scaled(n, _divide(ring, e, plan, list(filter(None, coefs))), d)


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


def _shifted(ring, level, atom, scale, c):
    """c + scale * atom for the atom of level `level` and an int or
    Fraction c, as the `Scaled` element that `Scaled(scale, atom) + c`
    is: (cn + cd scale eps) / cd, the gcd of its two terms in the
    scalar."""
    if not c:
        return Scaled(scale, atom)
    x, y = scale * c.denominator, c.numerator
    g, L = math.gcd(x, y), len(ring.precs)
    return Scaled(g, Series(ring, (0,) * L, (1,) * level + (2,) + (1,) * (
        L - 1 - level), [y // g, x // g], (INF,) * L), c.denominator)


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
        shifted = [_shifted(ring, j, atoms[nm], scale, c)
                   for j, (nm, (c, _)) in enumerate(zip(names, specs))]
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
    expansion (`_minor`)."""
    return _minor(matrix, tuple(range(len(matrix))), {})


def _minor(rows, S, memo):
    """The minor of the last len(S) rows on the columns S, by cofactor
    expansion along its first row, each of its minors made once: memo
    holds them by their columns, so one memo serves every maximal minor
    of a wide matrix."""
    k = len(rows) - len(S)
    if len(S) < 2:
        return rows[k][S[0]] if S else Fraction(1)
    if S not in memo:
        acc = rows[k][S[0]] * _minor(rows, S[1:], memo)
        for i in range(1, len(S)):
            t = rows[k][S[i]] * _minor(rows, S[:i] + S[i + 1:], memo)
            acc = acc + (-t if i % 2 else t)
        memo[S] = acc
    return memo[S]


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
    lo, out = p[0], [k * x for x in p[1]]
    if lo > 0:
        return 0, [c] + [0] * (lo - 1) + out
    out += [0] * (1 - lo - len(out))
    out[-lo] += c
    return lo, out


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
    polynomial in one variable.  A `Scaled` point keeps what is read of
    it (`Scaled` elements are never changed), so the factors, the pair
    factors and the determinants of one integrand read each variable
    once; the caller does not change the lists."""
    if p.__class__ is Scaled:
        try:
            return p._point
        except AttributeError:
            p._point = out = _read_point(p.n, p.d, p.e)
            return out
    return _read_point(1, 1, p)


def _read_point(n, d, e):
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


def _at(f, poly, pd):
    """pd^deg f(poly/pd) for an integer list f of degree deg and a Laurent
    polynomial poly: sum_m f[m] poly^m pd^(deg-m), by Horner's rule,
    each step in one pass where poly is a monomial or u + v eps (the
    points of a residue drive)."""
    if len(f) == 1:
        return 0, f
    lo, cs = poly
    if lo == 1 and len(cs) == 1:
        # f[m] v^m pd^(deg-m) at eps^m
        pws, vm, out = [1], 1, []
        for _ in f[1:]:
            pws.append(pws[-1] * pd)
        for c, pw in zip(f, reversed(pws)):
            out.append(c * vm * pw)
            vm *= cs[0]
        return 0, out
    if lo == 0 and len(cs) == 2:
        (u, v), acc, pw = cs, [f[-1]], 1
        for c in reversed(f[:-1]):
            pw *= pd
            acc = [u * acc[0] + c * pw] + [u * x + v * y for x, y in
                                           zip(acc[1:], acc)] + [v * acc[-1]]
        return 0, acc
    acc, pw = _plin(f[-1], f[-2] * pd, poly), pd
    for c in reversed(f[:-2]):
        pw *= pd
        acc = _plin(1, c * pw, _pmul(acc, poly))
    return acc


def _lowest(p):
    """(e, cs) with p = eps^e sum_m cs[m] eps^m for a nonzero Laurent
    polynomial p, cs[0] its lowest nonzero term, no trailing zeros."""
    lo, cs = p
    j = 0
    while not cs[j]:
        j += 1
    return lo + j, cs[j:] if cs[-1] else _trimmed(cs[j:])


def _over(parts, w, num):
    """num / prod p^times over the parts (p, times), integer Laurent
    polynomials in one variable, as (l, kd, cs, cut): eps^l cs(eps) / kd
    with cs[0] nonzero, or its first w terms from eps^l when cut.

    Each polynomial goes from its lowest term: that monomial into kd and
    the shift l, the rest, a unit c (1 + ..), into one series.  A part
    whose unit is 1 is exact.  Otherwise, as for a `Series` divisor,
    the quotient knows w terms past its valuation: the units of the
    parts to positive powers make u, inverted by the division recurrence
    in integers (u0^w / u has integer terms below w, so u0^w goes into
    kd), and a part to a negative power, a series too, multiplies with
    its unit."""
    (l, mult), kd, series, cut = _lowest(num), 1, [], False
    for p, times in parts:
        if times:
            e, cs = _lowest(p)
            l -= e * times
            if times < 0:
                mult = _pmul((0, mult), _ppowers((0, cs), -times)[-1])[1]
                cut = cut or len(cs) > 1
            elif len(cs) > 1:
                series += [cs] * times
            else:
                kd *= cs[0] ** times
    if series or cut:
        u = (0, [1])
        for cs in series:
            u = _pmul(u, (0, cs), w)
        u, u0 = u[1][1:], u[1][0]
        inv = [u0 ** (w - 1)]
        for m in range(1, w):
            inv.append(-sum(map(mul, u, reversed(inv))) // u0)
        kd *= u0 ** w
        mult = _pmul((0, mult), (0, inv), w)[1]
    return l, kd, mult, bool(series or cut)


def _factor_parts(point, factor):
    """(parts, num, (pn, pq)) of phi(z) = num(z) / (z^k den(z)), factor =
    (k, num, den) with integer coefficient lists, at a point (ring,
    level, poly, pd) read by `_tower_point`: phi = (pn/pq) num / prod
    p^times over the parts, num and den at poly/pd times powers of pd
    (`_at`) and z^k as poly^k."""
    k, num, den = factor
    poly, pd = point[2], point[3]
    e = k + len(den) - len(num)
    return ([(poly, k), (_at(den, poly, pd), 1)], _at(num, poly, pd),
            (pd ** e, 1) if e > 0 else (1, pd ** -e))


def _factor_at(point, factor):
    """phi(z) = num(z) / (z^k den(z)), factor = (k, num, den) with integer
    coefficient lists num and den (num nonzero) and an integer k, at a
    point of a tower read by `_tower_point`: (kn, kd, l, cs, err), phi =
    (kn/kd) sum_m cs[m] eps^(l+m) + O(eps^err) in the point's eps.

    num and den are evaluated at the point by Horner's rule (`_at`) and
    the divisor z^k den(z) divides by `_over`: exact where its unit is
    1, else cut to the level's window, err at its end, as the `Series`
    quotient num(z) / (z^k den(z)) is; z^k for k < 0 is the series
    1/z^-k there, so it cuts too where z is no monomial."""
    parts, num, (kn, kd) = _factor_parts(point, factor)
    w = point[0].precs[point[1]]
    l, c, cs, cut = _over(parts, w, num)
    return kn, kd * c, l, cs, l + w if cut else INF


def _factors(zs, factors):
    """prod_j phi_j(z_j) for the variables z_j of a residue drive, on
    distinct levels of one tower, and factors phi_j = (k, num, den) as
    `_factor_at` takes them: a `Scaled` element, the outer product of
    the one-level elements, whose scalars multiply.  Its box is the one
    their tower product has."""
    pts = sorted(zip(map(_tower_point, zs), factors), key=lambda x: x[0][1])
    top = pts[0][0][0]
    L = len(top.precs)
    if any(p[0] is not top for p, _ in pts) \
            or len({p[1] for p, _ in pts}) < len(pts):
        raise ValueError("factors must lie on distinct levels of one tower")
    lo, shape, err, n, d, flat = [0] * L, [1] * L, [INF] * L, 1, 1, [1]
    for point, factor in pts:
        kn, kd, l, cs, e = _factor_at(point, factor)
        j = point[1]
        lo[j], shape[j], err[j], n, d = l, len(cs), e, n * kn, d * kd
        flat = [x * c for x in flat for c in cs]
    return _scaled(n, Series(top, tuple(lo), tuple(shape), flat,
                             tuple(err)), d)


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
        anything lies past it.  Equals the line `_packed_line` makes
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


def _pack(cs, B):
    """sum_m cs[m] 2^(B m): an integer polynomial read at 2^B (Kronecker's
    substitution), so its products and sums are integer ones."""
    v = 0
    for c in reversed(cs):
        v = (v << B) + c
    return v


def _unpack(v, B, size):
    """The first `size` coefficients of a polynomial packed by `_pack`,
    each below 2^(B-2) in size: v's signed digits in base 2^B."""
    mask, half, out = (1 << B) - 1, 1 << (B - 1), []
    for _ in range(size):
        out.append(((v + half) & mask) - half)
        v = (v - out[-1]) >> B
    return out


def _packed_line(point, l, accs, B, size, k=1, kd=1, inv=None, q=1):
    """The `Line` at a point read by `_tower_point` of the entries
    (k/(kd q)) sum_m a_m eps^(l+m), m < size, packed by `_pack` into
    accs, each times sum_m inv[m] eps^m with an integer list inv: the
    exponents below v + prec, v the valuation and prec the level's
    window, err that cut where it drops a nonzero term (always with inv,
    a series head).  Terms below 2^(B-2) in size put an entry's lowest
    set bit in its lowest term, and make terms from K on nonzero exactly
    when the entry exceeds 2^(K B - 1).  The rows' content goes into the
    line's pair."""
    top, level = point[0], point[1]
    w = top.precs[level]
    if inv is not None:
        packed = _pack(inv, B)
        accs, size = [a * packed for a in accs], size + len(inv) - 1
    vals = [((a & -a).bit_length() - 1) // B for a in accs if a]
    if not vals:
        return Line(1, 1, top, level, 0, [[] for _ in accs], INF)
    v = min(vals)
    width, err = min(w, size - v), INF
    if inv is not None or any(abs(a) >> ((v + w) * B - 1) for a in accs):
        err = l + v + w
    flat = []
    for a in accs:
        flat += _unpack(a >> (v * B), B, width)
    g = math.gcd(*flat)
    flat, t = [c // g for c in flat] if g != 1 else flat, math.gcd(g, q)
    return Line(k * (g // t), kd * (q // t), top, level, l + v,
                [flat[i * width:(i + 1) * width] for i in range(len(accs))],
                err)


def _point_line(point, polys, k=1, kd=1):
    """The line of entries (k/kd) * polys[i], rational Laurent
    polynomials in a point's eps (`_tower_point`): `_packed_line` of
    them over their common denominator, or at a number point the
    numbers (k/kd) * polys[i], constants there."""
    top = point[0]
    if top is None:
        k = _exact(k, kd) if kd != 1 else k
        return [k * (p[1][0] if p[1] else 0) for p in polys]
    l, size = min(lo for lo, _ in polys), max(lo + len(cs) for lo, cs in polys)
    q = math.lcm(*(v.denominator for _, cs in polys for v in cs))
    ints = [[v.numerator * (q // v.denominator) for v in cs]
            for _, cs in polys]
    B = max((abs(c) for cs in ints for c in cs), default=0).bit_length() + 2
    accs = [_pack(cs, B) << (lo - l) * B for (lo, _), cs in zip(polys, ints)]
    return _packed_line(point, l, accs, B, size - l, k, kd, q=q)


def line_det(lines):
    """det M for the square matrix whose j-th column is lines[j]: a list
    of numbers, or a `Line` on one tower level, no two on one level.

    The determinant's box has, at the level of each tower line, the
    line's low, width and err, and extent 1 elsewhere.  One line on s > 1
    levels (equal rows, low and err) is an alternant (`_alternant`).
    Any other mix goes by Laplace expansion along the columns, the tower
    lines outermost first and the number columns (of width one, their
    content moved into the scalar) last: the flat minor on rows R of the
    columns from j on is the sum over i in R of +- the outer product of
    row i of column j with the minor on R - {i} of the columns after j,
    memoized by R.  So the only tower operations are products and sums
    of integer lists, and the contents form the `Scaled` scalar, an
    integer pair.  Returns a `Scaled` element, or a Fraction when every
    line is numbers.
    """
    s = len(lines)
    if s == 1 and isinstance(lines[0], Line) and lines[0].rows[0]:
        c = lines[0]
        return _scaled(c.kn, _line_box(c.top, lines, c.rows[0]), c.kd)
    order = sorted(range(s), key=lambda j: getattr(lines[j], "level", INF))
    lines = [lines[j] for j in order]
    m = sum(isinstance(c, Line) for c in lines)
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
    minors = {}

    def minor(j, mask):
        # the flat minor of the columns from j on, on the s - j rows in
        # mask: +- (row of column j) outer (minor of the rest) per row
        if j == s - 1:
            return cols[j][mask.bit_length() - 1]
        out = minors.get(mask)
        if out is None:
            rows, op = cols[j], None
            for i in range(s):
                if mask >> i & 1:
                    x = minor(j + 1, mask ^ (1 << i))
                    term = [c * y for c in rows[i] for y in x]
                    out = term if op is None else list(map(op, out, term))
                    op = sub if op is not sub else add
            minors[mask] = out
        return out

    if m == s > 1 and all(c.rows == cols[0] and c.lo == lines[0].lo
                          and c.err == lines[0].err for c in lines):
        flat = _alternant(cols[0])
    else:
        flat = minor(0, (1 << s) - 1) if s else [1]
    if not m:
        return _exact(kn * flat[0], kd)
    return _scaled(kn, _line_box(top, lines[:m], flat), kd)


def _line_box(top, lines, flat):
    """The element of the flat leaves of lines on distinct levels, in
    level order: each line's low, width and err at its level."""
    L = len(top.precs)
    lo, shape, err = [0] * L, [1] * L, [INF] * L
    for c in lines:
        lo[c.level], shape[c.level], err[c.level] = c.lo, len(c.rows[0]), c.err
    return _trim(top, tuple(lo), tuple(shape), flat, tuple(err))


def _alternant(rows):
    """The flat leaves of det[sum_m rows[i][m] x_j^m] on s levels x_j: at
    exponents (m_1..m_s), the sign of the permutation that sorts them
    times the maximal minor of the s x w rows on them, 0 on a repeated
    one (Macdonald, Symmetric Functions, ch. I sec. 3).  The minors of
    the last k rows on k columns T are sum_i +- row[T_i] minor(T - T_i),
    the cofactor expansion of `_minor` taken for all T of one size at
    once, by a plan kept per (s, w) with the box's gather from [0,
    minors, -minors].  The plan is sized by its C(w, s) minors, what
    rebuilding it costs in sign gathers, not by its w^s positions."""
    s, w = len(rows), len(rows[0])
    plan = _PLANS.get(("alternant", s, w))
    if plan is None:
        sets = [list(combinations(range(w), k)) for k in range(s + 1)]
        at = {T: n for ts in sets for n, T in enumerate(ts)}
        steps = [[([T[i] for T in sets[k]],
                   [at[T[:i] + T[i + 1:]] for T in sets[k]])
                  for i in range(k)] for k in range(2, s + 1)]
        strides, c = [w ** (s - 1 - j) for j in range(s)], len(sets[s])
        signs = [_perm_sign(p) for p in permutations(range(s))]
        gather = [0] * w ** s
        for n, T in enumerate(sets[s], 1):
            for p, sign in zip(permutations(T), signs):
                gather[sum(map(mul, p, strides))] = n if sign > 0 else n + c
        plan = _remember(("alternant", s, w), (steps, gather),
                         math.comb(w, s))
    steps, gather = plan
    minors = rows[-1]
    for row, step in zip(rows[-2::-1], steps):
        acc = None
        for i, (cols, subs) in enumerate(step):
            term = map(mul, map(row.__getitem__, cols),
                       map(minors.__getitem__, subs))
            acc = list(term) if acc is None else \
                list(map(sub if i % 2 else add, acc, term))
        minors = acc
    return list(map([0, *minors, *map(neg, minors)].__getitem__, gather))
