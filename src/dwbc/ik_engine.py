"""The boundary-correlation polynomial family and the determinant
algebra of the residue integrands.

The float Izergin-Korepin determinants (inhomogeneous and the
homogeneous Hankel limit) live in `ik_numeric`, which needs no part of
the exact engine, and nothing here takes a float weight: the family is
exact only.

This module owns the generating-polynomial family h_M(z) of the
one-point boundary correlation, with Z_M, in `BoundaryGenFamily`: the
one per-triple context of every exact route, memoized by `family`.  It
keeps the integers of one frozen-column sweep
(`lattice_oracle._frozen_cuts`) at the largest size a route states,
hands the routes Z_M as the sweep's integer pair (`z_pair`), makes
Fractions of Z_M and h_M only where they are read, and computes the
weights' integers (`TripleInts`: t, Delta and the Moebius maps of the
composed h arguments in integers) and the pole-collision check once.
It is memoized under the integers of its weights, not their Fraction
hashes.  The family also holds the multivariate extension
h_{N,s}(z_1..z_s), a symmetric polynomial of degree N-1 per variable
defined by a Vandermonde-divided determinant.
Three forms are provided.  The determinant form `hns_vand` returns
h_{N,s}(M(z)) times the Vandermonde of the z's, for a Moebius map M of
the arguments, times a factor phi(z_j) the same for every variable:
the Vandermonde cancels, so it needs no division, takes coincident
points and Laurent-tower elements, and is what every residue integrand
(which carries that Vandermonde itself) multiplies in.  Each column of
its determinant depends on one point, phi(z_j) included, so
`exact_core.line_det` builds it one column at a time: at a tower
point, a Laurent polynomial in one tower variable eps, the column's
entries are expanded in that eps by integer polynomial arithmetic (the
rows, built from the sweep's integers, and their contents, an integer
pair, are cached per (N, s)), cut to the level's window, and the
determinant is assembled level by level without a tower product;
points that share a polynomial share one column, made at the widest of
their windows and cut to the others.  `hns_value` divides it by the
Vandermonde at pairwise distinct points.  `hns_poly` divides the
Vandermonde out symbolically by divided differences into a sparse
`MultiPoly`; no residue integrand and no identity check uses it.  It is
kept for the tests, as a reference, and for the benchmark tracer, which
binds it by name.

Also here, being determinant-algebra of the same kind: the
doubly-antisymmetrized kernel W_s(x; y) and its polynomial numerator
P_s = W_s prod (1 - x_j y_k), which tie the antisymmetrization identity
machinery to Z_s.  P_s is never built as a polynomial: each integrand
takes it in the form its own points allow.  `cantini_P_vand` gives
P_s Vand(x) Vand(y) as a determinant at general points,
`cantini_P_confluent` the confluent limit P_s(x; c..c) Vand(x) at
coincident y's, and at y = 1/x it has the closed form
prod_j x_j^-(s-1) prod_{j != k} (x_j x_k - 2D x_j + 1) (the `psxx`
identity), which the integrands write out so that it cancels their
own pair factors.  The rows of `cantini_P_confluent` and of the x-side
minors of `cantini_P_vand` each depend on one x_j and take the same
column kernel; the y-side minors, whose columns each depend on s - 1
of the y's, share their sub-minors in one Laplace expansion.

The pair factors of the residue integrands (`pole_guard` of the
family, `_pair_quotient`) live here too, so that `efp_reps` needs
nothing from `bethe_reps`.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction
from itertools import combinations

from .errors import DegeneratePoints, InvalidRegion, PoleCollision
from .exact_core import (Scaled, _content, _factor_parts, _horner, _minor,
                         _over, _pack, _packed_line, _padd, _pair_divide,
                         _plin, _pmul, _point_line, _ppowers, _scaled,
                         _tower_point, _trimmed, line_det, poly_det)
from .lattice_oracle import WeightTriple, _frozen_cuts
from .rational import ExactPoly
# unused here: perfbench/workloads.py reads these as attributes of this
# module
from .trig import NumericTriple, TrigParams, homogeneous_abc  # noqa: F401

# bound of the per-weight cache `family`
CACHE_SIZE = 64


# ---------------------------------------------------------------------------
# sparse multivariate polynomials
# ---------------------------------------------------------------------------

class MultiPoly:
    """Multivariate polynomial as {exponent tuple: coefficient}.

    Coefficients are Fractions.  Holds only h_{N,s}
    (`BoundaryGenFamily.hns_poly`), the Vandermonde-divided determinant
    polynomial, evaluated at numbers where points coincide; no residue
    integrand and no identity check evaluates one.  Terms, not the
    representation, carry the cost.
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
        if isinstance(other, (int, Fraction)):
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
        """Evaluate at Fractions or tower elements."""
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


# ---------------------------------------------------------------------------
# boundary generating polynomials h_M and their multivariate extension
# ---------------------------------------------------------------------------

class TripleInts:
    """The weights (a, b, c) = g (A, B, C) of a family in integers: A, B
    and C coprime, g = gn/gd, and what the residue integrands take of
    them.  With E = A^2 + B^2 - C^2, as (numerator, denominator) pairs
    for `eps_scale`:

        t = B/A, 2 Delta = E/(AB), 2 Delta t = E/A^2,
        tt = t^2 - 2 Delta t = (C^2 - A^2)/A^2,
        at_one = ((kappa - 1)/kappa, t^2/kappa), the ratios of the pair
            factor's coefficients to its constant term kappa = t^2 -
            2 Delta t + 1 = C^2/A^2 at z = 1;

    and the Moebius maps of the composed h arguments with integer
    coefficients, each the map of the rational coefficients times A or
    A^2, which changes neither the map nor `hns_vand`: u(z) = -(z -
    1)/(tt z + 1), w(z) = (t^2 z - 2 Delta t + 1)/(t^2 (z - 1)),
    warg(w) = ((2 Delta t - 1) w - t)/(t (t w - 1)), z/t and 1/(t z).
    A route writes each factor of its integrand with integer
    coefficients, the factor times a power of A or of AB, and puts that
    power into its prefactor."""

    __slots__ = ("A", "B", "C", "gn", "gd", "E", "t", "two_delta", "two_dt",
                 "tt", "at_one", "u_map", "w_map", "warg_map", "over_t",
                 "inv_tz")

    def __init__(self, w):
        (self.gn, self.gd), (A, B, C) = _content((w.a, w.b, w.c))
        E = A * A + B * B - C * C
        self.A, self.B, self.C, self.E = A, B, C, E
        self.t, self.two_delta, self.two_dt = (B, A), (E, A * B), (E, A * A)
        self.tt = C * C - A * A, A * A
        self.at_one = (C * C - A * A, C * C), (B * B, C * C)
        self.u_map = (-A * A, A * A, C * C - A * A, A * A)
        self.w_map = (B * B, C * C - B * B, B * B, -B * B)
        self.warg_map = (B * B - C * C, -A * B, B * B, -A * B)
        self.over_t, self.inv_tz = (A, 0, 0, B), (0, A, B, 0)


class BoundaryGenFamily:
    """The per-triple context of the exact routes at a fixed WeightTriple:
    Z_M, h_M(z) (an ExactPoly, h_M(1) = 1) for M = 0..N, the rows of the
    h_{N,s} determinants and the (t, Delta) of the pair factors.

    The sweep data are kept as `lattice_oracle._frozen_cuts` gives them,
    integers from one sweep at the largest size asked for so far; Z_M
    and h_M become Fractions only when read, once each, and the rows of
    `_hns_rows` are built from the integers.
    """

    def __init__(self, w):
        self.w = w
        self._cuts = []
        self._z, self._h = {}, {}
        self._guard = None
        self._hns_cache = {}
        self._rows = {}

    def sweep(self, N: int):
        """Sweep once for Z_M and h_M, M <= N, unless an earlier sweep
        reached N.  A route states its largest size here first, so a
        cold query sweeps once; a later request above it sweeps again,
        at that size."""
        if not 0 <= N < len(self._cuts):
            self._cuts = _frozen_cuts(N, self.w)

    def h(self, M: int):
        if M < 1:
            raise InvalidRegion(f"h_N needs N >= 1, got N={M}")
        poly = self._h.get(M)
        if poly is None:
            self.sweep(M)
            psi = self._cuts[M][2]
            total = sum(psi)
            poly = self._h[M] = ExactPoly([Fraction(v, total) for v in psi])
        return poly

    def z(self, M: int):
        """Z_M, cached like h(M)."""
        z = self._z.get(M)
        if z is None:
            z = self._z[M] = Fraction(*self.z_pair(M))
        return z

    def z_pair(self, M: int):
        """Z_M as the integer pair (cut value, denominator) of the sweep,
        unreduced: the routes' prefactors take it here."""
        self.sweep(M)
        return self._cuts[M][:2]

    def pole_guard(self):
        """The `TripleInts` of the weights, for the residue integrands of
        bethe_reps and efp_reps, whose pair factors (`_pair_quotient`)
        need t^2 - 2 Delta t + 1 = c^2/a^2 nonzero; PoleCollision where
        it vanishes."""
        if self._guard is None:
            guard = TripleInts(self.w)
            if not guard.C:
                raise PoleCollision("t^2 - 2*Delta*t + 1 = 0 (equals c^2/a^2)")
            self._guard = guard
        return self._guard

    # -- determinant form ----------------------------------------------

    def hns_vand(self, N: int, s: int, zs, mobius=(1, 0, 0, 1), factor=None):
        """h_{N,s}(M(z_1)..M(z_s)) * prod_{j<k} (z_k - z_j) * prod_j phi(z_j)
        for the Moebius map M(z) = (al z + be)/(ga z + de), mobius = (al,
        be, ga, de), and phi(z) = num(z)/(z^k den(z)), factor = (k, num,
        den) with integer coefficient lists num and den, or phi = 1.

        M(z_k) - M(z_j) = (al de - be ga)(z_k - z_j)/((ga z_k + de)(ga z_j
        + de)), so the Vandermonde cancels and the value is

            det[g_i(M(z_j)) phi(z_j)] prod_j (ga z_j + de)^(s-1)
                / (al de - be ga)^(s(s-1)/2).

        Column j is G_i(z_j) (ga z_j + de)^-(N-1) phi(z_j), where G_i(z)
        = g_i(M(z)) (ga z + de)^D, D = N+s-2 the top degree of the g_i,
        is a polynomial in z_j.  Nothing is divided by a Vandermonde, so
        the z_j may coincide.

        The points may be numbers or tower elements, each an exact
        Laurent polynomial in the variable of one tower level: the
        c + D eps of `residue_drive`, or 1/(D eps).  There column j is
        an integer polynomial in eps by `_hns_line`, cut to the level's
        window by `exact_core._packed_line`, marked by err where that
        cuts anything; points with one polynomial (all of them in a
        residue drive) share one column, made at the widest of their
        windows and cut to each point's level (`_point_lines`).
        `exact_core.line_det` assembles the determinant from integer
        lists, and the contents form its `Scaled` scalar, an integer
        pair.  An integer map (`TripleInts`) keeps every content an
        integer; a map and any nonzero multiple of it give the same
        value.  A window too short for the residue shows up as a
        PrecisionLoss, so `residue_drive` retries on wider towers; it
        never gives a wrong value.
        """
        zs = list(zs)
        if len(zs) != s:
            raise ValueError("need s evaluation points")
        al, be, ga, de = mobius
        det_m = al * de - be * ga
        if det_m == 0:
            raise ValueError("degenerate Moebius map")
        (rn, rd), rows = self._hns_rows(N, s)
        points = [_tower_point(z) for z in zs]
        lines = _point_lines(points, lambda i: _hns_line(N, s, rows, points[i],
                                                         mobius, factor))
        det = line_det(lines)
        rd *= det_m ** (s * (s - 1) // 2)
        if isinstance(det, Scaled):
            return _scaled(det.n * rn, det.e, det.d * rd)
        return det * rn / rd

    def hns_value(self, N: int, s: int, points):
        """h_{N,s}(z_1..z_s) at pairwise distinct points."""
        pts = list(points)
        if len(pts) != s:
            raise ValueError("need s evaluation points")
        van = 1
        for i in range(s):
            for j in range(i + 1, s):
                if pts[i] == pts[j]:
                    raise DegeneratePoints(
                        "coincident points: use the polynomial form")
                van = van * (pts[j] - pts[i])
        return self.hns_vand(N, s, pts) / van

    # -- exact polynomial form -----------------------------------------

    def hns_poly(self, N: int, s: int) -> MultiPoly:
        """h_{N,s} as a symmetric MultiPoly (degree N-1 per variable).

        The Vandermonde is divided out by divided differences: the
        column of samples g_i(z_j) turns into g_i[z_1..z_j], and the
        divided difference of a monomial z^m over j nodes is the
        complete homogeneous polynomial of degree m-j+1.
        """
        key = (N, s)
        cache = self._hns_cache
        if key not in cache:
            if s == 0:
                cache[key] = MultiPoly.constant(0, Fraction(1))
            else:
                mat = []
                for i in range(1, s + 1):
                    cs = self._row_coeffs(N, s, i)
                    row = []
                    for j in range(1, s + 1):
                        entry = MultiPoly(s)
                        for m, cf in enumerate(cs):
                            if cf == 0:
                                continue
                            entry = entry + cf * complete_homogeneous(
                                s, j, m - j + 1)
                        row.append(entry)
                    mat.append(row)
                cache[key] = poly_det(mat)
        return cache[key]

    def _hns_rows(self, N, s):
        """((rn, rd), rows): the coefficient lists of g_1..g_s, each over
        its rational content, integers whose contents multiply to rn/rd,
        an unreduced integer pair; cached per (N, s).  g_i is built on
        the integer psi list of h_M, which is h_M times the psi sum."""
        key = (N, s)
        if key not in self._rows:
            self.sweep(N)  # g_1..g_s take h_(N-s+1)..h_N: one sweep for all
            rn, rd, rows = 1, 1, []
            for i in range(1, s + 1):
                psi = self._cuts[N - s + i][2]
                (k, _), cs = _content(_g_row(psi, s, i))
                rn, rd = rn * k, rd * sum(psi)
                rows.append(cs)
            self._rows[key] = (rn, rd), rows
        return self._rows[key]

    def _row_coeffs(self, N, s, i):
        """Coefficients of g_i(z) as Fractions: `hns_poly`'s rows."""
        self.sweep(N)
        return _g_row(self.h(N - s + i).coeffs, s, i)


def _g_row(h, s, i):
    """Coefficients of g_i(z) = z^(s-i) (z-1)^(i-1) h(z), h the
    coefficient list of h_(N-s+i) or a multiple of it."""
    out = [0] * (s - i) + list(h)
    for _ in range(i - 1):  # multiply by (z - 1)
        out = [-out[0]] + [out[k - 1] - out[k] for k in range(1, len(out))] \
              + [out[-1]]
    return out


def _hns_line(N, s, rows, point, mobius, factor=None):
    """Column G_i(z) (ga z + de)^-(N-1) phi(z) of `hns_vand` at a point
    read by `exact_core._tower_point`, for the rows g_i over their
    contents, phi(z) = num(z)/(z^k den(z)) for factor = (k, num, den).
    With al z + be = (kn/pd) eps^lo n, ga z + de = (kd/pd) eps^lo d for
    integer lists n, d and kn/kd = p/q, G_i is (kd/pd)^D q^-D eps^(lo D)
    sum_m c_(i,m) (p n)^m (q d)^(D-m), by Horner's rule in p n (Knuth,
    TAOCP vol. 2, sec. 4.6.4) packed at 2^B, B holding every partial
    sum, q d's powers made once.  phi goes as the per-variable factors
    of the routes go (`exact_core._factor_at`), by the same helpers: num
    and den at the point are integer polynomials in eps over powers of
    pd (`exact_core._factor_parts`), and `exact_core._over` takes the
    divisor d^(N-1) z^k den term by term: a monomial into the scalar and
    the shift, the rest into a series of prec terms, u0^-prec inv, by
    the division recurrence, exact in integers; num multiplies the
    column, or inv (B holds those products too)."""
    al, be, ga, de = mobius
    top, _, poly, pd = point
    if top is None:
        z = poly[1][0]
        dz = ga * z + de
        x, f = (al * z + be) / dz, dz ** (s - 1)
        if factor:
            k, num, den = factor
            f *= Fraction(_horner(num, z)) / (z ** k * _horner(den, z))
        return [_horner(cs, x) * f for cs in rows]
    D = N + s - 2
    lo = min(poly[0], 0)
    (gn, qn), n = _content(_trimmed(_plin(al, be * pd, poly)[1]))
    if ga:
        (gd, qd), d = _content(_trimmed(_plin(ga, de * pd, poly)[1]))
    else:
        x = de * pd
        gd, qd, d = x.numerator, x.denominator, [0] * -lo + [1]
    p, q = gn * qd, qn * gd
    h = math.gcd(p, q) * (-1 if q < 0 else 1)
    p, q = p // h, q // h
    w, kn = top.precs[point[1]], gd ** (s - 1)
    kd = (qd * pd) ** (s - 1) * q ** D
    # the divisor d^(N-1) z^k den over num, each from its lowest term
    # (`exact_core._over`): a monomial goes into the scalar and the
    # shift, the rest into one series, which num multiplies
    parts, mult = [((lo, d), N - 1)], (0, [1])
    if factor:
        more, mult, (pn, pq) = _factor_parts(point, factor)
        parts, kn, kd = parts + more, kn * pn, kd * pq
    l, c, mult, cut = _over(parts, w, mult)
    l, kd, inv = l + lo * D, kd * c, mult if cut else None
    x = [p * c for c in n]
    B = (max(max(map(abs, cs)) for cs in rows).bit_length() + 2
         + (D + 1).bit_length() + sum(map(abs, mult)).bit_length()
         + D * max(sum(map(abs, x)), q * sum(map(abs, d))).bit_length())
    xp, yp = _pack(x, B), q * _pack(d, B)
    ys = [yp ** m for m in range(D + 1)]
    accs = []
    for cs in rows:
        acc = 0
        for c, y in zip(reversed(cs), ys[D + 1 - len(cs):]):
            acc = acc * xp + c * y
        accs.append(acc)
    size = (max(len(n), len(d)) - 1) * D + 1
    if inv is None and mult != [1]:
        accs, size = [a * _pack(mult, B) for a in accs], size + len(mult) - 1
    return _packed_line(point, l, accs, B, size, kn, kd, inv)


def _point_lines(points, make):
    """[make(i) for each point i] of points read by
    `exact_core._tower_point`, one line made per polynomial: at the
    point with the widest window among those that share it, then moved
    and cut to each point's own level (`Line.moved`)."""
    if len(points) == 1:
        return [make(0)]
    keys = [(top is None, lo, tuple(cs), den)
            for top, _, (lo, cs), den in points]
    widest = {}
    for i, (key, (top, level, _, _)) in enumerate(zip(keys, points)):
        w = top.precs[level] if top is not None else 0
        widest[key] = max(widest.get(key, (w, -i)), (w, -i))
    made = {key: make(-i) for key, (_, i) in widest.items()}
    return [made[key] if top is None else made[key].moved(top, level)
            for key, (top, level, _, _) in zip(keys, points)]


# the memo of `family`: the numerators and denominators of (a, b, c) to
# their family, least recently used first
_FAMILIES = {}
CacheInfo = namedtuple("CacheInfo", "maxsize currsize")


def family(w: WeightTriple) -> BoundaryGenFamily:
    """Memoized family per WeightTriple, keyed by the integers of its
    weights (a Fraction's hash takes a modular inverse), least recently
    used first out past CACHE_SIZE triples.  `family.cache_info()` and
    `family.cache_clear()` read and empty the memo."""
    a, b, c = w.a, w.b, w.c
    key = (a.numerator, a.denominator, b.numerator, b.denominator,
           c.numerator, c.denominator)
    fam = _FAMILIES.pop(key, None)
    if fam is None:
        fam = BoundaryGenFamily(w)
        if len(_FAMILIES) >= CACHE_SIZE:
            del _FAMILIES[next(iter(_FAMILIES))]
    _FAMILIES[key] = fam
    return fam


family.cache_info = lambda: CacheInfo(CACHE_SIZE, len(_FAMILIES))
family.cache_clear = _FAMILIES.clear


def _pref(num, den, *powers):
    """The integer pair (num, den) times prod base^e over the (base, e)
    pairs, e of either sign: a route's prefactor as one numerator and
    one denominator."""
    for base, e in powers:
        if e > 0:
            num *= base ** e
        elif e < 0:
            den *= base ** -e
    return num, den


def _pair_quotient(f, zs, p, q, r=1, ordered=False):
    """f / prod (p z_j z_k - q z_j + r) over the pairs j < k, or over
    all j != k when `ordered`, the z's the variables of a residue drive
    and p, q, r integers: `exact_core._pair_divide`, the pair factors as
    one chain of the division kernel, one pass per pair over one
    buffer.  A route writes its pair factor with integer coefficients,
    (A B z_j z_k - E z_j + A B) or (B^2 z_j z_k - E z_j + A^2) from
    `TripleInts`, and puts the power of AB or A^2 that this takes out
    into its prefactor."""
    n = len(zs)
    if n < 2:
        return f
    return _pair_divide(f, zs, p, q, r, [
        (j, k) for j in range(n) for k in range(n)
        if k > j or (ordered and k != j)])


# ---------------------------------------------------------------------------
# the antisymmetrization kernel W_s and its polynomial numerator P_s
# ---------------------------------------------------------------------------

def psi_kernel(x, y, delta):
    """psi(x,y) = 1 / ((1 - x y)(x + y - 2*Delta*x*y))."""
    return 1 / ((1 - x * y) * (x + y - 2 * delta * x * y))


def cantini_W_value(xs, ys, delta):
    """W_s(x_1..x_s; y_1..y_s) straight from its definition:
    prod (x_j + y_k - 2D x_j y_k) / (Vand_x Vand_y) * det[psi(x_j,y_k)].

    Requires pairwise distinct xs and ys.
    """
    s = len(xs)
    pref = 1
    for x in xs:
        for y in ys:
            pref = pref * (x + y - 2 * delta * x * y)
    van = 1
    for j in range(s):
        for k in range(j + 1, s):
            van = van * (xs[k] - xs[j]) * (ys[k] - ys[j])
    mat = [[psi_kernel(x, y, delta) for y in ys] for x in xs]
    return pref * poly_det(mat) / van


def cantini_P_vand(xs, ys, delta, yfactor=1):
    """yfactor * P_s(x; y) Vand(x) Vand(y) = yfactor * det[g_k(x_j)],
    where P_s = W_s prod (1 - x_j y_k), g_k(x) = prod_{k' != k}
    (1 - x y_k')(x + y_k' - 2D x y_k') and Vand(x) = prod_{j<k}
    (x_k - x_j).

    Every integrand that takes P_s at general points carries both
    Vandermondes, so nothing is divided.  The points may coincide and
    may be Fractions or Laurent-tower elements; at `Scaled` points the
    value is `Scaled`, on integer leaves, as nothing is inverted.  With
    g_k(x) = sum_m c_{k,m}(y) x^m, its quadratic factors multiplied by
    `exact_core._pmul` over the ring of the y's, the determinant is
    taken by Cauchy-Binet, sum over s-subsets S of the x-powers 0..2s-2 of
    det[x_j^m]_{m in S} (x only) times det[c_{k,m}(y)]_{m in S} (y
    only).  Row j of an x-minor depends on x_j alone, so each x-minor
    is built by `exact_core.line_det` from the integer powers of the
    x_j in their tower variables; the y-minors, whose columns each
    depend on s - 1 of the y's, are every maximal minor of c_{k,m}(y)
    from one Laplace expansion along k, memoized by column set, with a
    y-only `yfactor` (the y side of an integrand) taken into row k = 0
    once.  On a tower this multiplies small one-sided factors instead
    of expanding det[g_k(x_j)] (at s = 3, 55 y-side products).
    """
    s = len(xs)
    # (1 - x y)(x + y - 2D x y) as coefficients of x^0, x^1, x^2
    quads = [[y, 1 - 2 * delta * y - y * y, (2 * delta * y - 1) * y]
             for y in ys]
    coeffs = []
    for k in range(s):
        cs = (0, [1])
        for kp in range(s):
            if kp != k:
                cs = _pmul(cs, (0, quads[kp]))
        coeffs.append(cs[1])
    cy = [[yfactor * c for c in cs] for cs in coeffs[:1]] + coeffs[1:]
    points, memo = [_tower_point(x) for x in xs], {}
    powers = [_ppowers(_point_poly(p), 2 * s - 2) for p in points]
    terms = [line_det(_point_lines(points, lambda i: _point_line(
                 points[i], [powers[i][m] for m in S]))) * _minor(cy, S, memo)
             for S in combinations(range(2 * s - 1), s)]
    return sum(terms[1:], terms[0]) if s else yfactor * terms[0]


def cantini_P_confluent(xs, c, delta):
    """P_s(x; c..c) Vand(x), the confluent limit of `cantini_P_vand` at
    coincident y's: det over rows j and columns m = 0..s-1 of

        sum_{i+l=m} x_j^i (2D x_j - 1)^l A_j^(s-1-i) B_j^(s-1-l),

    A = 1 - x c, B = x + c - 2D x c.  Dividing det[g_k(x_j)] by Vand(y)
    and letting every y_k -> c takes the m-th y-Taylor coefficient of
    1/((1 - x y)(x + y - 2D x y)) at y = c, times (A B)^s.  Row j
    depends on x_j alone: at tower points it is expanded in x_j's tower
    variable and the determinant built by `exact_core.line_det`, a
    `Scaled` element on integer leaves.  Each term is a product of 2s - 2
    linear factors in x_j, x_j itself counted: each times q, the lcm of
    their coefficients' denominators times the point's, is an integer
    polynomial, and the line takes q^-(2s-2).
    """
    s = len(xs)
    dd, dc = 2 * delta, 2 * delta * c
    Q = math.lcm(dd.denominator, c.denominator, dc.denominator)
    dq, cq, bq = ((v * Q).numerator for v in (dd, c, 1 - dc))
    lines = []
    for x in xs:
        point = _tower_point(x)
        (lo, cs), den = point[2], point[3]
        p = (lo, cs)
        xp = _ppowers((lo, [Q * v for v in cs]), s - 1)
        dp = _ppowers(_plin(dq, -Q * den, p), s - 1)
        ap = _ppowers(_plin(-cq, Q * den, p), s - 1)
        bp = _ppowers(_plin(bq, cq * den, p), s - 1)
        polys = []
        for m in range(s):
            acc = (0, [])
            for i in range(m + 1):
                acc = _padd(acc, _pmul(_pmul(xp[i], dp[m - i]),
                                       _pmul(ap[s - 1 - i], bp[s - 1 - m + i])))
            polys.append(acc)
        lines.append(_point_line(point, polys, 1, (Q * den) ** (2 * s - 2)))
    return line_det(lines)


def _point_poly(point):
    """The polynomial of a point read by `exact_core._tower_point`, its
    denominator divided in."""
    (lo, cs), den = point[2], point[3]
    return (lo, cs) if den == 1 else (lo, [Fraction(c, den) for c in cs])
