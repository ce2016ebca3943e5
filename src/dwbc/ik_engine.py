"""Determinant formulas and the boundary-correlation polynomial family.

The inhomogeneous partition function is the Izergin-Korepin determinant

    Z_N = prod a(l_a,n_k) b(l_a,n_k) / (prod d(l_b,l_a) prod d(n_j,n_k))
          * det[ phi(l_a, n_k) ],      phi = c / (a b),

with a(l,n) = sin(l-n+eta), b(l,n) = sin(l-n-eta), c = sin 2eta and
d(l,l') = sin(l-l'), the weights of `trig`, which also holds the
parameter records `TrigParams` and `NumericTriple` and takes every
sine and cosine this module needs.  In the homogeneous limit it
becomes a Hankel determinant of derivatives of phi(l); those
derivatives are generated exactly through the cotangent recurrence
(each one is an integer polynomial in cot(l-eta) and cot(l+eta)),
because finite differences lose every digit well before the 2N-2
orders the formula needs.

The same module owns the generating-polynomial family h_M(z) of the
one-point boundary correlation (with Z_M, which the routes' prefactors
take from the same per-weight cache; both come from one
`lattice_oracle.frozen_column_sweep` at the largest size a route
states) and its multivariate extension
h_{N,s}(z_1..z_s), a symmetric polynomial of degree N-1 per variable
defined by a Vandermonde-divided determinant.  Three forms are
provided.  The determinant form `hns_vand` returns h_{N,s}(M(z)) times
the Vandermonde of the z's, for a Moebius map M of the arguments: the
Vandermonde cancels, so it needs no division, takes coincident points
and Laurent-tower elements, and is what every residue integrand (which
carries that Vandermonde itself) multiplies in.  Each column of its
determinant depends on one point, so `exact_core.line_det` builds it
one column at a time: at a tower point, a Laurent polynomial in one
tower variable eps, the column's entries are expanded in that eps by
integer polynomial arithmetic (the rows' rational contents are cached
per (N, s), and the map's numerator and denominator are brought to
integer content), cut to the level's window, and the determinant is
assembled level by level without a tower product.  `hns_value` divides
it by the Vandermonde at pairwise distinct points.  `hns_poly` divides
the Vandermonde out symbolically by divided differences into a sparse
`MultiPoly`; no residue integrand and no identity check uses it.  It
serves only the
coincident-point fallback of `partially_inhomogeneous_Z`, the tests as
a reference, and the benchmark tracer, which binds it by name.

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
column kernel; the y-side minors, each of whose columns depends on
s - 1 of the y's, are cofactor expansions (`poly_det`).

The two float determinants, `ik_determinant` and `ik_homogeneous`,
take their determinant from `elimination.det`, exact from the float
entries and rounded once, which they import when called.  The phi
matrix, which the psi sums of `bethe_reps` share, refuses an a or b
weight that is exactly 0 at a site (`_divisor_weight`).  The pair
factors of the residue integrands (`_pole_guard`, `_pair_quotient`)
live here too, so that `efp_reps` needs nothing from `bethe_reps`.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from itertools import combinations

from .errors import (DegeneratePoints, InvalidRegion, NearDegenerate,
                     PoleCollision, Singular)
from .exact_core import (Line, _content, _horner, _padd, _plin, _pmul,
                         _point_line, _ppowers, _tower_point, _trimmed,
                         line_det, poly_det)
from .lattice_oracle import WeightTriple, frozen_column_sweep
from .rational import ExactPoly
from .trig import (DEGENERACY_TOL, NumericTriple, TrigParams, a_fn, b_fn,
                   c_fn, d_fn, homogeneous_abc, sin_cos)

# bound of the per-weight cache `family`
CACHE_SIZE = 64


# ---------------------------------------------------------------------------
# Izergin-Korepin determinants
# ---------------------------------------------------------------------------

def ik_determinant(p: TrigParams) -> complex:
    """Z_N of the inhomogeneous model via the determinant formula.
    Z_0 = 1 (empty lattice)."""
    from .elimination import det
    N, eta = p.n, p.eta
    pref = 1 + 0j
    for l in p.lambdas:
        for v in p.nus:
            pref *= a_fn(l, v, eta) * b_fn(l, v, eta)
    den = 1 + 0j
    for i in range(N):
        for j in range(i + 1, N):
            den *= d_fn(p.lambdas[j], p.lambdas[i]) * d_fn(p.nus[i], p.nus[j])
    return pref / den * det(_phi_matrix(p))


def _divisor_weight(p: TrigParams, kind, alpha, k):
    """The a or b weight at site (alpha, k), 1-based, for a route that
    divides by it.  Float cancellation in l - nu +/- eta can make it
    exactly 0, which raises Singular naming the site and the weight."""
    fn = a_fn if kind == "a" else b_fn
    x = fn(p.lambdas[alpha - 1], p.nus[k - 1], p.eta)
    if x == 0:
        raise Singular(f"{kind} = 0 at site (alpha, k) = ({alpha}, {k}), "
                       "which the route divides by")
    return x


def _phi_matrix(p: TrigParams):
    """phi(l_alpha, nu_k) = c / (a b) at every site (alpha, k)."""
    c = c_fn(p.eta)
    return [[c / (_divisor_weight(p, "a", alpha, k)
                  * _divisor_weight(p, "b", alpha, k))
             for k in range(1, len(p.nus) + 1)]
            for alpha in range(1, len(p.lambdas) + 1)]


@lru_cache(maxsize=None)
def _phi_cot_polys(nmax: int):
    """Integer coefficient lists (ascending) of the polynomials q_n with
    d^n/dl^n cot(l+const) = q_n(cot), n = 0..nmax.

    q_0(x) = x and differentiation acts on monomials as
    D x^k = -k (x^(k-1) + x^(k+1)), since (cot)' = -(1 + cot^2).
    """
    polys = [[0, 1]]
    for _ in range(nmax):
        prev = polys[-1]
        nxt = [0] * (len(prev) + 1)
        for k in range(1, len(prev)):
            nxt[k - 1] -= k * prev[k]
            nxt[k + 1] -= k * prev[k]
        polys.append(nxt)
    return polys


def phi_derivatives(lam, eta, nmax: int):
    """[d^n phi / d lam^n for n = 0..nmax] with phi = sin2eta /
    (sin(lam-eta) sin(lam+eta)) = cot(lam-eta) - cot(lam+eta).

    The difference of the two cotangents is only as good as the
    computed arguments: once |lam| is so large against |eta| that
    lam + eta and lam - eta no longer differ by 2 eta to DEGENERACY_TOL
    (relative), the digits of phi are gone (at lam + eta == lam - eta
    it is exactly 0), so that raises NearDegenerate instead of
    returning them."""
    if abs(((lam + eta) - (lam - eta)) - 2 * eta) \
            > DEGENERACY_TOL * abs(2 * eta):
        raise NearDegenerate(
            f"lam = {lam} swamps eta = {eta}: lam + eta and lam - eta "
            f"differ by {(lam + eta) - (lam - eta)}, not 2 eta")
    su, cu = sin_cos(lam - eta)
    sv, cv = sin_cos(lam + eta)
    if min(abs(su), abs(sv)) <= DEGENERACY_TOL:
        raise Singular("lam = +/- eta (mod pi): phi undefined")
    u = cu / su
    v = cv / sv
    polys = _phi_cot_polys(nmax)
    return [complex(_horner(q, u)) - complex(_horner(q, v))
            for q in polys[: nmax + 1]]


def ik_homogeneous(N: int, lam, eta) -> complex:
    """Homogeneous Z_N via the Hankel determinant of phi-derivatives.
    Z_0 = 1 (empty lattice)."""
    if N == 0:
        return 1 + 0j
    from .elimination import det
    a, b, _ = homogeneous_abc(lam, eta)
    cs = phi_derivatives(lam, eta, 2 * N - 2)
    pref = (a * b) ** (N * N)
    for n in range(1, N):
        pref /= math.factorial(n) ** 2
    return pref * det([[cs[i + k] for k in range(N)] for i in range(N)])


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


# ---------------------------------------------------------------------------
# boundary generating polynomials h_M and their multivariate extension
# ---------------------------------------------------------------------------

class BoundaryGenFamily:
    """Cache of h_M(z) and Z_M for M = 0..N at fixed homogeneous weights.

    Exact (ExactPoly) for a WeightTriple, complex coefficient lists for
    NumericTriple; h_M(1) = 1 holds in both regimes.  Every entry comes
    from one `frozen_column_sweep` at the largest size asked for so far.
    """

    def __init__(self, w):
        self.w = w
        self.exact = isinstance(w, WeightTriple)
        self._z, self._h = [], []
        self._hns_cache = {}
        self._rows = {}

    def sweep(self, N: int):
        """Sweep once for Z_M and h_M, M <= N, unless an earlier sweep
        reached N.  A route states its largest size here first, so a
        cold query sweeps once; a later request above it sweeps again,
        at that size."""
        if not 0 <= N < len(self._z):
            swept = frozen_column_sweep(N, self.w)
            self._z = [z for z, _ in swept]
            self._h = [ExactPoly(h) if self.exact else h for _, h in swept]

    def h(self, M: int):
        if M < 1:
            raise InvalidRegion(f"h_N needs N >= 1, got N={M}")
        self.sweep(M)
        return self._h[M]

    def z(self, M: int):
        """Z_M, cached like h(M): the routes' prefactors take it here."""
        self.sweep(M)
        return self._z[M]

    def h_coeffs(self, M: int):
        hm = self.h(M)
        return list(hm.coeffs) if self.exact else list(hm)

    # -- determinant form ----------------------------------------------

    def hns_vand(self, N: int, s: int, zs, mobius=(1, 0, 0, 1)):
        """h_{N,s}(M(z_1)..M(z_s)) * prod_{j<k} (z_k - z_j) for the Moebius
        map M(z) = (al z + be)/(ga z + de), mobius = (al, be, ga, de).

        M(z_k) - M(z_j) = (al de - be ga)(z_k - z_j)/((ga z_k + de)(ga z_j
        + de)), so the Vandermonde cancels and the value is

            det[g_i(M(z_j))] prod_j (ga z_j + de)^(s-1)
                / (al de - be ga)^(s(s-1)/2).

        Column j is G_i(z_j) (ga z_j + de)^-(N-1), where G_i(z) =
        g_i(M(z)) (ga z + de)^D, D = N+s-2 the top degree of the g_i, is
        a polynomial in z_j.  Nothing is divided by a Vandermonde, so the
        z_j may coincide.

        The points may be numbers or tower elements, each an exact
        Laurent polynomial in the variable of one tower level: the
        c + D eps of `residue_drive`, or 1/(D eps).  There column j is
        built by `exact_core._point_line`: with the g_i over their
        rational contents (integers cached per (N, s)) and the map's
        numerator and denominator at z_j brought to integer content,
        G_i(z_j) is a sum of integer polynomials in eps, (ga z_j +
        de)^-(N-1) a monomial or an integer power series, and the column
        keeps the exponents of its level's window, marked by err where
        that cuts anything; points with one polynomial and one window
        share one column, moved to each point's level (`_point_lines`).
        `exact_core.line_det` assembles the determinant level by level
        with integer times tower and tower plus tower only, and the
        contents form its `Scaled` scalar.  A
        window too short for the residue shows up as a PrecisionLoss,
        so `residue_drive` retries on wider towers; it never gives a
        wrong value.
        """
        zs = list(zs)
        if len(zs) != s:
            raise ValueError("need s evaluation points")
        al, be, ga, de = mobius
        det_m = al * de - be * ga
        if det_m == 0:
            raise ValueError("degenerate Moebius map")
        if s == 0:
            return Fraction(1) if self.exact else 1 + 0j
        rho, rows = self._hns_rows(N, s)
        points = [_tower_point(z) for z in zs]
        lines = _point_lines(points, lambda i: _hns_line(N, s, rows, points[i],
                                                         mobius))
        return line_det(lines) * (rho / det_m ** (s * (s - 1) // 2))

    def hns_value(self, N: int, s: int, points):
        """h_{N,s}(z_1..z_s) at pairwise distinct points."""
        pts = list(points)
        if len(pts) != s:
            raise ValueError("need s evaluation points")
        van = 1
        for i in range(s):
            for j in range(i + 1, s):
                if pts[i] == pts[j] or (
                    not self.exact and abs(pts[i] - pts[j]) <= DEGENERACY_TOL
                ):
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
        """(rho, rows): the coefficient lists of g_1..g_s, each over its
        rational content, integers whose contents multiply to rho (raw,
        with rho = 1, for complex weights); cached per (N, s)."""
        key = (N, s)
        if key not in self._rows:
            rows = [self._row_coeffs(N, s, i) for i in range(1, s + 1)]
            rho = Fraction(1)
            if self.exact:
                contents = [_content(cs) for cs in rows]
                rows = [cs for _, cs in contents]
                for k, _ in contents:
                    rho *= k
            self._rows[key] = rho, rows
        return self._rows[key]

    def _row_coeffs(self, N, s, i):
        """Coefficients of g_i(z) = z^(s-i) (z-1)^(i-1) h_{N-s+i}(z)."""
        self.sweep(N)  # g_1..g_s take h_(N-s+1)..h_N: one sweep for all
        out = [Fraction(0)] * (s - i) + self.h_coeffs(N - s + i)
        for _ in range(i - 1):  # multiply by (z - 1)
            out = [-out[0]] + [out[k - 1] - out[k] for k in range(1, len(out))] \
                  + [out[-1]]
        return out


def _hns_line(N, s, rows, point, mobius):
    """Column G_i(z) (ga z + de)^-(N-1) of `hns_vand` at a point read by
    `exact_core._tower_point`, for the rows g_i over their contents."""
    al, be, ga, de = mobius
    top, _, poly = point
    if top is None:
        z = poly[1][0]
        den = ga * z + de
        x = (al * z + be) / den
        return [_horner(cs, x) * den ** (s - 1) for cs in rows]
    # num = kn eps^lo n and den = kd eps^lo d for integer lists n, d; with
    # kn/kd = p/q, num^m den^(D-m) = kd^D q^-D eps^(lo D) (p n)^m (q d)^(D-m)
    D = N + s - 2
    lo = min(poly[0], 0)
    kn, n = _content(_trimmed(_plin(al, be, poly)[1]))
    if ga:
        kd, d = _content(_trimmed(_plin(ga, de, poly)[1]))
    else:
        kd, d = de, [0] * -lo + [1]
    r = Fraction(kn) / kd
    xs = _ppowers((0, [r.numerator * c for c in n]), D)
    ys = _ppowers((0, [r.denominator * c for c in d]), D)
    basis = [_pmul(xs[m], ys[D - m])[1] for m in range(D + 1)]
    polys = []
    for cs in rows:
        acc = [0] * max(map(len, basis))
        for c, b in zip(cs, basis):
            if c:
                for j, v in enumerate(b):
                    acc[j] += c * v
        polys.append((lo * D, acc))
    return _point_line(point, polys, kd ** (s - 1) / Fraction(r.denominator) ** D,
                       ((lo, d), N - 1))


def _point_lines(points, make):
    """[make(i) for each point i] of points read by
    `exact_core._tower_point`, each distinct line made once: a point
    with the polynomial and the window of an earlier one takes that
    point's `Line` moved to its own level."""
    made, out = {}, []
    for i, (top, level, (lo, cs)) in enumerate(points):
        key = (top and top.precs[level], lo, tuple(cs))
        line = made.get(key)
        if line is None:
            line = made[key] = make(i)
        elif top is not None:
            line = Line(line.k, top, level, line.lo, line.rows, line.err)
        out.append(line)
    return out


@lru_cache(maxsize=CACHE_SIZE)
def family(w) -> BoundaryGenFamily:
    """Memoized family per weight triple (WeightTriple or NumericTriple,
    both hashed by value), least recently used first out past
    CACHE_SIZE triples."""
    return BoundaryGenFamily(w)


def _pole_guard(w: WeightTriple):
    """(t, Delta) for the residue integrands of bethe_reps and efp_reps,
    whose pair factors p z_j z_k - q z_j + 1 (`_pair_quotient`) need
    t^2 - 2 Delta t + 1 = c^2/a^2 nonzero."""
    t, delta = w.t(), w.delta()
    if t * t - 2 * delta * t + 1 == 0:
        raise PoleCollision("t^2 - 2*Delta*t + 1 = 0 (equals c^2/a^2)")
    return t, delta


def _pair_quotient(f, zs, p, q, ordered=False):
    """f / prod (p z_j z_k - q z_j + 1) over the pairs j < k, or over
    all j != k when `ordered`.  Each pair factor divides f in turn: on
    a tower that costs size(f) * terms(factor), where dividing by their
    product would first expand it densely."""
    n = len(zs)
    for j in range(n):
        for k in range(n):
            if k > j or (ordered and k != j):
                f = f / (p * zs[j] * zs[k] - q * zs[j] + 1)
    return f


# ---------------------------------------------------------------------------
# partially inhomogeneous partition function
# ---------------------------------------------------------------------------

def gamma_change(xi, lam, eta):
    """gamma(xi) = [a(lam,0)/b(lam,0)] * [b(lam+xi,0)/a(lam+xi,0)]."""
    return (a_fn(lam, 0, eta) / b_fn(lam, 0, eta)) \
        * (b_fn(lam + xi, 0, eta) / a_fn(lam + xi, 0, eta))


def partially_inhomogeneous_Z(lambdas, lam0, eta) -> complex:
    """Z_N(l_1..l_N; 0..0) from the homogeneous Z and h_{N,N} evaluated
    at gamma(l_j - lam0)."""
    N = len(lambdas)
    a0, b0, c0 = homogeneous_abc(lam0, eta)
    fam = family(NumericTriple(a0, b0, c0))
    z_hom = ik_homogeneous(N, lam0, eta)
    pref = 1 + 0j
    for l in lambdas:
        pref *= (a_fn(l, 0, eta) / a0) ** (N - 1)
    pts = [gamma_change(l - lam0, lam0, eta) for l in lambdas]
    try:
        h = fam.hns_value(N, N, pts)
    except DegeneratePoints:
        h = fam.hns_poly(N, N).eval(pts)
    return z_hom * pref * h


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
    depend on s - 1 of the y's, are cofactor expansions.  On a tower
    this multiplies small one-sided factors instead of expanding
    det[g_k(x_j)], and a y-only `yfactor` (the y side of an integrand)
    goes into each y-only minor, so it is never multiplied into the
    full sum.
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
    points = [_tower_point(x) for x in xs]
    powers = [_ppowers(p[2], 2 * s - 2) for p in points]
    terms = [line_det(_point_lines(points, lambda i: _point_line(
                 points[i], [powers[i][m] for m in S])))
             * (yfactor * poly_det([[cs[m] for cs in coeffs] for m in S]))
             for S in combinations(range(2 * s - 1), s)]
    return sum(terms[1:], terms[0])


def cantini_P_confluent(xs, c, delta):
    """P_s(x; c..c) Vand(x), the confluent limit of `cantini_P_vand` at
    coincident y's: det over rows j and columns m = 0..s-1 of

        sum_{i+l=m} x_j^i (2D x_j - 1)^l A_j^(s-1-i) B_j^(s-1-l),

    A = 1 - x c, B = x + c - 2D x c.  Dividing det[g_k(x_j)] by Vand(y)
    and letting every y_k -> c takes the m-th y-Taylor coefficient of
    1/((1 - x y)(x + y - 2D x y)) at y = c, times (A B)^s.  Row j
    depends on x_j alone: at tower points it is expanded in x_j's tower
    variable and the determinant built by `exact_core.line_det`, a
    `Scaled` element on integer leaves.
    """
    s = len(xs)
    lines = []
    for x in xs:
        point = _tower_point(x)
        p = point[2]
        xp = _ppowers(p, s - 1)
        dp = _ppowers(_plin(2 * delta, -1, p), s - 1)
        ap = _ppowers(_plin(-c, 1, p), s - 1)
        bp = _ppowers(_plin(1 - 2 * delta * c, c, p), s - 1)
        polys = []
        for m in range(s):
            acc = (0, [])
            for i in range(m + 1):
                acc = _padd(acc, _pmul(_pmul(xp[i], dp[m - i]),
                                       _pmul(ap[s - 1 - i], bp[s - 1 - m + i])))
            polys.append(acc)
        lines.append(_point_line(point, polys))
    return line_det(lines)
