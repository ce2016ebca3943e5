"""Determinant formulas and the boundary-correlation polynomial family.

The inhomogeneous partition function is the Izergin-Korepin determinant

    Z_N = prod a(l_a,n_k) b(l_a,n_k) / (prod d(l_b,l_a) prod d(n_j,n_k))
          * det[ phi(l_a, n_k) ],      phi = c / (a b),

with a(l,n) = sin(l-n+eta), b(l,n) = sin(l-n-eta), c = sin 2eta and
d(l,l') = sin(l-l').  In the homogeneous limit it becomes a Hankel
determinant of derivatives of phi(l); those derivatives are generated
exactly through the cotangent recurrence (each one is an integer
polynomial in cot(l-eta) and cot(l+eta)), because finite differences
lose every digit well before the 2N-2 orders the formula needs.

The same module owns the generating-polynomial family h_M(z) of the
one-point boundary correlation and its multivariate extension
h_{N,s}(z_1..z_s), a symmetric polynomial of degree N-1 per variable
defined by a Vandermonde-divided determinant.  Three forms are
provided.  The determinant form `hns_vand` returns h_{N,s}(M(z)) times
the Vandermonde of the z's, for a Moebius map M of the arguments: the
Vandermonde cancels, so it needs no division, takes coincident points
and Laurent-tower elements, and is what every residue integrand (which
carries that Vandermonde itself) multiplies in.  `hns_value` divides it
by the Vandermonde at pairwise distinct points.  `hns_poly` divides the
Vandermonde out symbolically by divided differences; no residue
integrand and no identity check uses it.  It serves only the
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
own pair factors.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations

import numpy as np

from .errors import DegeneratePoints, NearDegenerate, Singular
from .exact_core import (
    ExactPoly,
    MultiPoly,
    complete_homogeneous,
    poly_det,
)
from .lattice_oracle import WeightMatrix, WeightTriple, boundary_generating_poly

DEGENERACY_TOL = 1e-8

# bound of the per-weight cache `family`
CACHE_SIZE = 64


# ---------------------------------------------------------------------------
# trigonometric parametrization
# ---------------------------------------------------------------------------

def a_fn(l, n, eta):
    return cmath.sin(l - n + eta)


def b_fn(l, n, eta):
    return cmath.sin(l - n - eta)


def d_fn(x, y):
    return cmath.sin(x - y)


def e_fn(x, y, eta):
    return cmath.sin(x - y + 2 * eta)


@dataclass(frozen=True)
class TrigParams:
    """Spectral parameters of the inhomogeneous model.

    lambdas attach to vertical lines (right to left), nus to horizontal
    lines (top to bottom); eta is the coupling.  Each set must be
    pairwise distinct or the determinant prefactors are 0/0; the
    coordinate-wavefunction limit legitimately takes all lambdas equal,
    which `allow_coincident_lambdas` admits (nu's stay constrained).
    """

    lambdas: tuple
    nus: tuple
    eta: complex

    def __init__(self, lambdas, nus, eta, allow_coincident_lambdas=False):
        object.__setattr__(self, "lambdas", tuple(lambdas))
        object.__setattr__(self, "nus", tuple(nus))
        object.__setattr__(self, "eta", eta)
        sets = [("nu", self.nus)]
        if not allow_coincident_lambdas:
            sets.append(("lambda", self.lambdas))
        for name, vals in sets:
            for i in range(len(vals)):
                for j in range(i + 1, len(vals)):
                    if abs(d_fn(vals[i], vals[j])) <= DEGENERACY_TOL:
                        raise NearDegenerate(
                            f"{name}[{i}] and {name}[{j}] collide within "
                            f"{DEGENERACY_TOL}")

    @property
    def n(self):
        return len(self.lambdas)

    def weight_matrix(self) -> WeightMatrix:
        """Numeric vertex weights a_{alpha k} = a(l_alpha, nu_k) etc."""
        a = [[a_fn(l, v, self.eta) for v in self.nus] for l in self.lambdas]
        b = [[b_fn(l, v, self.eta) for v in self.nus] for l in self.lambdas]
        return WeightMatrix(a, b, cmath.sin(2 * self.eta))


def homogeneous_abc(lam, eta):
    """Weights of the homogeneous model (nu = 0): a = sin(lam+eta),
    b = sin(lam-eta), c = sin 2eta."""
    return (cmath.sin(lam + eta), cmath.sin(lam - eta), cmath.sin(2 * eta))


@dataclass(frozen=True)
class NumericTriple:
    """Homogeneous complex weights with the lattice_oracle interface;
    hashes by value, like WeightTriple, so `family` caches it."""

    a: complex
    b: complex
    c: complex

    def __post_init__(self):
        for name in ("a", "b", "c"):
            object.__setattr__(self, name, complex(getattr(self, name)))

    def delta(self):
        return (self.a**2 + self.b**2 - self.c**2) / (2 * self.a * self.b)

    def t(self):
        return self.b / self.a

    def weight(self, alpha, k, kind):
        return getattr(self, kind)

    @staticmethod
    def zero():
        return 0j


# ---------------------------------------------------------------------------
# Izergin-Korepin determinants
# ---------------------------------------------------------------------------

def ik_determinant(p: TrigParams) -> complex:
    """Z_N of the inhomogeneous model via the determinant formula."""
    N, eta = p.n, p.eta
    pref = 1 + 0j
    for l in p.lambdas:
        for v in p.nus:
            pref *= a_fn(l, v, eta) * b_fn(l, v, eta)
    den = 1 + 0j
    for i in range(N):
        for j in range(i + 1, N):
            den *= d_fn(p.lambdas[j], p.lambdas[i]) * d_fn(p.nus[i], p.nus[j])
    c = cmath.sin(2 * eta)
    m = np.array(
        [[c / (a_fn(l, v, eta) * b_fn(l, v, eta)) for v in p.nus]
         for l in p.lambdas],
        dtype=complex,
    )
    return pref / den * complex(np.linalg.det(m))


@lru_cache(maxsize=None)
def _phi_cot_polys(nmax: int):
    """Integer polynomials q_n with d^n/dl^n cot(l+const) = q_n(cot).

    q_0(x) = x and differentiation acts on monomials as
    D x^k = -k (x^(k-1) + x^(k+1)), since (cot)' = -(1 + cot^2).
    """
    polys = [ExactPoly([0, 1])]
    for _ in range(nmax):
        prev = polys[-1]
        nxt = ExactPoly([0])
        for k, cf in enumerate(prev.coeffs):
            if cf == 0 or k == 0:
                continue
            nxt = nxt + ExactPoly([0] * (k - 1) + [-k * cf, 0, -k * cf])
        polys.append(nxt)
    return polys


def phi_derivatives(lam, eta, nmax: int):
    """[d^n phi / d lam^n for n = 0..nmax] with phi = sin2eta /
    (sin(lam-eta) sin(lam+eta)) = cot(lam-eta) - cot(lam+eta)."""
    su, sv = cmath.sin(lam - eta), cmath.sin(lam + eta)
    if min(abs(su), abs(sv)) <= DEGENERACY_TOL:
        raise Singular("lam = +/- eta (mod pi): phi undefined")
    u = cmath.cos(lam - eta) / su
    v = cmath.cos(lam + eta) / sv
    polys = _phi_cot_polys(nmax)
    return [complex(q.eval(u)) - complex(q.eval(v)) for q in polys[: nmax + 1]]


def ik_homogeneous(N: int, lam, eta) -> complex:
    """Homogeneous Z_N via the Hankel determinant of phi-derivatives.
    Z_0 = 1 (empty lattice)."""
    if N == 0:
        return 1 + 0j
    a, b, _ = homogeneous_abc(lam, eta)
    cs = phi_derivatives(lam, eta, 2 * N - 2)
    m = np.array([[cs[i + k] for k in range(N)] for i in range(N)], dtype=complex)
    pref = (a * b) ** (N * N)
    for n in range(1, N):
        pref /= math.factorial(n) ** 2
    return pref * complex(np.linalg.det(m))


def _powers(x, n):
    """[1, x, .., x^n] (just [1] for n <= 0)."""
    out = [1]
    for _ in range(n):
        out.append(out[-1] * x)
    return out


# ---------------------------------------------------------------------------
# boundary generating polynomials h_M and their multivariate extension
# ---------------------------------------------------------------------------

class BoundaryGenFamily:
    """Cache of h_M(z) for M = 1..N at fixed homogeneous weights.

    Exact (ExactPoly) for a WeightTriple, complex coefficient lists for
    NumericTriple; h_M(1) = 1 holds in both regimes.
    """

    def __init__(self, w):
        self.w = w
        self.exact = isinstance(w, WeightTriple)
        self._h = {}
        self._hns_cache = {}

    def h(self, M: int):
        if M not in self._h:
            hm = boundary_generating_poly(M, self.w)
            self._h[M] = hm if self.exact else list(hm)
        return self._h[M]

    def h_coeffs(self, M: int):
        hm = self.h(M)
        return list(hm.coeffs) if self.exact else list(hm)

    def htilde_coeffs(self, M: int):
        """z^(M-1) h_M(1/z): the coefficient list reversed."""
        cs = self.h_coeffs(M)
        cs = cs + [Fraction(0) if self.exact else 0j] * (M - len(cs))
        return cs[::-1]

    # -- determinant form ----------------------------------------------

    def hns_vand(self, N: int, s: int, zs, mobius=(1, 0, 0, 1), tilde=False):
        """h_{N,s}(M(z_1)..M(z_s)) * prod_{j<k} (z_k - z_j) for the Moebius
        map M(z) = (al z + be)/(ga z + de), mobius = (al, be, ga, de).

        M(z_k) - M(z_j) = (al de - be ga)(z_k - z_j)/((ga z_k + de)(ga z_j
        + de)), so the Vandermonde cancels and the value is

            det[g_i(M(z_j))] prod_j (ga z_j + de)^(s-1)
                / (al de - be ga)^(s(s-1)/2).

        Column j is evaluated as G_i(z_j) = g_i(M(z_j)) (ga z_j + de)^D,
        D = N+s-2 the top degree of the g_i, an exact polynomial in z_j;
        only (ga z_j + de)^(-(N-1)) is left to invert.  Nothing is divided
        by a Vandermonde, so the z_j may coincide and may be Laurent-tower
        elements.
        """
        zs = list(zs)
        if len(zs) != s:
            raise ValueError("need s evaluation points")
        al, be, ga, de = mobius
        det_m = al * de - be * ga
        if det_m == 0:
            raise ValueError("degenerate Moebius map")
        one = Fraction(1) if self.exact else 1 + 0j
        if s == 0:
            return one
        rows = [self._row_coeffs(N, s, i, tilde) for i in range(1, s + 1)]
        top = N + s - 2
        cols, inv_dens = [], []
        for z in zs:
            num = z if (al, be) == (1, 0) else al * z + be
            nums = _powers(num, top)
            if ga == 0 and de == 1:
                basis = nums
            else:
                den = ga * z + de if ga else de
                dens = _powers(den, top)
                basis = [nums[k] * dens[top - k] for k in range(top + 1)]
                if ga:
                    inv_dens.append((one / den) ** (N - 1))
            col = []
            for cs in rows:
                terms = [cf * basis[k] for k, cf in enumerate(cs) if cf != 0]
                col.append(sum(terms[1:], terms[0]))
            cols.append(col)
        val = poly_det([[col[i] for col in cols] for i in range(s)])
        for inv in inv_dens:
            val = val * inv
        scale = det_m ** (s * (s - 1) // 2)
        if ga == 0:
            scale = scale * de ** (s * (N - 1))
        return val if scale == 1 else val * (one / scale)

    def hns_value(self, N: int, s: int, points, tilde=False):
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
        return self.hns_vand(N, s, pts, tilde=tilde) / van

    # -- exact polynomial form -----------------------------------------

    def hns_poly(self, N: int, s: int, tilde=False) -> MultiPoly:
        """h_{N,s} as a symmetric MultiPoly (degree N-1 per variable).

        The Vandermonde is divided out by divided differences: the
        column of samples g_i(z_j) turns into g_i[z_1..z_j], and the
        divided difference of a monomial z^m over j nodes is the
        complete homogeneous polynomial of degree m-j+1.
        """
        key = (N, s, tilde)
        cache = self._hns_cache
        if key not in cache:
            if s == 0:
                cache[key] = MultiPoly.constant(0, Fraction(1))
            else:
                mat = []
                for i in range(1, s + 1):
                    cs = self._row_coeffs(N, s, i, tilde)
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

    def _row_coeffs(self, N, s, i, tilde):
        """Coefficients of g_i(z) = z^(s-i) (z-1)^(i-1) h_{N-s+i}(z)."""
        base = (self.htilde_coeffs(N - s + i) if tilde
                else self.h_coeffs(N - s + i))
        poly = [Fraction(0)] * (s - i) + list(base)  # z^(s-i) shift
        out = poly
        for _ in range(i - 1):  # multiply by (z - 1)
            out = [-out[0]] + [out[k - 1] - out[k] for k in range(1, len(out))] \
                  + [out[-1]]
        return out


@lru_cache(maxsize=CACHE_SIZE)
def family(w) -> BoundaryGenFamily:
    """Memoized family per weight triple (WeightTriple or NumericTriple,
    both hashed by value), least recently used first out past
    CACHE_SIZE triples."""
    return BoundaryGenFamily(w)


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
    may be Fractions or Laurent-tower elements.  With g_k(x) = sum_m
    c_{k,m}(y) x^m the determinant is taken by Cauchy-Binet, sum over
    s-subsets S of the x-powers 0..2s-2 of det[x_j^m]_{m in S} (x only)
    times det[c_{k,m}(y)]_{m in S} (y only).  On a tower this multiplies
    small one-sided factors instead of expanding det[g_k(x_j)], and a
    y-only `yfactor` (the y side of an integrand) goes into each y-only
    minor, so it is never multiplied into the full sum.
    """
    s = len(xs)
    # (1 - x y)(x + y - 2D x y) as coefficients of x^0, x^1, x^2
    quads = [[y, 1 - 2 * delta * y - y * y, (2 * delta * y - 1) * y]
             for y in ys]
    coeffs = []
    for k in range(s):
        cs = [1]
        for kp in range(s):
            if kp != k:
                out = [0] * (len(cs) + 2)
                for i, a in enumerate(cs):
                    for l, b in enumerate(quads[kp]):
                        out[i + l] = out[i + l] + a * b
                cs = out
        coeffs.append(cs)
    powers = [_powers(x, 2 * s - 2) for x in xs]
    terms = [poly_det([[pw[m] for m in S] for pw in powers])
             * (yfactor * poly_det([[cs[m] for cs in coeffs] for m in S]))
             for S in combinations(range(2 * s - 1), s)]
    return sum(terms[1:], terms[0])


def cantini_P_confluent(xs, c, delta):
    """P_s(x; c..c) Vand(x), the confluent limit of `cantini_P_vand` at
    coincident y's: det over rows j and columns m = 0..s-1 of

        sum_{i+l=m} x_j^i (2D x_j - 1)^l A_j^(s-1-i) B_j^(s-1-l),

    A = 1 - x c, B = x + c - 2D x c.  Dividing det[g_k(x_j)] by Vand(y)
    and letting every y_k -> c takes the m-th y-Taylor coefficient of
    1/((1 - x y)(x + y - 2D x y)) at y = c, times (A B)^s.
    """
    s = len(xs)
    rows = []
    for x in xs:
        xp, dp = _powers(x, s - 1), _powers(2 * delta * x - 1, s - 1)
        ap = _powers(1 - x * c, s - 1)
        bp = _powers(x + c - 2 * delta * x * c, s - 1)
        row = []
        for m in range(s):
            terms = [xp[i] * dp[m - i] * ap[s - 1 - i] * bp[s - 1 - m + i]
                     for i in range(m + 1)]
            row.append(sum(terms[1:], terms[0]))
        rows.append(row)
    return poly_det(rows)
