"""Hankel-moment orthogonal polynomials and truncated Taylor calculus.

The homogeneous determinant of phi-derivatives is the Gram (Hankel)
determinant of a moment sequence c_n = d^n phi / d lam^n, so it defines
a family of monic orthogonal polynomials P_n with norms h_n.  The
scaled polynomials

    K_n(x) = n! phi^(n+1) / h_n * P_n(x)

act as differential operators K_n(d/d eps) on functions of

    omega(eps)  = (1/t) sin(eps)/sin(eps - 2 eta),
    omegat(eps) =  t    sin(eps)/sin(eps + 2 eta),

and every boundary-correlation quantity becomes such a pairing
evaluated at eps = 0.  The key identity converts the pairing into a
contour integral around the origin weighted by h_N(z):

    K_{N-1}(d_eps) f(omega(eps))|_0
        = [z^(N-1)] (z - 1)^(N-1) h_N(z) f(z),

which is verified here directly, together with the orthogonal
polynomial representations of psi_bot, psi_top and the emptiness
formation probability.  psi_top is psi_bot in the complementary
positions at lam -> pi - lam, the a<->b crossing.

The measure mu(x) behind the moments is never constructed: everything
below needs only the c_n, which keeps the module valid in every weight
regime.  All arithmetic is truncated multivariate Taylor calculus over
complex doubles, on the towers of the exact engine (tolerances here are
sized for doubles).  A pairing det[K_{n_i}(d_{eps_j})] f|_0 is an
iterated residue: K_n(d_eps) f|_0 = sum_m kappa_{n,m} m! [eps^m] f is
the residue of f k_n(eps), k_n(eps) = sum_m kappa_{n,m} m! eps^(-m-1),
so f is contracted against det[k_{n_i}(eps_j)] by `iterated_residue`.
The Taylor series start from the sines and cosines of `trig`, the
moments are `ik_numeric.phi_derivatives`, and nothing here needs
`ik_engine`, so no ortho route loads it.
The Hankel solve of `OrthoFamily.__init__` is `elimination`'s, exact
from its float entries and rounded once; it imports it when called.
"""

from __future__ import annotations

import cmath
import math

from .errors import (DegenerateHankel, NearDegenerate, Singular,
                     TruncationInsufficient)
from .exact_core import (_pmul, _ppowers, build_tower, iterated_residue,
                         poly_det)
from .ik_numeric import phi_derivatives
from .lattice_oracle import EfpQuery, RowConfig, enumerate_Z
from .rational import _horner
from .trig import (DEGENERACY_TOL, NumericTriple, homogeneous_abc, sin_cos,
                   sin_ratio)


# ---------------------------------------------------------------------------
# moments and the orthogonal family
# ---------------------------------------------------------------------------

class OrthoFamily:
    """Monic orthogonal polynomials P_0..P_{N-1}, norms, and K_n, from
    the moments c_n = d^n phi/d lam^n, n = 0..2N-2."""

    def __init__(self, N, c):
        from .elimination import solve
        self.phi = c[0]
        self.P = []       # monic coefficient lists, ascending
        self.norms = []
        for n in range(N):
            if n == 0:
                p = [1.0 + 0j]
            else:
                try:
                    sol = solve([[c[i + k] for k in range(n)]
                                 for i in range(n)],
                                [-c[n + i] for i in range(n)])
                except (NearDegenerate, Singular) as exc:
                    raise DegenerateHankel(
                        f"Hankel minor at n={n}: {exc}") from exc
                if not all(map(cmath.isfinite, sol)):
                    raise DegenerateHankel(f"singular Hankel minor at n={n}")
                p = sol + [1.0 + 0j]
            h = sum(p[m2] * c[m2 + n] for m2 in range(n + 1))
            if abs(h) < 1e-13:
                raise DegenerateHankel(f"vanishing norm h_{n}")
            self.P.append(p)
            self.norms.append(h)

    def K_coeffs(self, n):
        """Coefficients of K_n(x) = n! phi^(n+1)/h_n P_n(x), ascending."""
        scale = math.factorial(n) * self.phi ** (n + 1) / self.norms[n]
        return [scale * c for c in self.P[n]]


def _moments(lam, eta, nmax):
    """phi_derivatives, with moments that lost their digits refused as
    DegenerateHankel: no family can be built from them."""
    try:
        return phi_derivatives(lam, eta, nmax)
    except NearDegenerate as exc:
        raise DegenerateHankel(str(exc)) from exc


def build_ortho_family(N, lam, eta) -> OrthoFamily:
    return OrthoFamily(N, _moments(lam, eta, 2 * N - 2))


# ---------------------------------------------------------------------------
# Taylor calculus
# ---------------------------------------------------------------------------

def sin_taylor(eps, shift, order):
    """Taylor of sin(eps + shift) around eps = 0 on the tower."""
    s, c = sin_cos(shift)
    acc = eps.ring.const(s)
    term = eps
    for k in range(1, order + 1):
        coef = c if k % 2 == 1 else s
        sign = -1 if (k % 4) in (2, 3) else 1
        acc = acc + (sign * coef / math.factorial(k)) * term
        term = term * eps
    return acc


def omega_taylor(eps, lam, eta, order):
    """omega(eps) = [sin(lam+eta)/sin(lam-eta)] sin(eps)/sin(eps-2eta)."""
    pref = sin_ratio(lam + eta, lam - eta)
    return pref * sin_taylor(eps, 0.0, order) / sin_taylor(eps, -2 * eta, order)


def omegat_taylor(eps, lam, eta, order):
    """omegat(eps) = [sin(lam-eta)/sin(lam+eta)] sin(eps)/sin(eps+2eta)."""
    pref = sin_ratio(lam - eta, lam + eta)
    return pref * sin_taylor(eps, 0.0, order) / sin_taylor(eps, 2 * eta, order)


def _k_kernel(ring, j, kappa):
    """k_n(eps_j) = sum_m kappa_m m! eps_j^(-m-1) on the tower `ring`,
    for the coefficients kappa of K_n: the residue in eps_j of f k_n is
    sum_m kappa_m m! [eps_j^m] f = K_n(d_eps_j) f at eps_j = 0.  Built
    exact: a power of 1/eps_j from the tower would carry a window."""
    return ring.laurent(j, -len(kappa), [kappa[m] * math.factorial(m)
                                         for m in reversed(range(len(kappa)))])


# ---------------------------------------------------------------------------
# the key identity
# ---------------------------------------------------------------------------

def verify_claim(N, lam, eta, f_coeffs) -> float:
    """Relative residual of the pairing-to-contour identity for a
    polynomial f (ascending complex coefficients).

    LHS: K_{N-1}(d_eps) f(omega(eps)) at eps = 0.
    RHS: [z^(N-1)] (z-1)^(N-1) h_N(z) f(z) with h_N from the oracle,
    the products by `exact_core._pmul`.
    """
    lhs = _det_pairing(N, 1, lam, eta,
                       lambda ring, oms, omts: _horner(f_coeffs, oms[0]))

    from .lattice_oracle import boundary_generating_poly
    h_n = list(boundary_generating_poly(N, NumericTriple(
        *homogeneous_abc(lam, eta))))
    zpow = _pmul(_ppowers((0, [-1, 1]), N - 1)[-1], (0, h_n))
    _, zpow = _pmul(zpow, (0, list(f_coeffs)), N)
    rhs = zpow[N - 1] if N - 1 < len(zpow) else 0j
    return abs(lhs - rhs) / max(1.0, abs(rhs))


# ---------------------------------------------------------------------------
# orthogonal-polynomial representations
# ---------------------------------------------------------------------------

def _det_pairing(N, s, lam, eta, build_f, order=None):
    """det[K_{N-s+i}(d_{eps_j})] f(eps_1..eps_s)|_0, the iterated residue
    of f against det[k_{N-s+i}(eps_j)] (see `_k_kernel`)."""
    fam = build_ortho_family(N, lam, eta)
    order = N - 1 if order is None else order
    # complex Taylor tower in eps_0..eps_{s-1}, each to `order`
    ring, atoms = build_tower([(f"e{j}", order + 1) for j in range(s)])
    eps = [atoms[f"e{j}"] for j in range(s)]
    oms = [omega_taylor(e, lam, eta, order) for e in eps]
    omts = [omegat_taylor(e, lam, eta, order) for e in eps]
    kernel = poly_det([[_k_kernel(ring, j, fam.K_coeffs(N - s + i))
                        for j in range(s)] for i in range(s)])
    # a pairing that vanishes exactly, or one of no variables, comes out
    # of the tower as a Fraction: the value is complex all the same
    return complex(iterated_residue((build_f(ring, oms, omts), kernel)))


def efp_ortho(q: EfpQuery, lam, eta) -> complex:
    """Emptiness formation probability via the K-determinant pairing,
    checked against the pairing at one order more."""
    N, r, s = q.N, q.r, q.s

    def build_f(ring, oms, omts):
        f = ring.const(1)
        for j in range(s):
            f = f * oms[j] ** (N - r) / (oms[j] - 1) ** N
        for j in range(s):
            for k in range(j + 1, s):
                f = f * (1 - omts[j]) * (oms[k] - 1) / (omts[j] * oms[k] - 1)
        return f

    val = (-1) ** s * _det_pairing(N, s, lam, eta, build_f)
    again = (-1) ** s * _det_pairing(N, s, lam, eta, build_f, order=N + 1)
    if abs(val - again) > 1e-8 * max(1.0, abs(val)):
        raise TruncationInsufficient(f"{val} vs {again} at higher order")
    return val


def _check_c(c):
    """The psi prefactors divide by powers of c = sin 2eta."""
    if abs(c) <= DEGENERACY_TOL:
        raise Singular("c = sin 2eta = 0: the psi prefactor is undefined")


def psi_bot_ortho(cfg: RowConfig, lam, eta) -> complex:
    """Bottom component via the K-determinant pairing (valid in every
    regime; no reference to the measure)."""
    N, s, rs = cfg.n, cfg.s, cfg.positions
    a, b, c = homogeneous_abc(lam, eta)
    _check_c(c)
    # refuse a lam without moments before the prefactor divides by
    # b = sin(lam - eta), which is 0 where phi is undefined
    _moments(lam, eta, 0)
    if N == 0:
        return 1 + 0j  # the empty lattice, which has no Hankel family

    def build_f(ring, oms, omts):
        f = ring.const(1)
        for j in range(s):
            f = f * oms[j] ** (N - rs[j] - s + (j + 1)) \
                * omts[j] ** (s - (j + 1)) / (oms[j] - 1) ** (N - s)
        for j in range(s):
            for k in range(j + 1, s):
                f = f / (omts[j] * oms[k] - 1)
        return f

    z_n = enumerate_Z(N, NumericTriple(a, b, c))
    pref = z_n / (a ** (s * (2 * N - s + 1) // 2)
                  * b ** (s * (s - 3) // 2) * c ** s)
    for r in rs:
        pref *= (a / b) ** r
    return pref * _det_pairing(N, s, lam, eta, build_f)


def psi_top_ortho(cfg: RowConfig, lam, eta) -> complex:
    """Top component as the a<->b crossing image of psi_bot_ortho in the
    complementary positions: lam -> pi - lam swaps a and b, and Z_N is
    symmetric under the swap.  lam is checked before the crossing, so
    that a refusal names the lam given, not pi - lam."""
    _moments(lam, eta, 0)
    return psi_bot_ortho(cfg.complement(), math.pi - lam, eta)
