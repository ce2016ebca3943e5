"""The float routes of the trigonometric model: Izergin-Korepin
determinants and the multiple-sum representations of psi.

The inhomogeneous partition function is the Izergin-Korepin determinant

    Z_N = prod a(l_a,n_k) b(l_a,n_k) / (prod d(l_b,l_a) prod d(n_j,n_k))
          * det[ phi(l_a, n_k) ],      phi = c / (a b),

with a(l,n) = sin(l-n+eta), b(l,n) = sin(l-n-eta), c = sin 2eta and
d(l,l') = sin(l-l'), the weights of `trig`, which also holds the
parameter record `TrigParams` and takes every sine and cosine this
module needs.  In the homogeneous limit it becomes a Hankel
determinant of derivatives of phi(l); those derivatives are generated
exactly through the cotangent recurrence (each one is an integer
polynomial in cot(l-eta) and cot(l+eta)), because finite differences
lose every digit well before the 2N-2 orders the formula needs.
`hankel_orthopoly` takes the same derivatives as its moments.

psi_top (N x s) and psi_bot (N x (N-s)) of the fully inhomogeneous
model each come here as

* nested-exclusion multiple sums over alpha_1 <= r_1, ..., alpha_s <=
  r_s with alpha_j distinct, over minors of the phi matrix or with an
  inner s x s IK determinant; the dual sum, in the complementary
  positions, is the a<->b crossing image of psi_bot_sum (lam -> pi -
  lam, the nu's negated and rotated);

* the coordinate-wavefunction permutation sum (the equal-lambdas
  special case is the classic s-particle wavefunction).

The sums are generated by depth-first index generation with an
exclusion set, literally following the alpha_j not-in
{alpha_1..a_{j-1}} structure.

Every determinant here (the IK determinants and the sums' minors) is
`elimination.det`, exact from the float entries and rounded once,
which is imported when called.  The routes that divide by d(l_i,
l_j), the IK determinant and the sums, refuse coincident lambdas
themselves (NearDegenerate): `TrigParams` checks only the nus, so the
coordinate sum takes the equal-lambdas limit.  The phi matrix refuses
an a or b weight that is exactly 0 at a site (`_divisor_weight`), and
a Z_N past the float range, whose factors underflow to 0 or overflow,
is refused as SizeLimit rather than printed as 0, nan or inf.  Nothing
here touches the exact engine: the module needs `errors`, `rational`
and `trig` only (and `RowConfig` of `lattice_oracle`, which `trig`
loads anyway), so a float route never compiles `exact_core`.
"""

from __future__ import annotations

import cmath
import math
from functools import lru_cache
from itertools import permutations

from .errors import NearDegenerate, SizeLimit, Singular
from .lattice_oracle import RowConfig
from .rational import _horner, _perm_sign
from .trig import (DEGENERACY_TOL, TrigParams, a_fn, b_fn, c_fn,
                   check_distinct, d_fn, e_fn, homogeneous_abc, sin_cos)


# ---------------------------------------------------------------------------
# Izergin-Korepin determinants
# ---------------------------------------------------------------------------

def _float_range(N, z):
    """Z_N = z, unless z is inf or nan: its factors left the float
    range, which raises SizeLimit."""
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise SizeLimit(f"Z_{N} leaves the float range (magnitudes about "
                        f"4.9e-324 to 1.8e308): its factors give {z}")
    return z


def _nonzero(N, x, what):
    """Raise SizeLimit naming `what` when x, a product of nonzero
    factors, underflowed to 0."""
    if x == 0:
        raise SizeLimit(f"Z_{N} leaves the float range: {what} underflows "
                        "to 0 (below about 4.9e-324)")


def ik_determinant(p: TrigParams) -> complex:
    """Z_N of the inhomogeneous model via the determinant formula.
    Z_0 = 1 (empty lattice)."""
    from .elimination import det
    check_distinct("lambda", p.lambdas)
    N, eta = p.n, p.eta
    pref = 1 + 0j
    for l in p.lambdas:
        for v in p.nus:
            pref *= a_fn(l, v, eta) * b_fn(l, v, eta)
    den = 1 + 0j
    for i in range(N):
        for j in range(i + 1, N):
            den *= d_fn(p.lambdas[j], p.lambdas[i]) * d_fn(p.nus[i], p.nus[j])
    # the separation checks keep every d-factor clear of 0, and
    # `_phi_matrix` every a and b (or names the site)
    _nonzero(N, den, "the product of the d-factors")
    phi = _phi_matrix(p)
    _nonzero(N, pref, "the product of the a and b weights")
    return _float_range(N, pref / den * det(phi))


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
    returning them.  From n = 164 on, q_n has integer coefficients past
    the float range, and that raises SizeLimit."""
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
    try:
        return [complex(_horner(q, u)) - complex(_horner(q, v))
                for q in polys[: nmax + 1]]
    except OverflowError:
        raise SizeLimit(f"the phi derivatives up to order {nmax} leave the "
                        "float range (|x| below about 1.8e308)") from None


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
    # phi_derivatives refuses a or b near 0
    _nonzero(N, pref, "the prefactor (ab)^(N^2) / prod k!^2")
    return _float_range(
        N, pref * det([[cs[i + k] for k in range(N)] for i in range(N)]))


# ---------------------------------------------------------------------------
# shared pieces of the multiple sums
# ---------------------------------------------------------------------------

def _nested_exclusion(rs):
    """All index tuples with alpha_j in 1..r_j and alpha_j distinct."""
    out = []
    s = len(rs)

    def rec(j, chosen):
        if j == s:
            out.append(tuple(chosen))
            return
        for alpha in range(1, rs[j] + 1):
            if alpha not in chosen:
                chosen.append(alpha)
                rec(j + 1, chosen)
                chosen.pop()

    rec(0, [])
    return out


def _chi(alpha, beta):
    """0 if alpha < beta else 1 (ordering indicator in the sign factor)."""
    return 0 if alpha < beta else 1


def _minor_det(m, drop_rows, cols):
    """The minor of m on the rows not in `drop_rows` and the columns
    `cols`, both 1-based."""
    from .elimination import det
    return det([[row[k - 1] for k in cols]
                for i, row in enumerate(m, 1) if i not in drop_rows])


def _check_separation(p: TrigParams):
    """The sums divide by d(l_i, l_j) and by e(l_i, l_j) = sin(l_i - l_j
    + 2 eta), each of which must be clear of 0.  The diagonal e(l, l) is
    c, and at c = 0 every psi of one row or more is 0 anyway."""
    check_distinct("lambda", p.lambdas)
    for i in range(p.n):
        for j in range(p.n):
            if abs(e_fn(p.lambdas[i], p.lambdas[j], p.eta)) <= DEGENERACY_TOL:
                raise NearDegenerate(
                    f"e(lambda[{i}], lambda[{j}]) = sin(lambda[{i}] - "
                    f"lambda[{j}] + 2 eta) below tolerance")


def _crossed_params(p: TrigParams, s) -> TrigParams:
    """The a<->b crossing of the parameters at a cut below row s:
    lam -> pi - lam, and nu -> -(nu_{s+1..N}, nu_{1..s}), which puts the
    top rows' negated nu's on the bottom s rows.  A rotation of distinct
    nu's, so no two of them collide."""
    return TrigParams([cmath.pi - l for l in p.lambdas],
                      [-v for v in p.nus[s:] + p.nus[:s]], p.eta)


# ---------------------------------------------------------------------------
# multiple-sum representations (inhomogeneous, numeric)
# ---------------------------------------------------------------------------

def psi_bot_sum(cfg: RowConfig, p: TrigParams) -> complex:
    """Bottom component as an s-fold nested-exclusion sum over minors of
    the phi-matrix (A-operators commuted to the right)."""
    _check_separation(p)
    N, s, rs = cfg.n, cfg.s, cfg.positions
    lam, nu, eta = p.lambdas, p.nus, p.eta
    pref = 1 + 0j
    for l in lam:
        for k in range(s, N):
            pref *= a_fn(l, nu[k], eta) * b_fn(l, nu[k], eta)
    for i in range(N):
        for j in range(i + 1, N):
            pref /= d_fn(lam[j], lam[i])
    for i in range(s, N):
        for j in range(i + 1, N):
            pref /= d_fn(nu[i], nu[j])
    m = _phi_matrix(p)

    def v_r(r, l):
        out = 1 + 0j
        for alpha in range(r + 1, N + 1):
            out *= d_fn(lam[alpha - 1], l)
        for alpha in range(1, r):
            out *= e_fn(lam[alpha - 1], l, eta)
        for k in range(s, N):
            out /= b_fn(l, nu[k], eta)
        return out

    total = 0j
    for alphas in _nested_exclusion(rs):
        sign = (-1) ** (sum(a - 1 for a in alphas)
                        - sum(_chi(alphas[k], alphas[j])
                              for j in range(s) for k in range(j + 1, s)))
        term = complex(sign)
        for j, a in enumerate(alphas):
            term *= v_r(rs[j], lam[a - 1])
        for j in range(s):
            for k in range(j + 1, s):
                term /= e_fn(lam[alphas[j] - 1], lam[alphas[k] - 1], eta)
        term *= _minor_det(m, set(alphas), range(s + 1, N + 1))
        total += term
    return pref * total


def psi_top_sum(cfg: RowConfig, p: TrigParams) -> complex:
    """Top component as an s-fold sum with an inner s x s partition
    function (B-operators commuted through the D's)."""
    _check_separation(p)
    N, s, rs = cfg.n, cfg.s, cfg.positions
    lam, nu, eta = p.lambdas, p.nus, p.eta
    c = c_fn(eta)
    total = 0j
    for alphas in _nested_exclusion(rs):
        term = 1 + 0j
        inset = set(alphas)
        for beta in range(1, N + 1):
            if beta in inset:
                continue
            for k in range(s):
                term *= a_fn(lam[beta - 1], nu[k], eta)
        # g/f at coinciding first arguments reduces to c / e
        for j, a in enumerate(alphas):
            term *= c / e_fn(lam[a - 1], lam[rs[j] - 1], eta)
        for j in range(s):
            aj = alphas[j]
            excl = set(alphas[: j + 1])
            for beta in range(1, rs[j] + 1):
                if beta in excl:
                    continue
                term *= e_fn(lam[aj - 1], lam[beta - 1], eta) \
                    / d_fn(lam[aj - 1], lam[beta - 1])
        term *= ik_determinant(
            TrigParams([lam[a - 1] for a in alphas], nu[:s], eta))
        total += term
    return total


def psi_top_dual_sum(cfg: RowConfig, p: TrigParams) -> complex:
    """Top component through the complementary down-arrow positions:
    psi_bot_sum at the crossed parameters (D-operators commuted through
    the B's)."""
    return psi_bot_sum(cfg.complement(), _crossed_params(p, cfg.s))


def psi_top_coordinate(cfg: RowConfig, p: TrigParams) -> complex:
    """Fully inhomogeneous coordinate-wavefunction permutation sum.

    Needs only nu-separation (the lambda differences never appear in a
    denominator), so it covers the equal-lambdas wavefunction limit;
    `TrigParams` refuses colliding nu's when it is built.
    """
    N, s, rs = cfg.n, cfg.s, cfg.positions
    lam, nu, eta = p.lambdas, p.nus, p.eta
    c = c_fn(eta)
    pref = c ** s
    for beta in range(N):
        for k in range(s):
            pref *= a_fn(lam[beta], nu[k], eta)
    for j in range(s):
        for k in range(j + 1, s):
            pref /= d_fn(nu[j], nu[k])
    total = 0j
    for perm in permutations(range(s)):
        sign = _perm_sign(perm)
        term = complex(sign)
        for j in range(s):
            vk, k = nu[perm[j]], perm[j] + 1
            for beta in range(1, rs[j]):
                term *= (b_fn(lam[beta - 1], vk, eta)
                         / _divisor_weight(p, "a", beta, k))
            term /= _divisor_weight(p, "a", rs[j], k)
        for j in range(s):
            for k in range(j + 1, s):
                term *= e_fn(nu[perm[j]], nu[perm[k]], eta)
        total += term
    return pref * total
