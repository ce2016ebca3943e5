"""Closed-form representations of the sublattice partition functions.

psi_top (N x s) and psi_bot (N x (N-s)) each come in several
constructively different forms:

* nested-exclusion multiple sums over alpha_1 <= r_1, ..., alpha_s <=
  r_s with alpha_j distinct, for the fully inhomogeneous model (numeric:
  the summands involve sines of free spectral parameters, all of them
  `trig`'s weight functions); the dual sum, in the complementary
  positions, is the a<->b crossing image of psi_bot_sum (lam -> pi -
  lam, the nu's negated and rotated);

* the coordinate-wavefunction permutation sum (numeric, fully
  inhomogeneous variant; the equal-lambdas special case is the classic
  s-particle wavefunction);

* multiple-integral representations for the homogeneous model,
  evaluated exactly as iterated residues at z = 0 or z = 1 over the
  rational weight data (t = b/a, Delta, the h_{N,s} polynomials).  The
  two dual routes, in the complementary (down-arrow) positions, are no
  integrals of their own: each is the a<->b crossing image of
  psi_bot_mir or psi_top_mir_new.

Every route is checked against the lattice oracle and against the
others; the exact routes agree with the oracle bit-for-bit.

The multiple sums are generated by depth-first index generation with an
exclusion set, literally following the alpha_j not-in {alpha_1..a_{j-1}}
structure.  Sum representations run in numeric mode only and integral
representations in exact mode only; the oracle links the two regimes.
The numeric sums take their determinant minors of `ik_engine`'s
`_phi_matrix` from `_minor_det`, which imports `elimination` on call;
the exact integral representations never load it.
"""

from __future__ import annotations

import cmath
from fractions import Fraction
from itertools import permutations

from .errors import NearDegenerate
from .exact_core import _perm_sign, eps_scale, residue_drive
from .ik_engine import (
    _divisor_weight,
    _pair_quotient,
    _phi_matrix,
    _pole_guard,
    family,
    ik_determinant,
)
from .lattice_oracle import RowConfig, WeightTriple
from .trig import DEGENERACY_TOL, TrigParams, a_fn, b_fn, c_fn, d_fn, e_fn


# ---------------------------------------------------------------------------
# shared pieces
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
    for i in range(p.n):
        for j in range(i + 1, p.n):
            if abs(d_fn(p.lambdas[i], p.lambdas[j])) <= DEGENERACY_TOL:
                raise NearDegenerate("lambda separation below tolerance")
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


# ---------------------------------------------------------------------------
# multiple-integral representations (homogeneous, exact)
# ---------------------------------------------------------------------------

def psi_bot_mir(cfg: RowConfig, w: WeightTriple) -> Fraction:
    """Bottom component as an s-fold residue at z = 0:

    Z_N prod_j t^(j-r_j) / (a^(s(N-1)) c^s) *
    oint prod z_j^(-r_j) prod_{j<k} (z_k - z_j)/(t^2 z_j z_k - 2Dt z_j + 1)
         * h_{N,s}(z)
    """
    N, s, rs = cfg.n, cfg.s, cfg.positions
    fam = family(w)
    if s == 0:
        return fam.z(N)
    t, delta = _pole_guard(w)
    pref = fam.z(N) / (w.a ** (s * (N - 1)) * w.c ** s)
    for j in range(1, s + 1):
        pref *= t ** (j - rs[j - 1])

    def build(zs, ring):
        f = ring.const(1)
        for j in range(s):
            f = f * zs[j] ** (-rs[j])
        f = _pair_quotient(f, zs, t * t, 2 * delta * t)
        return f, fam.hns_vand(N, s, zs)

    # inverted: the pair factors 1 - 2 Delta t z_j + t^2 z_j z_k at z = 0
    return pref * residue_drive([(0, r) for r in rs], build,
                                eps_scale(t, 2 * delta * t))


def psi_top_mir_coordinate(cfg: RowConfig, w: WeightTriple) -> Fraction:
    """Top component from the coordinate wavefunction, as an s-fold
    residue at w = 1 with pole order s per variable."""
    N, s, rs = cfg.n, cfg.s, cfg.positions
    if s == 0:
        return Fraction(1)
    t, delta = _pole_guard(w)
    pref = w.c ** s * w.a ** (s * (N - 1))
    for j in range(1, s + 1):
        pref *= t ** (rs[j - 1] - j)

    def build(ws, ring):
        f = ring.const(1)
        for j in range(s):
            # w^(r-1) enters as a division by w^(1-r), a unit at w = 1:
            # the quotient keeps the window of the order bound, where
            # the exact monomials (w - 1)^-s alone would leave f exact
            # and every product below at full size
            f = f / (ws[j] ** (1 - rs[j]) * (ws[j] - 1) ** s)
        for j in range(s):
            for k in range(j + 1, s):
                f = f * (ws[j] - ws[k]) \
                    * (t * t * ws[j] * ws[k] - 2 * delta * t * ws[j] + 1)
        return f

    # inverted: the monomials (w - 1)^s and w^(r-1) = (1 + e)^(r-1), a
    # unit on integer leaves, so no eps scale is needed
    return pref * residue_drive([(1, s)] * s, build)


def psi_top_mir_new(cfg: RowConfig, w: WeightTriple) -> Fraction:
    """Top component as an s-fold residue at w = 1 whose integrand
    carries h_{s,s}; the QISM route that depends on the up-arrow
    positions directly:

    Z_s a^(s(N-s)) prod_j t^(j-r_j) *
    oint prod_j (t^2 w_j - 2Dt + 1)^(r_j - 1) / (w_j - 1)^(r_j)
         prod_{j<k} (w_k - w_j)/(t^2 w_j w_k - 2Dt w_j + 1) * h_{s,s}(w)
    """
    N, s, rs = cfg.n, cfg.s, cfg.positions
    if s == 0:
        return Fraction(1)
    t, delta = _pole_guard(w)
    fam = family(w)
    pref = fam.z(s) * w.a ** (s * (N - s))
    for j in range(1, s + 1):
        pref *= t ** (j - rs[j - 1])

    def build(ws, ring):
        f = ring.const(1)
        for j in range(s):
            f = f * (t * t * ws[j] - 2 * delta * t + 1) ** (rs[j] - 1) \
                * (ws[j] - 1) ** (-rs[j])
        f = _pair_quotient(f, ws, t * t, 2 * delta * t)
        return f, fam.hns_vand(s, s, ws)

    # inverted: the pair factors at w = 1 + e, kappa (1 + (kappa - 1)/kappa
    # e_j + t^2/kappa (e_k + e_j e_k)), kappa = t^2 - 2 Delta t + 1
    kappa = t * t - 2 * delta * t + 1
    return pref * residue_drive(
        [(1, r) for r in rs], build,
        eps_scale((kappa - 1) / kappa, t * t / kappa))


def _crossed(w: WeightTriple) -> WeightTriple:
    """The a<->b crossing of the weights: t -> 1/t, Delta unchanged."""
    return WeightTriple(w.b, w.a, w.c)


def psi_top_mir_dual(cfg: RowConfig, w: WeightTriple) -> Fraction:
    """Top component as an (N-s)-fold residue at z = 0 in the
    complementary (down-arrow) positions: psi_bot_mir at the crossed
    weights.  Under a<->b, t -> 1/t while Delta and Z_N stay, and each
    h_M of the crossed weights is z^(M-1) h_M(1/z), its coefficient
    list reversed."""
    return psi_bot_mir(cfg.complement(), _crossed(w))


def psi_bot_mir_dual(cfg: RowConfig, w: WeightTriple) -> Fraction:
    """Bottom component as an (N-s)-fold residue at w = 1 in the
    complementary positions: psi_top_mir_new at the crossed weights, so
    the prefactor carries Z_{N-s}, the small determinant of the
    (N-s) x (N-s) lattice.  Edge convention: s = N is the empty bottom
    lattice (psi_bot = 1)."""
    return psi_top_mir_new(cfg.complement(), _crossed(w))


def psi_dual_mirs(cfg: RowConfig, w: WeightTriple):
    """(psi_top, psi_bot) through the complement-position dual routes."""
    return psi_top_mir_dual(cfg, w), psi_bot_mir_dual(cfg, w)
