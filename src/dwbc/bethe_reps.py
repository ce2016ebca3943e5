"""Closed-form representations of the sublattice partition functions:
the multiple-integral representations of psi_top (N x s) and psi_bot
(N x (N-s)) for the homogeneous model, evaluated exactly as iterated
residues at z = 0 or z = 1 over the rational weight data (t = b/a,
Delta, the h_{N,s} polynomials).

psi_top comes as the QISM route `psi_top_mir_new`, whose integrand
carries h_{s,s}, and from the coordinate wavefunction
(`psi_top_mir_coordinate`); psi_bot as `psi_bot_mir`.  The two dual
routes, in the complementary (down-arrow) positions, are no integrals
of their own: each is the a<->b crossing image of psi_bot_mir or
psi_top_mir_new.

Every route is checked against the lattice oracle and against the
others; the exact routes agree with the oracle bit-for-bit.  The float
multiple sums and the coordinate permutation sum of the fully
inhomogeneous model, which the oracle links to these routes, live in
`ik_numeric`: they need no part of the exact engine this module runs
on.
"""

from __future__ import annotations

from fractions import Fraction

from .exact_core import eps_scale, residue_drive
from .ik_engine import _pair_quotient, family
from .lattice_oracle import RowConfig, WeightTriple


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
    t, delta = fam.pole_guard()
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
    t, delta = family(w).pole_guard()
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
    fam = family(w)
    t, delta = fam.pole_guard()
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
    """(psi_top, psi_bot) through the complement-position dual routes:
    `psi_top_mir_dual` and `psi_bot_mir_dual` on one complement and one
    crossing of the weights."""
    cfg, w = cfg.complement(), _crossed(w)
    return psi_bot_mir(cfg, w), psi_top_mir_new(cfg, w)
