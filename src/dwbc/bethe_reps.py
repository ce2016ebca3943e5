"""Closed-form representations of the sublattice partition functions:
the multiple-integral representations of psi_top (N x s) and psi_bot
(N x (N-s)) for the homogeneous model, evaluated exactly as iterated
residues at z = 0 or z = 1 over the weight data in integers (t = B/A
and Delta = (A^2 + B^2 - C^2)/(2AB) for (a, b, c) = g (A, B, C), the
h_{N,s} polynomials; `ik_engine.TripleInts`), each prefactor an
integer pair made a Fraction once, with the residue.

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
from .ik_engine import _pair_quotient, _pref, family
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
    wi = fam.pole_guard()
    A, B = wi.A, wi.B
    et = sum(j - r for j, r in enumerate(rs, 1))
    # a = g A, c = g C, t = B/A; the pair factors are (B^2 z_j z_k - E z_j
    # + A^2)/A^2, so each puts A^2 into the prefactor
    pref = _pref(*fam.z_pair(N), (B, et), (wi.C, -s),
                 (A, s * (s - 1) - et - s * (N - 1)),
                 (wi.gn, -s * N), (wi.gd, s * N))

    def build(zs, ring):
        f = ring.const(1)
        for j in range(s):
            f = f * zs[j] ** (-rs[j])
        f = _pair_quotient(f, zs, B * B, wi.E, A * A)
        return f, fam.hns_vand(N, s, zs)

    # inverted: the pair factors 1 - 2 Delta t z_j + t^2 z_j z_k at z = 0
    return residue_drive([(0, r) for r in rs], build,
                         eps_scale(wi.t, wi.two_dt), pref)


def psi_top_mir_coordinate(cfg: RowConfig, w: WeightTriple) -> Fraction:
    """Top component from the coordinate wavefunction, as an s-fold
    residue at w = 1 with pole order s per variable."""
    N, s, rs = cfg.n, cfg.s, cfg.positions
    if s == 0:
        return Fraction(1)
    wi = family(w).pole_guard()
    A, B = wi.A, wi.B
    et = sum(r - j for j, r in enumerate(rs, 1))
    # the pair factors multiplied in are (B^2 w_j w_k - E w_j + A^2)/A^2
    pref = _pref(1, 1, (B, et), (wi.C, s),
                 (A, s * (N - 1) - et - s * (s - 1)),
                 (wi.gn, s * N), (wi.gd, -s * N))

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
                    * (B * B * ws[j] * ws[k] - wi.E * ws[j] + A * A)
        return f

    # inverted: the monomials (w - 1)^s and w^(r-1) = (1 + e)^(r-1), a
    # unit on integer leaves, so no eps scale is needed
    return residue_drive([(1, s)] * s, build, 1, pref)


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
    wi = fam.pole_guard()
    A, B, C = wi.A, wi.B, wi.C
    et = sum(j - r for j, r in enumerate(rs, 1))
    # t^2 w - 2 Delta t + 1 = (B^2 w + C^2 - B^2)/A^2 to the power r_j - 1
    # is multiplied in, and each pair factor divided by puts A^2 into the
    # prefactor (psi_bot_mir)
    pref = _pref(*fam.z_pair(s), (B, et),
                 (A, s * (N - s) - et - 2 * (sum(rs) - s) + s * (s - 1)),
                 (wi.gn, s * (N - s)), (wi.gd, -s * (N - s)))

    def build(ws, ring):
        f = ring.const(1)
        for j in range(s):
            f = f * (B * B * ws[j] + (C * C - B * B)) ** (rs[j] - 1) \
                * (ws[j] - 1) ** (-rs[j])
        f = _pair_quotient(f, ws, B * B, wi.E, A * A)
        return f, fam.hns_vand(s, s, ws)

    # inverted: the pair factors at w = 1 + e, kappa (1 + (kappa - 1)/kappa
    # e_j + t^2/kappa (e_k + e_j e_k)), kappa = t^2 - 2 Delta t + 1 = C^2/A^2
    return residue_drive([(1, r) for r in rs], build,
                         eps_scale(*wi.at_one), pref)


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
