"""Emptiness formation probability through every route in four flavors.

F_N^(r,s) is the probability that the top-left (N-r) x s rectangle is
frozen.  Routes:

* summation of row configuration probabilities, either over the s
  up-arrow positions confined to 1..r (row s) or with positions 1..s
  frozen on row r (row r, the n = r-s remaining arrows free);

* two s-fold residue representations at z = 0 (one plain, one with a
  symmetric integrand obtained through the one-set antisymmetrization
  identity, carrying h_{s,s} of composed arguments);

* the n-fold residue representation at z = 1, where n = r - s is the
  distance from the antidiagonal;

* a first-class *trace* that evaluates every intermediate expression of
  the two derivations (double-contour forms, geometric multisum, the
  double antisymmetrization, the contour flip from z = 0 onto the 1/w
  poles, and the final symmetric-function integration) and asserts the
  whole chain is constant, raising ChainBreak at the first mismatch.

Everything here is exact: weights are rationals and every contour
integral is an iterated residue evaluated over Laurent towers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from .errors import (
    ChainBreak,
    InvalidRegion,
    OrderExceeded,
    PrecisionLoss,
    ZeroDenominator,
)
from .exact_core import (
    MultiPoly,
    Series,
    _invert,
    _is_exact_zero,
    build_tower,
    geom_inverse,
    iterated_residue,
    residue_drive,
)
from .bethe_reps import _pole_guard
from .ik_engine import cantini_P_poly, family
from .lattice_oracle import (
    RowConfig,
    WeightTriple,
    efp_oracle,
    enumerate_Z,
)


@dataclass(frozen=True)
class EfpQuery:
    """Region of an EFP evaluation: 1 <= s <= r <= N, n = r - s."""

    N: int
    r: int
    s: int

    def __post_init__(self):
        if not (1 <= self.s <= self.r <= self.N):
            raise InvalidRegion(
                f"need 1 <= s <= r <= N, got r={self.r}, s={self.s}, N={self.N}")

    @property
    def n(self) -> int:
        return self.r - self.s


def _vand_sign(m):
    """(-1)^(m(m-1)/2): prod over ordered pairs j != k of (z_j - z_k) is
    this sign times the squared Vandermonde, and prod_{j<k} (z_j - z_k)
    this sign times the Vandermonde."""
    return -1 if (m * (m - 1) // 2) % 2 else 1


# Moebius maps (al, be, ga, de) of the composed h arguments, for
# BoundaryGenFamily.hns_vand; the scalings z/t = (1, 0, 0, t) and
# 1/(t z) = (0, 1, t, 0) are written inline.  Each has al de - be ga a
# nonzero multiple of t or of t^2 - 2 Delta t + 1, which _pole_guard
# keeps nonzero.

def _u_map(t, delta):
    """u(z) = -(z - 1)/((t^2 - 2 Delta t) z + 1), the composed argument
    of h_{s,s} in the symmetric s-fold representation."""
    return (-1, 1, t * t - 2 * delta * t, 1)


def _w_map(t, delta):
    """(t^2 z - 2 Delta t + 1)/(t^2 (z - 1)): argument of h_{s+n,n} in
    the n-fold representation (simple pole at z = 1)."""
    return (t * t, 1 - 2 * delta * t, t * t, -t * t)


def _warg_map(t, delta):
    """((2 Delta t - 1) w - t)/(t (t w - 1)): argument of h_{S,S} in the
    origin forms of the top component."""
    return (2 * delta * t - 1, -t, t * t, -t)


# ---------------------------------------------------------------------------
# summation routes
# ---------------------------------------------------------------------------

def efp_by_summation(q: EfpQuery, w: WeightTriple, route="efp") -> Fraction:
    """Sum row configuration probabilities per the two definitions."""
    return efp_oracle(q.N, q.r, q.s, w, route)


# ---------------------------------------------------------------------------
# s-fold representations (residues at z = 0)
# ---------------------------------------------------------------------------

def efp_mir_s(q: EfpQuery, w: WeightTriple, variant="efpMIR2") -> Fraction:
    """s-fold residue representation at z = 0.

    variant 'efpMIR1': non-symmetric integrand with triangular powers;
    variant 'efpMIR2': symmetric integrand with the 1/s! prefactor and
    the extra h_{s,s}(u(z)) factor.  Their equality is the one-set
    antisymmetrization identity in action.
    """
    N, r, s = q.N, q.r, q.s
    t, delta = _pole_guard(w)
    fam = family(w)
    tt = t * t - 2 * delta * t

    if variant == "efpMIR1":
        pref = Fraction(-1) ** s * _vand_sign(s)

        def build(vs, ring):
            zs = [vs[f"z{j}"] for j in range(s)]
            f = ring.const(1)
            for j in range(s):
                f = f * (tt * zs[j] + 1) ** (s - 1 - j) \
                    * zs[j] ** (-r) * (zs[j] - 1) ** (-(s - j))
            for j in range(s):
                for k in range(j + 1, s):
                    f = f / (t * t * zs[j] * zs[k] - 2 * delta * t * zs[j] + 1)
            return f, fam.hns_vand(N, s, zs)

    elif variant == "efpMIR2":
        pref = Fraction(-1) ** s * _vand_sign(s) * enumerate_Z(s, w) \
            / (math.factorial(s) * w.a ** (s * (s - 1)) * w.c ** s)
        u_map = _u_map(t, delta)

        def build(vs, ring):
            zs = [vs[f"z{j}"] for j in range(s)]
            f = ring.const(1)
            for j in range(s):
                f = f * (tt * zs[j] + 1) ** (s - 1) \
                    * zs[j] ** (-r) * (zs[j] - 1) ** (-s)
            for j in range(s):
                for k in range(s):
                    if j != k:
                        f = f / (t * t * zs[j] * zs[k]
                                 - 2 * delta * t * zs[j] + 1)
            return f * fam.hns_vand(N, s, zs), fam.hns_vand(s, s, zs, u_map)

    else:
        raise ValueError(f"unknown variant {variant!r}")

    specs = [(f"z{j}", Fraction(0), r) for j in range(s)]
    return pref * residue_drive(specs, build)


# ---------------------------------------------------------------------------
# n-fold representation (residues at z = 1)
# ---------------------------------------------------------------------------

def efp_mir_n(q: EfpQuery, w: WeightTriple) -> Fraction:
    """n-fold residue representation at z = 1 (n = r - s):

    Z_{s+n} Z_{N-s} a^(2s(N-s-n)) t^(n(n-1)) / (n! Z_N c^n a^(n(n-1))) *
    oint prod 1/(z_j - 1) prod_{j!=k} (z_j-z_k)/(t^2 z_j z_k - 2Dt z_j + 1)
         h_{N-s,n}(z) h_{s+n,n}((t^2 z - 2Dt + 1)/(t^2 (z-1)))

    For n = 0 the integral is empty and F = Z_s Z_{N-s} a^(2s(N-s))/Z_N.
    Pole order per variable is s + n: the composed h argument carries
    s+n-1 and the explicit factor one more.
    """
    N, s, n = q.N, q.s, q.n
    t, delta = _pole_guard(w)
    pref = (enumerate_Z(s + n, w) * enumerate_Z(N - s, w)
            * w.a ** (2 * s * (N - s - n)) * t ** (n * (n - 1))
            / (math.factorial(n) * enumerate_Z(N, w)
               * w.c ** n * w.a ** (n * (n - 1))))
    if n == 0:
        return pref
    fam = family(w)
    w_map = _w_map(t, delta)

    def build(vs, ring):
        zs = [vs[f"z{j}"] for j in range(n)]
        f = ring.const(1)
        for j in range(n):
            f = f / (zs[j] - 1)
        for j in range(n):
            for k in range(n):
                if j != k:
                    f = f / (t * t * zs[j] * zs[k] - 2 * delta * t * zs[j] + 1)
        return f * fam.hns_vand(N - s, n, zs), \
            fam.hns_vand(s + n, n, zs, w_map)

    specs = [(f"z{j}", Fraction(1), s + n) for j in range(n)]
    return pref * _vand_sign(n) * residue_drive(specs, build)


# ---------------------------------------------------------------------------
# derivation-chain trace
# ---------------------------------------------------------------------------

def psi_top_mir_origin(cfg: RowConfig, w: WeightTriple) -> Fraction:
    """The top component with the w = 1 contours of the direct QISM
    route mapped onto the origin (the form whose first s integrations
    are simple poles when r_j = j):

    Z_S a^(S(N-S)) oint prod 1/(w_j^(r_j) (1 - t w_j))
        prod_{j<k} (w_k - w_j)/(w_j w_k - 2D w_j + 1)
        h_{S,S}(((2Dt-1)w - t)/(t(tw - 1)))          with S = len(cfg).
    """
    N, S, rs = cfg.n, cfg.s, cfg.positions
    if S == 0:
        return Fraction(1)
    t, delta = _pole_guard(w)
    fam = family(w)
    warg = _warg_map(t, delta)

    def build(vs, ring):
        ws = [vs[f"w{j}"] for j in range(S)]
        f = ring.const(1)
        for j in range(S):
            f = f / (ws[j] ** rs[j] * (1 - t * ws[j]))
        for j in range(S):
            for k in range(j + 1, S):
                f = f / (ws[j] * ws[k] - 2 * delta * ws[j] + 1)
        return f, fam.hns_vand(S, S, ws, warg)

    pref = enumerate_Z(S, w) * w.a ** (S * (N - S))
    specs = [(f"w{j}", Fraction(0), rs[j]) for j in range(S)]
    return pref * residue_drive(specs, build)


def _psi_top_frozen_mir(N, s, ls, w, fam):
    """n-fold origin form of psi_top(1..s, s+l_1..s+l_n)."""
    n = len(ls)
    t, delta = _pole_guard(w)
    pref = enumerate_Z(s + n, w) * w.a ** ((s + n) * (N - s - n))
    if n == 0:
        return pref
    warg = _warg_map(t, delta)

    def build(vs, ring):
        ws = [vs[f"w{j}"] for j in range(n)]
        f = ring.const(1)
        for j in range(n):
            f = f / (ws[j] ** ls[j] * (1 - t * ws[j]))
        for j in range(n):
            for k in range(j + 1, n):
                f = f / (ws[j] * ws[k] - 2 * delta * ws[j] + 1)
        return f, fam.hns_vand(s + n, n, ws, warg)

    specs = [(f"w{j}", Fraction(0), ls[j]) for j in range(n)]
    return pref * residue_drive(specs, build)


def _psi_bot_frozen_mir(N, s, ls, w, fam):
    """n-fold origin form of psi_bot(1..s, s+l_1..s+l_n)."""
    n = len(ls)
    t, delta = _pole_guard(w)
    pref = enumerate_Z(N - s, w) * w.a ** (s * (N - s)) \
        / (w.c ** n * w.a ** (n * (N - 1)))
    if n == 0:
        return pref

    def build(vs, ring):
        zs = [vs[f"z{j}"] for j in range(n)]
        f = ring.const(1)
        for j in range(n):
            f = f * zs[j] ** (-ls[j])
        for j in range(n):
            for k in range(j + 1, n):
                f = f / (zs[j] * zs[k] - 2 * delta * zs[j] + 1)
        return f, fam.hns_vand(N - s, n, zs, (1, 0, 0, t))  # z/t

    specs = [(f"z{j}", Fraction(0), ls[j]) for j in range(n)]
    return pref * residue_drive(specs, build)


def _psi_top_oracle(cfg, w):
    from .lattice_oracle import psi_top
    return psi_top(cfg, w)


def _psi_bot_oracle(cfg, w):
    from .lattice_oracle import psi_bot
    return psi_bot(cfg, w)


def _scaled_poly(poly: MultiPoly, scale: Fraction) -> MultiPoly:
    """p(scale * z_1, ..., scale * z_m) as a new MultiPoly."""
    out = MultiPoly(poly.nvars)
    for e, c in poly.terms.items():
        out.terms[e] = c * scale ** sum(e)
    return out


def _trace_sfold_chain(q, w, record):
    """The s-fold derivation chain: efp summation -> double-contour form ->
    extended multisum -> double antisymmetrization -> y-integration ->
    the two s-fold forms."""
    N, r, s = q.N, q.r, q.s
    t, delta = _pole_guard(w)
    fam = family(w)
    P = cantini_P_poly(s, delta)
    inv_t = 1 / t

    # shared x/y integrand pieces -------------------------------------
    # Each 2s-fold integrand is returned as an (x side, y side) pair: the
    # pole-carrying factors of each set start its side, the coupling
    # factors are multiplied into whichever side they keep small, and
    # residue_drive contracts the two sides.
    def x_side(xs, f):
        """f / prod_{j<k} (x_j x_k - 2D x_j + 1) times h_{N,s}(x/t) and
        the Vandermonde of the x's."""
        for j in range(s):
            for k in range(j + 1, s):
                f = f / (xs[j] * xs[k] - 2 * delta * xs[j] + 1)
        return f * fam.hns_vand(N, s, xs, (1, 0, 0, t))

    def y_side(ys, f):
        """f * prod_{j<k} (y_k - y_j)(y_j y_k - 2D y_k + 1)."""
        for j in range(s):
            for k in range(j + 1, s):
                f = f * (ys[k] - ys[j]) \
                    * (ys[j] * ys[k] - 2 * delta * ys[k] + 1)
        return f

    def split(vs):
        return ([vs[f"x{j}"] for j in range(s)],
                [vs[f"y{j}"] for j in range(s)])

    specs = ([(f"x{j}", Fraction(0), r) for j in range(s)]
             + [(f"y{j}", inv_t, s) for j in range(s)])

    def build_double(vs, ring):
        xs, ys = split(vs)
        fy = ring.const(1)
        for j in range(s):
            fy = fy / (ys[j] ** (s - 1) * (t * ys[j] - 1) ** s)
        fy = y_side(ys, fy)
        msum = ring.const(0)
        for pos in combinations(range(1, r + 1), s):
            term = ring.const(1)
            for j in range(s):
                term = term * (xs[j] * ys[j]) ** (-pos[j])
            msum = msum + term
        return x_side(xs, ring.const(1)), fy * msum

    record("double-contour", residue_drive(specs, build_double))

    def build_double2(vs, ring):
        xs, ys = split(vs)
        fx, fy = ring.const(1), ring.const(1)
        for j in range(s):
            fx = fx / xs[j] ** (r - s + j + 1)
            fy = fy / ((t * ys[j] - 1) ** s * ys[j] ** (r + j))
        fx = x_side(xs, fx)
        for j in range(s):
            prodxy = ring.const(1)
            for l in range(j + 1):
                prodxy = prodxy * xs[l] * ys[l]
            fx = fx * geom_inverse(prodxy, ring)
        return fx, y_side(ys, fy)

    record("double-contour-extended", residue_drive(specs, build_double2))

    def build_double3(vs, ring):
        xs, ys = split(vs)
        fx, fy = ring.const(1), ring.const(1)
        for j in range(s):
            fx = fx / xs[j] ** r
            fy = fy / ((t * ys[j] - 1) ** s * ys[j] ** (r + s - 1))
        for j in range(s):
            for k in range(j + 1, s):
                fx = fx * (xs[k] - xs[j])
                fy = fy * (ys[k] - ys[j]) ** 2
        for j in range(s):
            for k in range(s):
                if j != k:
                    fx = fx / (xs[j] * xs[k] - 2 * delta * xs[j] + 1)
        fx = fx * fam.hns_vand(N, s, xs, (1, 0, 0, t))
        # W_s(x; y) = P_s(x; y) / prod (1 - x_j y_k)
        for j in range(s):
            for k in range(s):
                fx = fx / (1 - xs[j] * ys[k])
        return fx, fy * P.eval(xs + ys)

    record("double-contour-symmetrized",
           Fraction(1, math.factorial(s) ** 2)
           * residue_drive(specs, build_double3))

    def build_recovered(vs, ring):
        xs = [vs[f"x{j}"] for j in range(s)]
        f = ring.const(1)
        for j in range(s):
            f = f / xs[j] ** r
        # prod_{j != k} (x_j - x_k): the sign (applied below) times two
        # Vandermondes, one of them inside hx
        for j in range(s):
            for k in range(s):
                if k > j:
                    f = f * (xs[k] - xs[j])
                if j != k:
                    f = f / (xs[j] * xs[k] - 2 * delta * xs[j] + 1)
        # W_s(x; 1/t..1/t) through P_s (the det/Vandermonde form would
        # need distinct second arguments)
        f = f * P.eval(xs + [ring.const(inv_t)] * s)
        for j in range(s):
            f = f / (1 - xs[j] * inv_t) ** s
        return f, fam.hns_vand(N, s, xs, (1, 0, 0, t))

    xspecs = [(f"x{j}", Fraction(0), r) for j in range(s)]
    record("sfold-recovered",
           _vand_sign(s) * t ** (s * (r - 1)) / Fraction(math.factorial(s))
           * residue_drive(xspecs, build_recovered))

    record("sfold-symmetric", efp_mir_s(q, w, "efpMIR2"))
    record("sfold-plain", efp_mir_s(q, w, "efpMIR1"))


def _trace_nfold_chain(q, w, record):
    """The n-fold derivation chain: efpn summation -> n-fold top/bottom pieces
    -> extended multisum -> double antisymmetrization -> contour flip
    onto the 1/w poles -> symmetric integration -> the n-fold form."""
    N, r, s, n = q.N, q.r, q.s, q.n
    t, delta = _pole_guard(w)
    fam = family(w)
    z_n = enumerate_Z(N, w)
    pref = (enumerate_Z(s + n, w) * enumerate_Z(N - s, w)
            * w.a ** (2 * s * (N - s - n))
            / (z_n * w.c ** n * w.a ** (n * (n - 1))))

    if n == 0:
        record("nfold-final", efp_mir_n(q, w))
        return

    warg = _warg_map(t, delta)

    def h_top(ws):
        """h_{s+n,n}(warg(w)) times the Vandermonde of the w's."""
        return fam.hns_vand(s + n, n, ws, warg)

    def h_bot(zs, mobius=(1, 0, 0, t)):
        """h_{N-s,n}(z/t) times the Vandermonde of the z's."""
        return fam.hns_vand(N - s, n, zs, mobius)

    # psi-level sub-checks: the (s+n)-fold origin form and the n-fold
    # forms left after integrating out the frozen positions 1..s
    for extra in combinations(range(s + 1, N + 1), n):
        cfg = RowConfig(N, tuple(range(1, s + 1)) + extra)
        ls = [p - s for p in extra]
        got = psi_top_mir_origin(cfg, w)
        want = _psi_top_oracle(cfg, w)
        if got != want:
            raise ChainBreak(f"top-origin-form{cfg.positions}", got, want)
        got = _psi_top_frozen_mir(N, s, ls, w, fam)
        if got != want:
            raise ChainBreak(f"top-frozen-form{cfg.positions}", got, want)
        got = _psi_bot_frozen_mir(N, s, ls, w, fam)
        want = _psi_bot_oracle(cfg, w)
        if got != want:
            raise ChainBreak(f"bottom-frozen-form{cfg.positions}", got, want)

    # extended multisum, 2n-fold residues at the origin ----------------
    specs = ([(f"w{j}", Fraction(0), N - s) for j in range(n)]
             + [(f"z{j}", Fraction(0), N - s) for j in range(n)])

    def cross(us, f, ordered):
        """Divide by the pair factors of one set over k > j, or over all
        j != k when `ordered`.  The ordered integrand also carries
        prod_{j != k} (w_k - w_j)(z_k - z_j), both Vandermondes squared
        (the signs cancel); h_top and h_bot hold one copy each, so only
        the other is multiplied in here."""
        for j in range(n):
            for k in range(n):
                if ordered and k > j:
                    f = f * (us[k] - us[j])
                if k > j or (ordered and j != k):
                    f = f / (us[j] * us[k] - 2 * delta * us[j] + 1)
        return f

    # each 2n-fold integrand is a (w side, z side) pair for residue_drive
    # to contract; the coupling factors go onto the w side
    def split(vs):
        return ([vs[f"w{j}"] for j in range(n)],
                [vs[f"z{j}"] for j in range(n)])

    def build_extended(vs, ring):
        ws, zs = split(vs)
        fw, fz = ring.const(1), ring.const(1)
        for j in range(n):
            fw = fw / ((1 - t * ws[j]) * ws[j] ** (N - s - n + j + 1))
            fz = fz / zs[j] ** (N - s - n + j + 1)
        fw = cross(ws, fw, ordered=False) * h_top(ws)
        for j in range(n):
            prodwz = ring.const(1)
            for l in range(j + 1):
                prodwz = prodwz * ws[l] * zs[l]
            fw = fw * geom_inverse(prodwz, ring)
        return fw, cross(zs, fz, ordered=False) * h_bot(zs)

    record("nfold-extended", pref * residue_drive(specs, build_extended))

    # double antisymmetrization with P_n -------------------------------
    def build_symmetrized(vs, ring):
        ws, zs = split(vs)
        fw, fz = ring.const(1), ring.const(1)
        for j in range(n):
            fw = fw / ((1 - t * ws[j]) * ws[j] ** (N - s))
            fz = fz / zs[j] ** (N - s)
        fw = cross(ws, fw, ordered=True) * h_top(ws)
        for j in range(n):
            for k in range(n):
                fw = fw / (1 - ws[j] * zs[k])
        fz = cross(zs, fz, ordered=True) * h_bot(zs)
        return fw, fz * cantini_P_poly(n, delta).eval(ws + zs)

    record("nfold-symmetrized",
           pref / math.factorial(n) ** 2
           * residue_drive(specs, build_symmetrized))

    # z-contours flipped onto the poles at 1/w_l -----------------------
    record("nfold-flipped",
           pref / math.factorial(n) ** 2 * _flipped_contour_value(q, w))

    # after the symmetric-function integration -------------------------
    def build_integrated(vs, ring):
        ws = [vs[f"w{j}"] for j in range(n)]
        f = ring.const(1)
        for j in range(n):
            f = f * ws[j] ** (n - 2) / (1 - t * ws[j])
        # prod_{j != k} (w_k - w_j): the sign (applied below) times the
        # two Vandermondes that h_top and h_bot carry
        for j in range(n):
            for k in range(n):
                if j != k:
                    f = f / (ws[j] * ws[k] - 2 * delta * ws[j] + 1) ** 2
        f = f * cantini_P_poly(n, delta).eval(ws + [1 / x for x in ws])
        # the z = 1/w_j poles feed h_{N-s,n} at 1/(t w_j)
        return f * h_top(ws), h_bot(ws, (0, 1, t, 0))

    wspecs = [(f"w{j}", Fraction(0), (N - s) + n + 1) for j in range(n)]
    record("nfold-integrated",
           pref * _vand_sign(n) / math.factorial(n)
           * residue_drive(wspecs, build_integrated))

    record("nfold-final", efp_mir_n(q, w))


def _flipped_contour_value(q, w) -> Fraction:
    """The 2n-fold integral of the symmetrized integrand with the
    z-contours wrapped around the poles z = 1/w_l.

    Iterated simple-pole extraction: each z picks one of the factors
    (1 - w_l z)^(-1); picking an l twice dies on the (z_k - z_j)
    numerator zero.  The outward deformation from C_0 induces clockwise
    orientation around the 1/w poles, hence a factor (-1) per variable.
    The leftover w-dependence is an iterated residue at w = 0 on a
    Laurent tower whose nesting order resolves the (w_l - w_j) poles of
    individual terms (they cancel in the sum).
    """
    N, s, n = q.N, q.s, q.n
    t, delta = _pole_guard(w)
    fam = family(w)
    h_bot_scaled = _scaled_poly(fam.hns_poly(N - s, n), 1 / t)

    prec = (N - s) + n + 3
    for _ in range(4):
        ring, atoms = build_tower([(f"w{j}", prec) for j in range(n)])
        ws = [atoms[f"w{j}"] for j in range(n)]

        # w-only prefactor of the integrand; prod_{j != k} (w_k - w_j) is
        # the sign times the Vandermonde here and the one in hns_vand
        base = ring.const(_vand_sign(n))
        for j in range(n):
            base = base / ((1 - t * ws[j]) * ws[j] ** (N - s))
        for j in range(n):
            for k in range(n):
                if k > j:
                    base = base * (ws[k] - ws[j])
                if j != k:
                    base = base / (ws[j] * ws[k] - 2 * delta * ws[j] + 1)
        base = base * fam.hns_vand(s + n, n, ws, _warg_map(t, delta))

        # z-dependent factors: polynomial atoms over the w-ring plus the
        # pole-carrying linear factors (1 - w_l z_k)
        factors = []
        for j in range(n):
            factors.append(("lin", j, ring.const(1), 0, -(N - s), False))
            # ("lin", var, coef, const, exp, pole_candidate): coef*z+const
        for j in range(n):
            for k in range(n):
                if j != k:
                    p = MultiPoly(n)
                    ej = [0] * n; ej[j] = 1
                    ek = [0] * n; ek[k] = 1
                    p.terms[tuple(ek)] = ring.const(1)
                    p.terms[tuple(ej)] = ring.const(-1)
                    factors.append(("poly", p, 1))        # z_k - z_j
                    q2 = MultiPoly(n)
                    e2 = [0] * n; e2[j] = 1; e2[k] = 1
                    q2.terms[tuple(e2)] = ring.const(1)
                    q2.terms[tuple(ej)] = ring.const(-2 * delta)
                    q2.terms[(0,) * n] = ring.const(1)
                    factors.append(("poly", q2, -1))      # z_j z_k - 2D z_j + 1
        pz = cantini_P_poly(n, delta)
        pn = pz
        for j in range(n):                                # bind the w slots
            pn = pn.substitute(0, ws[j])
        factors.append(("poly", _lift_poly(pn, ring), 1))
        for j in range(n):
            for k in range(n):
                factors.append(("lin", k, -ws[j], 1, -1, True))  # 1 - w_j z_k
        factors.append(("poly", _lift_poly(h_bot_scaled, ring), 1))

        try:
            total = _iterated_simple_poles(factors, ring, n)
            val = iterated_residue((base, total))
            return Fraction(-1) ** n * val
        except PrecisionLoss:
            prec *= 2
    raise OrderExceeded("flipped-contour evaluation did not stabilize")


def _lift_poly(p: MultiPoly, ring) -> MultiPoly:
    out = MultiPoly(p.nvars)
    for e, c in p.terms.items():
        out.terms[e] = ring.const(c) if not isinstance(c, Series) else c
    return out


def _iterated_simple_poles(factors, ring, nvars):
    """Sum of iterated residues over the marked simple-pole factors.

    Factors: ("poly", MultiPoly-over-ring, exp),
    ("lin", var, coef, const, exp, candidate) for (coef*z_var + const)^exp,
    or ("ring", value, exp) once fully substituted.  Variables are
    consumed in descending index order (MultiPoly.substitute keeps lower
    indices stable); only candidate=True linear factors carry enclosed
    poles.  Returns a ring element.
    """
    if nvars == 0:
        out = ring.const(1)
        for f in factors:
            if f[0] == "ring":
                val = f[1]
            elif f[0] == "poly":
                val = f[1].eval([])
            else:
                raise ZeroDenominator("unsubstituted linear factor survived")
            out = out * (_ring_pow(val, f[2]) if f[2] >= 0
                         else _ring_pow(_invert(val), -f[2]))
        return out

    k = nvars - 1
    total = None
    for idx, f in enumerate(factors):
        if f[0] != "lin" or f[1] != k or not f[5]:
            continue
        _, _, coef, const, exp, _ = f
        if exp != -1:
            raise OrderExceeded("pole candidates must be simple")
        coef_inv = _invert(coef)
        pole = -(const * coef_inv)
        rest = []
        dead = False
        for j2, g in enumerate(factors):
            if j2 == idx:
                continue
            if g[0] == "lin" and g[1] == k:
                val = g[2] * pole + g[3]
                if _is_exact_zero(val):
                    if g[4] > 0:
                        dead = True
                        break
                    raise ZeroDenominator("coincident poles in z-extraction")
                rest.append(("ring", val, g[4]))
            elif g[0] == "poly":
                p2 = g[1].substitute(k, pole)
                if p2.nvars == 0:
                    val = p2.eval([])
                    if _is_exact_zero(val):
                        if g[2] > 0:
                            dead = True
                            break
                        raise ZeroDenominator("vanishing substituted factor")
                    rest.append(("ring", val, g[2]))
                elif p2.is_zero():
                    if g[2] > 0:
                        dead = True
                        break
                    raise ZeroDenominator("vanishing substituted factor")
                else:
                    rest.append(("poly", p2, g[2]))
            else:
                rest.append(g)
        if dead:
            continue
        term = coef_inv * _iterated_simple_poles(rest, ring, k)
        total = term if total is None else total + term
    return ring.const(0) if total is None else total


def _ring_pow(v, e):
    out = 1
    for _ in range(e):
        out = out * v
    return out



def efp_double_contour_trace(q: EfpQuery, w: WeightTriple,
                             max_double_s: int = 3):
    """Evaluate both derivation chains exactly, step by step.

    Returns the ordered list of (step, value); raises ChainBreak at the
    first step whose value differs from the running one.  The 2s-fold
    double-contour steps are evaluated only for s <= max_double_s: their
    integrands are contracted as an x-side and a y-side tower, but each
    side is still dense in up to 2s variables and its size grows about
    as prec^(2s), with windows of r + 1 and s + 1 per level.  All other
    steps always run.
    """
    steps = []
    expected = [None]

    def record(name, value):
        steps.append((name, value))
        if expected[0] is None:
            expected[0] = value
        elif value != expected[0]:
            raise ChainBreak(name, value, expected[0])

    record("efp-sum", efp_by_summation(q, w, "efp"))
    record("efpn-sum", efp_by_summation(q, w, "efpn"))
    if q.s <= max_double_s:
        _trace_sfold_chain(q, w, record)
    else:
        record("sfold-symmetric", efp_mir_s(q, w, "efpMIR2"))
        record("sfold-plain", efp_mir_s(q, w, "efpMIR1"))
    _trace_nfold_chain(q, w, record)
    return steps
