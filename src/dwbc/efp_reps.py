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
integral is an iterated residue evaluated over Laurent towers.  Each
integrand's per-variable factors are built in integers on their
variables' own levels (`exact_core._factors`), with coefficients from
the weights' integers (`ik_engine.TripleInts`), whose powers of A, B
and AB go into the integer prefactor pair; the trace's coupling factors
1 - x_j y_k and 1 - prod x_l y_l, P_s, and its flipped-contour step,
whose z = 1/w are series, are tower arithmetic.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations, permutations

from .errors import ChainBreak
from .exact_core import _factors, _ppowers, eps_scale, residue_drive
from .ik_engine import (_pair_quotient, _pref, cantini_P_confluent,
                        cantini_P_vand, family)
from .lattice_oracle import (
    EfpQuery,
    RowConfig,
    WeightTriple,
    efp_oracle,
    psi_bot,
    psi_top,
)

# the largest s at which `efp_double_contour_trace` takes the 2s-fold
# double-contour steps (their towers grow about as prec^(2s))
MAX_DOUBLE_S = 3


def _vand_sign(m):
    """(-1)^(m(m-1)/2): prod over ordered pairs j != k of (z_j - z_k) is
    this sign times the squared Vandermonde, and prod_{j<k} (z_j - z_k)
    this sign times the Vandermonde."""
    return -1 if (m * (m - 1) // 2) % 2 else 1


# The Moebius maps (al, be, ga, de) of the composed h arguments, for
# BoundaryGenFamily.hns_vand, are integer attributes of the family's
# `TripleInts`: u_map, the argument of h_{s,s} in the symmetric s-fold
# representation; w_map, that of h_{s+n,n} in the n-fold representation
# (simple pole at z = 1); warg_map, that of h_{S,S} in the origin forms of
# the top component; and the scalings over_t (z/t) and inv_tz (1/(t z)).
# Each has al de - be ga a nonzero multiple of t or of t^2 - 2 Delta t +
# 1, which BoundaryGenFamily.pole_guard keeps nonzero.


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
    antisymmetrization identity in action.  It makes efpMIR2's factor
    (tt z + A^2)^(s-1) / (z^r (z - 1)^s) the same for every variable, so
    it goes into the columns of h_{N,s} Vand (`hns_vand`'s factor).
    efpMIR1's factors (tt z_j + A^2)^(s-1-j) / (z_j^r (z_j - 1)^(s-j))
    differ per variable: each is built in integers on z_j's level and
    the pair factors divide their outer product (`exact_core._factors`).
    """
    N, r, s = q.N, q.r, q.s
    fam = family(w)
    wi = fam.pole_guard()
    fam.sweep(N)  # Z_s and h_M for M <= N
    A, B, E = wi.A, wi.B, wi.E
    # (t^2 - 2 Delta t) z + 1 = (tt z + A^2)/A^2 and the pair factors
    # (B^2 z_j z_k - E z_j + A^2)/A^2: in both variants the A^2 of the
    # factors multiplied in cancel those of the pair factors divided by
    tt = wi.tt[0]
    sign = (-1) ** s * _vand_sign(s)

    if variant == "efpMIR1":
        pref = sign, 1
        # (tt z_j + A^2)^(s-1-j) / (z_j^r (z_j - 1)^(s-j)), on z_j's level
        nums = _ppowers((0, [A * A, tt]), s - 1)
        dens = _ppowers((0, [-1, 1]), s)
        factors = [(r, nums[s - 1 - j][1], dens[s - j][1]) for j in range(s)]

        def build(zs, ring):
            f = _pair_quotient(_factors(zs, factors), zs, B * B, E, A * A)
            return f, fam.hns_vand(N, s, zs)

    elif variant == "efpMIR2":
        # Z_s / (s! a^(s(s-1)) c^s), a = g A, c = g C
        zn, zd = fam.z_pair(s)
        pref = _pref(sign * zn, zd * math.factorial(s),
                     (A, -s * (s - 1)), (wi.C, -s),
                     (wi.gn, -s * s), (wi.gd, s * s))

        factor = (r, _ppowers((0, [A * A, tt]), s - 1)[-1][1],
                  _ppowers((0, [-1, 1]), s)[-1][1])

        def build(zs, ring):
            f = fam.hns_vand(N, s, zs, factor=factor)
            f = _pair_quotient(f, zs, B * B, E, A * A, ordered=True)
            return f, fam.hns_vand(s, s, zs, wi.u_map)

    else:
        raise ValueError(f"unknown variant {variant!r}")

    # inverted: the pair factors 1 - 2 Delta t z_j + t^2 z_j z_k and the
    # denominator 1 + (t^2 - 2 Delta t) z of u(z), at z = 0
    return residue_drive([(0, r)] * s, build,
                         eps_scale(wi.t, wi.two_dt, wi.tt), pref)


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
    s+n-1 and the explicit factor one more.  That factor 1/(z_j - 1) goes
    into the columns of h_{N-s,n} Vand (`hns_vand`'s factor), where at
    z = 1 + D eps it is a shift.
    """
    N, s, n = q.N, q.s, q.n
    fam = family(w)
    wi = fam.pole_guard()
    fam.sweep(N)  # Z_(s+n), Z_(N-s), Z_N and h_M for M <= N
    A, B, C = wi.A, wi.B, wi.C
    (zsn, zsd), (zbn, zbd), (zn, zd) = map(fam.z_pair, (s + n, N - s, N))
    # a = g A, c = g C, t = B/A, and A^2 per pair factor (psi_bot_mir)
    ea = 2 * s * (N - s - n) - n * (n - 1)
    pref = _pref(_vand_sign(n) * zsn * zbn * zd,
                 math.factorial(n) * zsd * zbd * zn,
                 (B, n * (n - 1)), (A, ea + n * (n - 1)), (C, -n),
                 (wi.gn, ea - n), (wi.gd, n - ea))
    if n == 0:
        return Fraction(*pref)

    def build(zs, ring):
        # the pair factors divide h_{N-s,n} Vand in one pass each over
        # its box, at size(h) times their three terms
        f = fam.hns_vand(N - s, n, zs, factor=(0, [1], [-1, 1]))
        f = _pair_quotient(f, zs, B * B, wi.E, A * A, ordered=True)
        return f, fam.hns_vand(s + n, n, zs, wi.w_map)

    # inverted: the pair factors at z = 1 + e, kappa (1 + (kappa - 1)/kappa
    # e_j + t^2/kappa (e_k + e_j e_k)), kappa = t^2 - 2 Delta t + 1 = C^2/A^2;
    # the denominator t^2 (z - 1) of the h argument is a monomial
    return residue_drive([(1, s + n)] * n, build,
                         eps_scale(*wi.at_one), pref)


# ---------------------------------------------------------------------------
# derivation-chain trace
# ---------------------------------------------------------------------------

def psi_top_mir_origin(N, s, ls, w: WeightTriple) -> Fraction:
    """The top component psi_top(1..s, s+l_1..s+l_n) with the w = 1
    contours of the direct QISM route mapped onto the origin and the
    simple poles of the frozen positions 1..s integrated out:

    Z_{s+n} a^((s+n)(N-s-n)) oint prod 1/(w_j^(l_j) (1 - t w_j))
        prod_{j<k} (w_k - w_j)/(w_j w_k - 2D w_j + 1)
        h_{s+n,n}(((2Dt-1)w - t)/(t(tw - 1)))         with n = len(ls).

    Each 1/(w_j^(l_j) (A - B w_j)) is built on w_j's level
    (`exact_core._factors`), A per variable in the prefactor.

    With s = 0 nothing is integrated out and ls are the positions of the
    whole row, one contour each; where l_j = j for j <= s' the first s'
    integrations are simple poles, and taking them gives the form with
    s = s'.
    """
    n = len(ls)
    fam = family(w)
    wi = fam.pole_guard()
    A, B = wi.A, wi.B
    # a = g A; 1 - t w = (A - B w)/A and the pair factors (AB w_j w_k -
    # E w_j + AB)/(AB) divide, putting A and AB into the prefactor
    ea, pairs = (s + n) * (N - s - n), n * (n - 1) // 2
    pref = _pref(*fam.z_pair(s + n), (A, ea + n + pairs), (B, pairs),
                 (wi.gn, ea), (wi.gd, -ea))
    if n == 0:
        return Fraction(*pref)

    factors = [(l, [1], [A, -B]) for l in ls]

    def build(ws, ring):
        f = _pair_quotient(_factors(ws, factors), ws, A * B, wi.E, A * B)
        return f, fam.hns_vand(s + n, n, ws, wi.warg_map)

    # inverted: 1 - t w, the pair factors 1 - 2 Delta w_j + w_j w_k and
    # the h argument's denominator t (t w - 1), at w = 0
    return residue_drive([(0, l) for l in ls], build,
                         eps_scale(wi.t, wi.two_delta), pref)


def _psi_bot_frozen_mir(N, s, ls, w):
    """n-fold origin form of psi_bot(1..s, s+l_1..s+l_n), its z_j^(-l_j)
    monomials on their own levels (`exact_core._factors`)."""
    n = len(ls)
    fam = family(w)
    wi = fam.pole_guard()
    A, B = wi.A, wi.B
    # a = g A, c = g C, and AB per pair factor (psi_top_mir_origin)
    ea, pairs = s * (N - s) - n * (N - 1), n * (n - 1) // 2
    pref = _pref(*fam.z_pair(N - s), (A, ea + pairs), (B, pairs),
                 (wi.C, -n), (wi.gn, ea - n), (wi.gd, n - ea))
    if n == 0:
        return Fraction(*pref)

    factors = [(l, [1], [1]) for l in ls]

    def build(zs, ring):
        f = _pair_quotient(_factors(zs, factors), zs, A * B, wi.E, A * B)
        return f, fam.hns_vand(N - s, n, zs, wi.over_t)

    # inverted: the pair factors 1 - 2 Delta z_j + z_j z_k at z = 0
    return residue_drive([(0, l) for l in ls], build,
                         eps_scale(wi.two_delta), pref)


def _trace_sfold_chain(q, w, record):
    """The s-fold derivation chain: efp summation -> double-contour form ->
    extended multisum -> double antisymmetrization -> y-integration ->
    the two s-fold forms."""
    N, r, s = q.N, q.r, q.s
    fam = family(w)
    wi = fam.pole_guard()
    A, B, E = wi.A, wi.B, wi.E
    ab, delta = A * B, Fraction(E, 2 * A * B)
    # the pair factors (AB x_j x_k - E x_j + AB)/(AB) divide, putting AB
    # per pair into the step's prefactor, per side s(s-1)/2 pairs, or
    # s(s-1) ordered ones; the y side's (AB y_j y_k - E y_k + AB)/(AB)
    # multiply, taking AB per pair out again.  1/(t y - 1)^s = A^s/(B y -
    # A)^s puts A^s per y into it.
    ordered_pairs = ab ** (s * (s - 1))
    ys_a = A ** (s * s)
    ty = _ppowers((0, [-A, B]), s)[-1][1]

    # shared x/y integrand pieces -------------------------------------
    # Each 2s-fold integrand is returned as an (x side, y side) pair: the
    # pole-carrying factors of each set start its side, each variable's
    # on its own level (`_factors`), the coupling factors are multiplied
    # into whichever side they keep small, and residue_drive contracts
    # the two sides.
    def x_side(xs, f):
        """f / prod_{j<k} (x_j x_k - 2D x_j + 1) times h_{N,s}(x/t) and
        the Vandermonde of the x's."""
        f = _pair_quotient(f, xs, ab, E, ab)
        return f * fam.hns_vand(N, s, xs, wi.over_t)

    def y_side(ys, f):
        """f * prod_{j<k} (y_k - y_j)(AB y_j y_k - E y_k + AB)."""
        for j in range(s):
            for k in range(j + 1, s):
                f = f * (ys[k] - ys[j]) * (ab * ys[j] * ys[k] - E * ys[k] + ab)
        return f

    # the x's are integrated first, so vs[:s] are the x's, vs[s:] the y's
    specs = [(0, r)] * s + [(Fraction(A, B), s)] * s
    # inverted: the x pair factors 1 - 2 Delta x_j + x_j x_k at x = 0,
    # and, at y = 1/t, y = (1 + t (y - 1/t))/t and 1 - x y = 1 - x/t -
    # x (y - 1/t)
    scale = eps_scale(wi.t, wi.t[::-1], wi.two_delta)

    def build_double(vs, ring):
        xs, ys = vs[:s], vs[s:]
        fy = y_side(ys, _factors(ys, [(s - 1, [1], ty)] * s))
        msum = ring.const(0)
        for pos in combinations(range(1, r + 1), s):
            msum = msum + _factors(vs, [(p, [1], [1]) for p in pos * 2])
        return x_side(xs, ring.const(1)), fy * msum

    record("double-contour",
           residue_drive(specs, build_double, scale, (ys_a, 1)))

    def build_double2(vs, ring):
        xs, ys = vs[:s], vs[s:]
        fx = x_side(xs, _factors(xs, [(r - s + j + 1, [1], [1])
                                      for j in range(s)]))
        fy = _factors(ys, [(r + j, [1], ty) for j in range(s)])
        for j in range(s):
            prodxy = ring.const(1)
            for l in range(j + 1):
                prodxy = prodxy * xs[l] * ys[l]
            fx = fx / (1 - prodxy)
        return fx, y_side(ys, fy)

    record("double-contour-extended",
           residue_drive(specs, build_double2, scale, (ys_a, 1)))

    def build_double3(vs, ring):
        """The double antisymmetrization, with W_s(x; y) = P_s(x; y) /
        prod (1 - x_j y_k) and P_s in its det form (`cantini_P_vand`,
        P_s Vand(x) Vand(y)).  Of the integrand's Vand(x)^2 Vand(y)^2,
        hns_vand holds one Vand(x), so one Vand(y) is left."""
        xs, ys = vs[:s], vs[s:]
        fy = _factors(ys, [(r + s - 1, [1], ty)] * s)
        for j in range(s):
            for k in range(j + 1, s):
                fy = fy * (ys[k] - ys[j])
        fx = _pair_quotient(_factors(xs, [(r, [1], [1])] * s), xs, ab, E, ab,
                            ordered=True)
        fx = fx * fam.hns_vand(N, s, xs, wi.over_t)
        # the y side has a pole of order s at each y, so only the
        # y-powers below s of the x side pair with it: cut them there
        # before the 1 - x_j y_k factors spread the x side in the y's
        for k in range(s):
            fx = fx * ring.laurent(s + k, 0, [1], s)
        for j in range(s):
            for k in range(s):
                fx = fx / (1 - xs[j] * ys[k])
        return fx, cantini_P_vand(xs, ys, delta, fy)

    record("double-contour-symmetrized",
           residue_drive(specs, build_double3, scale,
                         (ordered_pairs * ys_a, math.factorial(s) ** 2)))

    bx = _ppowers((0, [B, -A]), s)[-1][1]

    def build_recovered(xs, ring):
        """The y-integrals taken at the pole y = 1/t: W_s(x; 1/t..1/t)
        with P_s in the confluent limit of its det form
        (`cantini_P_confluent`, P_s(x; 1/t..1/t) Vand(x)), and
        1/(1 - x/t)^s = B^s/(B - A x)^s.  The integrand's prod_{j != k}
        (x_j - x_k) is the sign (applied in the prefactor) times that
        Vand(x) and the one in hns_vand."""
        f = _factors(xs, [(r, [1], bx)] * s)
        f = _pair_quotient(f, xs, ab, E, ab, ordered=True)
        return (f * cantini_P_confluent(xs, Fraction(A, B), delta),
                fam.hns_vand(N, s, xs, wi.over_t))

    # t^(s(r-1)) = B^(s(r-1))/A^(s(r-1)), and B^s per x
    record("sfold-recovered",
           residue_drive(specs[:s], build_recovered, scale, _pref(
               _vand_sign(s) * ordered_pairs, math.factorial(s),
               (B, s * (r - 1) + s * s), (A, -s * (r - 1)))))

    record("sfold-symmetric", efp_mir_s(q, w, "efpMIR2"))
    record("sfold-plain", efp_mir_s(q, w, "efpMIR1"))


def _trace_nfold_chain(q, w, record):
    """The n-fold derivation chain: efpn summation -> n-fold top/bottom pieces
    -> extended multisum -> double antisymmetrization -> contour flip
    onto the 1/w poles -> symmetric integration -> the n-fold form."""
    N, r, s, n = q.N, q.r, q.s, q.n
    fam = family(w)
    wi = fam.pole_guard()
    A, E = wi.A, wi.E
    ab, delta = A * wi.B, Fraction(E, 2 * A * wi.B)
    if n == 0:
        record("nfold-final", efp_mir_n(q, w))
        return

    # Z_{s+n} Z_{N-s} a^(2s(N-s-n)) / (Z_N c^n a^(n(n-1))), a = g A and
    # c = g C; AB per pair factor, as in the s-fold chain: n(n-1) on a
    # side's ordered pairs, or on both sides' unordered ones; and
    # 1/(1 - t w) = A/(A - B w), A per w
    ea = 2 * s * (N - s - n) - n * (n - 1)
    (zsn, zsd), (zbn, zbd), (zn, zd) = map(fam.z_pair, (s + n, N - s, N))

    def pref(num, den, pairs, tws=n):
        return _pref(num * zsn * zbn * zd * ab ** pairs, den * zsd * zbd * zn,
                     (A, ea + tws), (wi.C, -n), (wi.gn, ea - n),
                     (wi.gd, n - ea))

    def h_top(ws):
        """h_{s+n,n}(warg(w)) times the Vandermonde of the w's."""
        return fam.hns_vand(s + n, n, ws, wi.warg_map)

    def h_bot(zs, mobius=wi.over_t):
        """h_{N-s,n}(z/t) times the Vandermonde of the z's."""
        return fam.hns_vand(N - s, n, zs, mobius)

    # psi-level sub-checks: the (s+n)-fold origin form and the n-fold
    # forms left after integrating out the frozen positions 1..s
    for extra in combinations(range(s + 1, N + 1), n):
        cfg = RowConfig(N, tuple(range(1, s + 1)) + extra)
        ls = [p - s for p in extra]
        got = psi_top_mir_origin(N, 0, cfg.positions, w)
        want = psi_top(cfg, w)
        if got != want:
            raise ChainBreak(f"top-origin-form{cfg.positions}", got, want)
        got = psi_top_mir_origin(N, s, ls, w)
        if got != want:
            raise ChainBreak(f"top-frozen-form{cfg.positions}", got, want)
        got = _psi_bot_frozen_mir(N, s, ls, w)
        want = psi_bot(cfg, w)
        if got != want:
            raise ChainBreak(f"bottom-frozen-form{cfg.positions}", got, want)

    # extended multisum, 2n-fold residues at the origin ----------------
    specs = [(0, N - s)] * (2 * n)
    # inverted: 1 - t w, the pair factors 1 - 2 Delta w_j + w_j w_k and
    # the h_top argument's denominator t (t w - 1), at the origin
    scale = eps_scale(wi.t, wi.two_delta)
    # 1/(w^k (1 - t w)) times A, and 1/z^k, each on its own level
    tw = [1], [A, -wi.B]

    # each 2n-fold integrand is a (w side, z side) pair for residue_drive
    # to contract, the w's integrated first; the coupling factors go onto
    # the w side

    def build_extended(vs, ring):
        ws, zs = vs[:n], vs[n:]
        ks = [N - s - n + j + 1 for j in range(n)]
        fw = _factors(ws, [(k, *tw) for k in ks])
        fz = _factors(zs, [(k, [1], [1]) for k in ks])
        fw = _pair_quotient(fw, ws, ab, E, ab) * h_top(ws)
        for j in range(n):
            prodwz = ring.const(1)
            for l in range(j + 1):
                prodwz = prodwz * ws[l] * zs[l]
            fw = fw / (1 - prodwz)
        return fw, _pair_quotient(fz, zs, ab, E, ab) * h_bot(zs)

    record("nfold-extended",
           residue_drive(specs, build_extended, scale,
                         pref(1, 1, n * (n - 1))))

    # double antisymmetrization with P_n -------------------------------
    def build_symmetrized(vs, ring):
        """P_n(w; z) in its det form (`cantini_P_vand`).  The integrand
        carries prod_{j != k} (w_k - w_j)(z_k - z_j), both Vandermondes
        squared (the signs cancel): h_top and h_bot hold one copy each,
        the det form the other two."""
        ws, zs = vs[:n], vs[n:]
        fw = _factors(ws, [(N - s, *tw)] * n)
        fz = _factors(zs, [(N - s, [1], [1])] * n)
        fw = _pair_quotient(fw, ws, ab, E, ab, ordered=True) * h_top(ws)
        for j in range(n):
            for k in range(n):
                fw = fw / (1 - ws[j] * zs[k])
        fz = _pair_quotient(fz, zs, ab, E, ab, ordered=True) * h_bot(zs)
        return fw, cantini_P_vand(ws, zs, delta, fz)

    record("nfold-symmetrized",
           residue_drive(specs, build_symmetrized, scale,
                         pref(1, math.factorial(n) ** 2, 2 * n * (n - 1))))

    # z-contours flipped onto the poles at 1/w_l -----------------------
    record("nfold-flipped",
           Fraction(*pref(1, math.factorial(n) ** 2, 0, 0))
           * _flipped_contour_value(q, w))

    # after the symmetric-function integration -------------------------
    def build_integrated(ws, ring):
        """P_n(w; 1/w) in its closed form (psxx), prod_j w_j^-(n-1)
        prod_{j != k} (w_j w_k - 2D w_j + 1): times the integrand's
        w_j^(n-2) it leaves 1/w_j, and it cancels one of the two powers
        of each pair factor.  prod_{j != k} (w_k - w_j) is the sign
        (applied in the prefactor) times the two Vandermondes that h_top
        and h_bot carry."""
        f = _pair_quotient(_factors(ws, [(1, *tw)] * n), ws, ab, E, ab,
                           ordered=True)
        # the z = 1/w_j poles feed h_{N-s,n} at 1/(t w_j)
        return f * h_top(ws), h_bot(ws, wi.inv_tz)

    record("nfold-integrated",
           residue_drive([(0, (N - s) + n + 1)] * n, build_integrated, scale,
                         pref(_vand_sign(n), math.factorial(n), n * (n - 1))))

    record("nfold-final", efp_mir_n(q, w))


def _flipped_contour_value(q, w) -> Fraction:
    """The 2n-fold integral of the symmetrized integrand with the
    z-contours wrapped around the poles z = 1/w_l.

    The z-integral is a sum over pole assignments sigma: z_k sits on the
    simple pole 1/w_sigma(k) of (1 - w_sigma(k) z_k)^(-1), whose residue
    there is -1/w_sigma(k), and the outward deformation from C_0 runs
    clockwise around the 1/w poles, hence a factor (-1) per variable.
    Only the n! bijections sigma are summed: an assignment that puts two
    z's on one pole is zero, because there the simple pole meets the
    double zero of (z_k - z_j)(z_j - z_k).  The n! terms are kept apart,
    not collapsed to n! times one of them, so that this step stays an
    independent check of `nfold-integrated`.

    P_n is symmetric in its y's, so at every assignment z = 1/w_sigma it
    takes the closed form (psxx) P_n(w; 1/w) = prod_j w_j^-(n-1)
    prod_{j != k} (w_j w_k - 2D w_j + 1); that common factor goes into the
    w-only prefactor, where it cancels the pair-factor divisions.  So do
    the residues and the z_k^-(N-s) = w_sigma(k)^(N-s), whose product over
    k, prod_l -w_l^(N-s-1), does not depend on sigma; its signs cancel
    the clockwise ones.

    What is left is a residue at w = 0.  As a rational function each term
    is the integrand of `nfold-integrated` (the (w_l - w_j) denominators
    of the 1/(1 - w_j z_k) cancel against the z-Vandermondes), so it has
    the same pole order bound (N - s) + n + 1 per variable; on the tower
    those denominators are expanded in the nesting order and cancel
    within the window.  The z's are 1/w's, series in the tower variables
    and not variables themselves, so each term divides by its pair
    factors prod_{j != k} (z_j z_k - 2D z_j + 1) as series quotients,
    after the flips, where the other integrands take `_pair_quotient`.
    """
    N, s, n = q.N, q.s, q.n
    fam = family(w)
    wi = fam.pole_guard()
    t, delta = w.t(), w.delta()

    def build(ws, ring):
        # w-only prefactor of the integrand times P_n(w; 1/w) and the
        # residues; prod_{j != k} (w_k - w_j) is the sign times the
        # Vandermonde here and the one in hns_vand
        base = ring.const(_vand_sign(n))
        for j in range(n):
            base = base / ((1 - t * ws[j]) * ws[j] ** n)
            for k in range(j + 1, n):
                base = base * (ws[k] - ws[j])
        base = base * fam.hns_vand(s + n, n, ws, wi.warg_map)

        total = ring.const(0)
        for sigma in permutations(range(n)):
            zs = [1 / ws[l] for l in sigma]
            # prod_{j != k} (z_k - z_j): the sign times the Vandermonde
            # here and the one in hns_vand
            term = ring.const(_vand_sign(n))
            for j in range(n):
                for k in range(j + 1, n):
                    term = term * (zs[k] - zs[j])
            term = term * fam.hns_vand(N - s, n, zs, wi.over_t)  # h(z/t)
            # 1 - w_j z_k = 1 - w_j/w_l expands in the outer of w_j, w_l
            # over the inner, so the quotient reaches lower in the inner
            # variable row by row; a tower keeps one window per variable,
            # so these divide the exact numerator first, outer variable
            # first, and the windowed pair factors come last
            divisors = [1 - ws[j] * zs[k] for _, j, k in sorted(
                (min(j, l), j, k) for k, l in enumerate(sigma)
                for j in range(n) if j != l)]
            divisors += [zs[j] * zs[k] - 2 * delta * zs[j] + 1
                         for j in range(n) for k in range(n) if k != j]
            for g in divisors:
                term = term / g
            total = total + term
        return base, total

    # inverted: 1 - t w and the pair factors in the w's and in the z's
    # (z_j z_k - 2 Delta z_j + 1, at z = 1/w a multiple of w^-2)
    return residue_drive([(0, (N - s) + n + 1)] * n, build,
                         eps_scale(wi.t, wi.two_delta))


def efp_double_contour_trace(q: EfpQuery, w: WeightTriple):
    """Evaluate both derivation chains exactly, step by step.

    Returns the ordered list of (step, value); raises ChainBreak at the
    first step whose value differs from the running one.  The 2s-fold
    double-contour steps are evaluated only for s <= MAX_DOUBLE_S: their
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
    if q.s <= MAX_DOUBLE_S:
        _trace_sfold_chain(q, w, record)
    else:
        record("sfold-symmetric", efp_mir_s(q, w, "efpMIR2"))
        record("sfold-plain", efp_mir_s(q, w, "efpMIR1"))
    _trace_nfold_chain(q, w, record)
    return steps
