import cmath
import math
import random
from fractions import Fraction
from itertools import permutations
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dwbc import ik_engine
from dwbc.bethe_reps import _crossed, psi_bot_mir
from dwbc.errors import DegeneratePoints, NearDegenerate, Singular
from dwbc.ik_engine import (
    CACHE_SIZE,
    BoundaryGenFamily,
    cantini_P_confluent,
    cantini_P_vand,
    cantini_W_value,
    family,
)
from dwbc.ik_numeric import ik_determinant, ik_homogeneous, phi_derivatives
from dwbc.exact_core import (Line, Series, _content, _padd, _plin, _pmul,
                             _ppowers, _tower_point, _trimmed, build_tower,
                             residue_drive)
from dwbc.identity_suite import p_s_value
from dwbc.rational import _horner
from dwbc.lattice_oracle import (RowConfig, WeightMatrix, WeightTriple,
                                 enumerate_Z, psi_bot)
from dwbc.trig import NumericTriple, TrigParams, homogeneous_abc
from tower_reference import agree, same


def draw_params(rng, n):
    while True:
        lams = sorted(rng.uniform(0.2, 2.4) for _ in range(n))
        nus = sorted(rng.uniform(-0.6, 0.6) for _ in range(n))
        eta = rng.uniform(0.2, 0.6)
        ok = all(b - a > 0.08 for a, b in zip(lams, lams[1:]))
        ok = ok and all(b - a > 0.08 for a, b in zip(nus, nus[1:]))
        if ok:
            return TrigParams(lams, nus, eta)


class TestDeterminant:
    def test_one_by_one(self):
        p = TrigParams([0.7], [0.1], 0.4)
        assert abs(ik_determinant(p) - cmath.sin(0.8)) < 1e-14

    def test_matches_enumeration(self):
        rng = random.Random(17)
        for n in (1, 2, 3, 4):
            for _ in range(4):
                p = draw_params(rng, n)
                z1 = ik_determinant(p)
                z2 = enumerate_Z(n, p.weight_matrix(), "enum")
                assert abs(z1 - z2) <= 1e-9 * max(1, abs(z1))

    def test_spec_point(self):
        p = TrigParams([0.3, 0.7], [0.1, 0.2], 0.4)
        z1 = ik_determinant(p)
        z2 = enumerate_Z(2, p.weight_matrix(), "enum")
        assert abs(z1 - z2) <= 1e-9 * max(1, abs(z1))

    def test_permutation_invariance(self):
        p = TrigParams([0.3, 0.8, 1.4], [0.05, 0.22, -0.31], 0.37)
        q = TrigParams([1.4, 0.3, 0.8], [0.05, 0.22, -0.31], 0.37)
        z1, z2 = ik_determinant(p), ik_determinant(q)
        assert abs(z1 - z2) <= 1e-12 * abs(z1)
        q2 = TrigParams([0.3, 0.8, 1.4], [0.22, -0.31, 0.05], 0.37)
        assert abs(ik_determinant(q2) - z1) <= 1e-12 * abs(z1)

    def test_near_degenerate(self):
        # the determinant divides by d(l_1, l_2): coincident lambdas
        # are refused there, coincident nus when the record is built
        with pytest.raises(NearDegenerate):
            ik_determinant(TrigParams([0.3, 0.3 + 1e-10], [0.1, 0.2], 0.4))
        with pytest.raises(NearDegenerate):
            TrigParams([0.1, 0.2], [0.3, 0.3 + 1e-10], 0.4)


class TestHomogeneous:
    def test_n1(self):
        assert ik_homogeneous(0, 0.9, 0.3) == 1  # the empty lattice
        assert abs(ik_homogeneous(1, 0.9, 0.3) - cmath.sin(0.6)) < 1e-13

    def test_ice_like_point(self):
        # lam = pi/2, eta = pi/6: a = b = c, so Z_3 = 7 a^9
        z = ik_homogeneous(3, math.pi / 2, math.pi / 6)
        rho = math.sin(2 * math.pi / 3)
        assert abs(z - 7 * rho**9) <= 1e-9 * abs(z)

    def test_matches_oracle(self):
        lam, eta = 0.95, 0.33
        w = NumericTriple(*homogeneous_abc(lam, eta))
        for n in (2, 3, 4, 5):
            zh = ik_homogeneous(n, lam, eta)
            zo = enumerate_Z(n, w, "transfer")
            assert abs(zh - zo) <= 1e-9 * abs(zo)

    def test_limit_of_determinant(self):
        # symmetric perturbation plus one Richardson step in eps^2
        lam, eta = 0.95, 0.33
        zh = ik_homogeneous(3, lam, eta)

        def f(eps):
            return ik_determinant(TrigParams(
                [lam - eps, lam, lam + eps], [-0.7 * eps, 0.0, 0.7 * eps], eta))

        r = (4 * f(2e-3) - f(4e-3)) / 3
        assert abs(r - zh) <= 1e-6 * abs(zh)

    def test_singular_guard(self):
        with pytest.raises(Singular):
            phi_derivatives(0.3, 0.3, 2)


class TestBoundaryFamily:
    def test_caches_bounded(self):
        # 200 distinct weight triples leave the per-weight cache at or
        # below its bound
        for k in range(200):
            w = WeightTriple(Fraction(k + 2, 3), 2, Fraction(5, 7))
            assert family(w).h(2).eval(1) == 1
        info = family.cache_info()
        assert info.maxsize == CACHE_SIZE
        assert info.currsize <= CACHE_SIZE

    def test_hn1_is_hn(self):
        w = WeightTriple(2, 3, 4)
        fam = family(w)
        z = Fraction(2, 7)
        assert fam.hns_value(4, 1, [z]) == fam.h(4).eval(z)

    def test_value_vs_poly_and_symmetry(self):
        w = WeightTriple(2, 3, 4)
        fam = family(w)
        n = 4
        for s in (1, 2, 3):
            pts = [Fraction(k + 2, 7) for k in range(s)]
            v = fam.hns_value(n, s, pts)
            p = fam.hns_poly(n, s)
            assert p.eval(pts) == v
            assert p.eval(list(reversed(pts))) == v
            assert all(p.degree(i) <= n - 1 for i in range(s))

    def test_reduction_at_one(self):
        w = WeightTriple(1, 2, 2)
        fam = family(w)
        pts = [Fraction(1, 3), Fraction(2, 5)]
        lhs = fam.hns_poly(4, 3).eval(pts + [Fraction(1)])
        rhs = fam.hns_poly(4, 2).eval(pts)
        assert lhs == rhs

    def test_reduction_at_zero(self):
        w = WeightTriple(1, 2, 2)
        fam = family(w)
        pts = [Fraction(1, 3), Fraction(2, 5)]
        lhs = fam.hns_poly(4, 3).eval(pts + [Fraction(0)])
        rhs = fam.h(4).eval(0) * fam.hns_poly(3, 2).eval(pts)
        assert lhs == rhs

    def test_degenerate_points_error(self):
        w = WeightTriple(2, 3, 4)
        with pytest.raises(DegeneratePoints):
            family(w).hns_value(3, 2, [Fraction(1, 2), Fraction(1, 2)])

    def test_hns_vand_matches_poly(self):
        # h_{N,s}(M(z)) Vand(z) as a determinant, against the divided-
        # difference polynomial, for every Moebius map the residue
        # integrands use; coincident points included
        rng = random.Random(11)
        w = WeightTriple(Fraction(3, 2), 2, Fraction(5, 3))
        fam = family(w)
        t, d = w.t(), w.delta()
        maps = [(1, 0, 0, 1), (1, 0, 0, t), (-1, 1, t * t - 2 * d * t, 1),
                (t * t, 1 - 2 * d * t, t * t, -t * t),
                (2 * d * t - 1, -t, t * t, -t), (0, 1, t, 0)]
        for (al, be, ga, de) in maps:
            for s in range(5):
                n = s + 1
                poly = fam.hns_poly(n, s)
                for coincide in (False, True):
                    zs = [Fraction(rng.randint(-30, 30), rng.randint(1, 9))
                          for _ in range(s)]
                    if coincide and s >= 2:
                        zs[1] = zs[0]
                    if any(ga * z + de == 0 for z in zs):
                        continue
                    want = poly.eval([(al * z + be) / (ga * z + de)
                                      for z in zs])
                    for j in range(s):
                        for k in range(j + 1, s):
                            want *= zs[k] - zs[j]
                    got = fam.hns_vand(n, s, zs, (al, be, ga, de))
                    assert got == want
                    if (al, be, ga, de) != (1, 0, 0, 1) or s < 2:
                        continue
                    if coincide:
                        with pytest.raises(DegeneratePoints):
                            fam.hns_value(n, s, zs)
                    else:
                        assert fam.hns_value(n, s, zs) == poly.eval(zs)

    def test_hns_vand_on_tower(self):
        # on Laurent-tower elements (the composed n-fold argument, with
        # its pole at z = 1) both forms give the same iterated residue
        w = WeightTriple(1, 2, 2)
        fam = family(w)
        t, d = w.t(), w.delta()
        mob = (t * t, 1 - 2 * d * t, t * t, -t * t)
        poly = fam.hns_poly(4, 2)

        def build(vand_form):
            def integrand(vs, ring):
                z1, z2 = vs
                f = 1 / ((z1 - 1) * (z2 - 1) * (z1 * z2 + 3))
                if vand_form:
                    return f * fam.hns_vand(4, 2, [z1, z2], mob)
                args = [(mob[0] * z + mob[1]) / (mob[2] * z + mob[3])
                        for z in (z1, z2)]
                return f * (z2 - z1) * poly.eval(args)
            return integrand

        # z1 z2 + 3 = 4 (1 + (eps1 + eps2 + eps1 eps2)/4) at z = 1 + eps:
        # scaled by 4, a unit on ints
        specs = [(Fraction(1), 5), (Fraction(1), 5)]
        assert residue_drive(specs, build(True), 4) \
            == residue_drive(specs, build(False), 4)

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_windowed_hns_vand_matches_poly(self, data):
        # at tower points each line of hns_vand is cut to its level's
        # window; what it knows is h_{N,s}(M(z)) Vand(z) from hns_poly,
        # at polynomial points c + D eps, also at the map's pole (the
        # w-map's at z = 1), and Laurent points 1/(D eps), on windows
        # down to one term, shorter than the columns' degree; and its
        # box and leaves are those of the columns built by lists
        # (`_list_line`)
        fam = family(WeightTriple(Fraction(3, 2), 2, Fraction(5, 3)))
        s, n, mob, ring, zs = _draw_tower_points(data, fam)
        al, be, ga, de = mob
        want = fam.hns_poly(n, s).eval(
            [(al * z + be) / _rational(ga * z + de) for z in zs])
        want = want * _vand(zs)
        got = fam.hns_vand(n, s, zs, mob)
        with mock.patch.object(ik_engine, "_hns_line", _list_line):
            lists = fam.hns_vand(n, s, zs, mob)
        assert (got.n, got.d) == (lists.n, lists.d)
        assert (got.lo, got.shape, got.err, got.coeffs) \
            == (lists.lo, lists.shape, lists.err, lists.coeffs)
        got, want = (v * ring.const(1) for v in (got, want))
        assert agree(got, want)

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_factored_hns_vand(self, data):
        # a per-variable factor num(z)/(z^k den(z)) taken into the columns:
        # hns_vand with it is hns_vand times it at each point, wherever
        # both know their coefficients, at the points, windows and maps
        # of test_windowed_hns_vand_matches_poly; its box and leaves are
        # those of the columns built by lists; and at rational points it
        # is that product exactly
        fam = family(WeightTriple(Fraction(3, 2), 2, Fraction(5, 3)))
        s, n, mob, ring, zs = _draw_tower_points(data, fam)
        coeffs = st.lists(st.integers(-3, 3), min_size=1, max_size=4).filter(
            lambda f: f[-1])
        factor = (data.draw(st.integers(0, 3)), data.draw(coeffs),
                  data.draw(coeffs))
        k, num, den = factor
        want = fam.hns_vand(n, s, zs, mob)
        for z in zs:
            want = want * _horner(num, z) / _rational(
                z ** k * _horner(den, z))
        got = fam.hns_vand(n, s, zs, mob, factor)
        with mock.patch.object(ik_engine, "_hns_line", _list_line):
            lists = fam.hns_vand(n, s, zs, mob, factor)
        assert (got.n, got.d) == (lists.n, lists.d)
        assert (got.lo, got.shape, got.err, got.coeffs) \
            == (lists.lo, lists.shape, lists.err, lists.coeffs)
        got, want = (v * ring.const(1) for v in (got, want))
        assert agree(got, want)
        al, be, ga, de = mob
        xs = [Fraction(data.draw(st.integers(1, 9)), 7) for _ in range(s)]
        if all(ga * x + de and _horner(den, x) for x in xs):
            want = fam.hns_vand(n, s, xs, mob)
            for x in xs:
                want *= _horner(num, x) / (x ** k * _horner(den, x))
            assert fam.hns_vand(n, s, xs, mob, factor) == want

    def test_integer_rows_are_the_fraction_rows(self):
        # the rows of hns_vand, built on the integer psi lists of the
        # sweep, are the contents of the Fraction rows hns_poly takes
        rng = random.Random(31)
        for _ in range(6):
            w = WeightTriple(*(Fraction(rng.randint(1, 12), rng.randint(1, 7))
                               for _ in range(3)))
            fam = BoundaryGenFamily(w)
            for n in range(1, 8):
                for s in range(n + 1):
                    rho, rows = Fraction(1), []
                    for i in range(1, s + 1):
                        (g, q), cs = _content(fam._row_coeffs(n, s, i))
                        rho *= Fraction(g, q)
                        rows.append(cs)
                    (rn, rd), got = fam._hns_rows(n, s)
                    assert (Fraction(rn, rd), got) == (rho, rows)

    def test_cold_route_sweeps_once(self, monkeypatch):
        # a cold psi_bot_mir at N = 7 sweeps once, at N, and turns no Z_M
        # and no h_M into Fractions: its prefactor takes Z_7 and its rows
        # the psi lists as the sweep's integers
        sweeps = []
        cuts = ik_engine._frozen_cuts

        def counted(N, w):
            sweeps.append(N)
            return cuts(N, w)

        monkeypatch.setattr(ik_engine, "_frozen_cuts", counted)
        w = WeightTriple(Fraction(13, 5), Fraction(7, 3), Fraction(11, 4))
        family.cache_clear()
        cfg = RowConfig(7, (2, 5, 6))
        assert psi_bot_mir(cfg, w) == psi_bot(cfg, w)
        fam = family(w)
        assert sweeps == [7]
        assert fam._z == {} and fam._h == {}

    def test_shared_lines_cut_to_each_window(self, monkeypatch):
        # points with one polynomial on levels of different windows share
        # a line made at the widest one and cut for the others; the lines
        # and hns_vand equal those made one per point
        fam = family(WeightTriple(Fraction(3, 2), 2, Fraction(5, 3)))
        t, d = fam.w.t(), fam.w.delta()
        maps = [(1, 0, 0, 1), (1, 0, 0, t), (-1, 3, -2, 1),
                (t * t, 1 - 2 * d * t, t * t, -t * t),
                (2 * d * t - 1, -t, t * t, -t)]
        precs = [3, 6, 2, 4]
        ring, atoms = build_tower([(f"e{j}", p) for j, p in enumerate(precs)])

        def own(points, make):
            return [make(i) for i in range(len(points))]

        def entries(line):
            if isinstance(line, list):
                return line
            return (line.lo, line.err, [[Fraction(line.kn, line.kd) * c
                                         for c in row]
                                        for row in line.rows])

        for mob in maps:
            for point in (lambda e: e + 1, lambda e: 1 / e,
                          lambda e: e - Fraction(2, 3)):
                for n in (4, 6):
                    zs = [point(2 * atoms[f"e{j}"]) for j in range(4)]
                    zs[3] = Fraction(1, 5)
                    rows = fam._hns_rows(n, 4)[1]
                    points = [_tower_point(z) for z in zs]

                    def make(i):
                        return ik_engine._hns_line(n, 4, rows, points[i], mob)

                    shared = ik_engine._point_lines(points, make)
                    assert list(map(entries, shared)) \
                        == list(map(entries, own(points, make)))
                    got = fam.hns_vand(n, 4, zs, mob) * ring.const(1)
                    monkeypatch.setattr(ik_engine, "_point_lines", own)
                    want = fam.hns_vand(n, 4, zs, mob) * ring.const(1)
                    monkeypatch.undo()
                    assert (got.lo, got.shape, got.err) \
                        == (want.lo, want.shape, want.err)
                    assert same(got, want)

    def test_htilde_reversal(self):
        # the reversed family htilde_M(z) = z^(M-1) h_M(1/z) is h_M of the
        # a<->b crossed weights: the dual residue routes take it from there
        rng = random.Random(23)
        ws = [WeightTriple(Fraction(5, 3), Fraction(5, 3), Fraction(2, 7))]
        ws += [WeightTriple(*(Fraction(rng.randint(1, 12), rng.randint(1, 6))
                              for _ in range(3))) for _ in range(4)]
        for w in ws:
            for m in range(1, 9):
                assert family(_crossed(w)).h(m).coeffs \
                    == family(w).h(m).coeffs[::-1]

    def test_htilde_family_relation(self):
        # htilde_{N,s}(z) = prod z_j^(N-1) h_{N,s}(1/z), with htilde_{N,s}
        # the h_{N,s} of the a<->b crossed weights
        w = WeightTriple(1, 2, 2)
        n, s = 4, 2
        pts = [Fraction(2, 3), Fraction(5, 7)]
        lhs = family(_crossed(w)).hns_poly(n, s).eval(pts)
        rhs = family(w).hns_poly(n, s).eval([1 / p for p in pts])
        for p in pts:
            rhs *= p ** (n - 1)
        assert lhs == rhs


def _conic_points(w, s):
    """s weight pairs (a + u, b + m u) on the conic of w, a^2 + b^2 -
    2 Delta a b = c^2, one per slope m, none with a weight 0 and no two
    with one argument a b_alpha / (b a_alpha) of h_{N,s}."""
    a, b, delta = w.a, w.b, w.delta()
    pts, args = [], []
    for m in (Fraction(1, 2), 2, -1, Fraction(-1, 3), 3, Fraction(1, 5), -2,
              Fraction(5, 2), Fraction(-3, 4), 4):
        den = 1 + m * m - 2 * delta * m
        if not den:
            continue
        u = -2 * (a + b * m - delta * (a * m + b)) / den
        p, q = a + u, b + m * u
        if p and q and a * q / (b * p) not in args:
            pts.append((p, q))
            args.append(a * q / (b * p))
    return pts[:s], args[:s]


class TestPartiallyInhomogeneous:
    # a generic triple and Delta = 0, 1/2, 1
    @pytest.mark.parametrize("w", [
        WeightTriple(Fraction(3, 2), 2, Fraction(5, 3)), WeightTriple(3, 4, 5),
        WeightTriple(1, 1, 1), WeightTriple(2, 1, 1)])
    def test_defining_identity(self, w):
        # h_{N,s} as the paper defines it: the first s vertical lines
        # take weights (a_alpha, b_alpha, c) on the Delta-conic of
        # (a, b, c), and Z_N of those weights is Z_N prod (a_alpha /
        # a)^(N-1) h_{N,s}(a b_alpha / (b a_alpha)), equal as Fractions
        a, b, c = w.a, w.b, w.c
        for n in range(1, 7):
            z = enumerate_Z(n, w)
            for s in range(1, n + 1):
                pts, args = _conic_points(w, s)
                assert len(pts) == s
                rows = pts + [(a, b)] * (n - s)
                inhom = WeightMatrix([[p] * n for p, _ in rows],
                                     [[q] * n for _, q in rows], c)
                want = z * family(w).hns_value(n, s, args)
                for p, _ in pts:
                    want *= (p / a) ** (n - 1)
                assert enumerate_Z(n, inhom) == want

    def test_z_product_identity(self):
        # Z_s at nu_j - eta; nu_j factorizes into c^s prod e(nu_j, nu_k)
        for s in (2, 3, 4):
            nus = [0.21 * k + 0.05 for k in range(s)]
            eta = 0.37
            lams = [v - eta for v in nus]
            a = [[cmath.sin(l - v + eta) for v in nus] for l in lams]
            b = [[cmath.sin(l - v - eta) for v in nus] for l in lams]
            z = enumerate_Z(s, WeightMatrix(a, b, cmath.sin(2 * eta)), "enum")
            rhs = cmath.sin(2 * eta) ** s
            for j in range(s):
                for k in range(s):
                    if j != k:
                        rhs *= cmath.sin(nus[j] - nus[k] + 2 * eta)
            assert abs(z - rhs) <= 1e-10 * max(1, abs(rhs))


def _vand(pts):
    """prod_{j<k} (pts[k] - pts[j])."""
    out = 1
    for j in range(len(pts)):
        for k in range(j + 1, len(pts)):
            out = out * (pts[k] - pts[j])
    return out


def _rational(x):
    """x with its pair taken into Fraction leaves, so that a reference
    divides by it as it is: an exact divisor's int leading leaf must
    divide the others, and the tower inverts an int leaf only as a
    unit."""
    if not isinstance(x, Series):
        return x
    return Series(x.ring, x.lo, x.shape,
                  [Fraction(x.n * c, x.d) for c in x.coeffs], x.err)


def _draw_tower_points(data, fam):
    """(s, n, mobius, ring, zs): s <= 3 points of a tower whose levels
    have windows of 1-4 terms, each c + D eps (c also the map's pole) or
    1/(D eps), for h_{n,s} and a map `hns_vand` takes."""
    wi = fam.pole_guard()
    small = st.fractions(min_value=-3, max_value=3, max_denominator=3)
    s = data.draw(st.integers(1, 3))
    n = data.draw(st.integers(s, 5))
    mob = data.draw(st.sampled_from([wi.u_map, wi.w_map, wi.warg_map,
                                     wi.over_t, wi.inv_tz])
                    | st.tuples(small, small, small, small).filter(
                        lambda m: m[0] * m[3] != m[1] * m[2]))
    al, be, ga, de = mob
    centres = small | st.just(-Fraction(de) / ga) if ga else small
    precs = data.draw(st.lists(st.integers(1, 4), min_size=s, max_size=s))
    ring, atoms = build_tower([(f"e{j}", p) for j, p in enumerate(precs)])
    zs = []
    for j in range(s):
        eps = data.draw(st.sampled_from([1, 2, Fraction(1, 3)])) \
            * atoms[f"e{j}"]
        zs.append(1 / eps if data.draw(st.booleans())
                  else eps + data.draw(centres))
    return s, n, mob, ring, zs


def _list_line(N, s, rows, point, mobius, factor=None):
    """`ik_engine._hns_line` at a tower point on lists: the D + 1 products
    (p n)^m (q d)^(D-m) by `_pmul`, each row their integer combination
    times num of the factor num(z)/(z^k den(z)), the divisor d^(N-1) z^k
    den, its monomial factors taken into the scalar, the rest a shift or
    its w-term inverse by the division recurrence on q_m u_0^(m+1), times
    each row by `_pmul`, then cut to the level's window and brought to
    integer content."""
    al, be, ga, de = mobius
    k, num, den = factor or (0, [1], [1])
    top, level, poly, pd = point
    D, lo = N + s - 2, min(poly[0], 0)
    (gn, qn), n = _content(_trimmed(_plin(al, be * pd, poly)[1]))
    if ga:
        (gd, qd), d = _content(_trimmed(_plin(ga, de * pd, poly)[1]))
    else:
        x = de * pd
        gd, qd, d = x.numerator, x.denominator, [0] * -lo + [1]
    p, q = gn * qd, qn * gd
    h = math.gcd(p, q) * (-1 if q < 0 else 1)
    p, q = p // h, q // h
    xs = _ppowers((0, [p * c for c in n]), D)
    ys = _ppowers((0, [q * c for c in d]), D)
    basis = [_pmul(xs[m], ys[D - m])[1] for m in range(D + 1)]
    size = max(map(len, basis))
    num_at, den_at = (_poly_at(f, poly, pd) for f in (num, den))
    polys = [_pmul((lo * D, [sum(c * b[e] for c, b in zip(cs, basis)
                                 if e < len(b)) for e in range(size)]),
                   num_at) for cs in rows]
    e = k + len(den) - len(num)
    kn, kd, w = gd ** (s - 1) * pd ** max(e, 0), \
        (qd * pd) ** (s - 1) * q ** D * pd ** max(-e, 0), top.precs[level]
    # the divisor d^(N-1) z^k den, each factor from its lowest term
    parts = [(lo, d)] * (N - 1) + [poly] * k + [den_at]
    lows = [pl + next(i for i, c in enumerate(cs) if c) for pl, cs in parts]
    u = [_trimmed(cs[m - pl:]) for (pl, cs), m in zip(parts, lows)]
    polys = [(l - sum(lows), cs) for l, cs in polys]
    low = min(l + cs.index(next(filter(None, cs))) for l, cs in polys)
    cut = low + w
    kd *= math.prod(f[0] for f in u if len(f) == 1)
    u = [f for f in u if len(f) > 1]
    if u:
        up = (0, [1])
        for f in u:
            up = _pmul(up, (0, f), w)
        up = up[1]
        inv = [1]
        for m in range(1, w):
            inv.append(-sum(up[i] * up[0] ** (i - 1) * inv[m - i]
                            for i in range(1, min(m + 1, len(up)))))
        inv = [c * up[0] ** (w - 1 - m) for m, c in enumerate(inv)]
        kd *= up[0] ** w
        polys = [_pmul(pl, (0, inv), cut) for pl in polys]
        err = cut
    else:
        err = math.inf if all(l + len(cs) <= cut or not any(cs[cut - l:])
                              for l, cs in polys) else cut
    width = min(cut, max(l + len(cs) for l, cs in polys)) - low
    (g, qq), flat = _content([cs[e - l] if 0 <= e - l < len(cs) else 0
                              for l, cs in polys
                              for e in range(low, low + width)])
    return Line(kn * g, kd * qq, top, level, low,
                [flat[i * width:(i + 1) * width] for i in range(len(rows))],
                err)


def _poly_at(f, poly, pd):
    """sum_m f[m] poly^m pd^(deg-m) from the powers of poly."""
    out = (0, [])
    for m, pw in enumerate(_ppowers(poly, len(f) - 1)):
        out = _padd(out, _pmul(pw, (0, [f[m] * pd ** (len(f) - 1 - m)])))
    return out


def _distinct(rng, count):
    out = []
    while len(out) < count:
        v = Fraction(rng.randint(-12, 12), rng.randint(1, 9))
        if v != 0 and v not in out:
            out.append(v)
    return out


class TestCantiniKernel:
    def test_p1_is_one(self):
        x, y, delta = Fraction(3, 5), Fraction(-2, 7), Fraction(1, 2)
        assert cantini_P_vand([x], [y], delta) == 1
        assert cantini_P_confluent([x], y, delta) == 1

    def test_p_vs_w_definition(self):
        rng = random.Random(3)
        for s in (2, 3):
            delta = Fraction(1, 2)
            for _ in range(4):
                xs = [Fraction(rng.randint(-12, 12), rng.randint(1, 9))
                      for _ in range(s)]
                ys = [Fraction(rng.randint(-12, 12), rng.randint(1, 9))
                      for _ in range(s)]
                if len(set(xs)) < s or len(set(ys)) < s:
                    continue
                try:
                    w = cantini_W_value(xs, ys, delta)
                except ZeroDivisionError:
                    continue
                pref = Fraction(1)
                for x in xs:
                    for y in ys:
                        pref *= 1 - x * y
                assert cantini_P_vand(xs, ys, delta) \
                    == w * pref * _vand(xs) * _vand(ys)

    def test_det_form_matches_p_value(self):
        # against p_s_value, interpolated from the det-psi definition and
        # independent of any determinant form of P_s; the later draws put
        # points on 1 - x_j y_j = 0, where W_s itself has a pole
        rng = random.Random(5)
        for s in (1, 2, 3, 4):
            for trial in range(3):
                delta = Fraction(rng.randint(-6, 6), rng.randint(1, 5))
                xs, ys = _distinct(rng, s), _distinct(rng, s)
                for j in range(trial):
                    ys[j % s] = 1 / xs[j % s]
                assert cantini_P_vand(xs, ys, delta) \
                    == p_s_value(s, delta, xs, ys) * _vand(xs) * _vand(ys)

    def test_confluent_form_matches_p_value(self):
        # P_s(x; c..c) Vand(x) at coincident y's, c = 1/x_1 included
        rng = random.Random(6)
        for s in (1, 2, 3, 4):
            for trial in range(3):
                delta = Fraction(rng.randint(-6, 6), rng.randint(1, 5))
                xs = _distinct(rng, s)
                c = 1 / xs[0] if trial == 2 else _distinct(rng, 1)[0]
                assert cantini_P_confluent(xs, c, delta) \
                    == p_s_value(s, delta, xs, [c] * s) * _vand(xs)

    def test_det_form_at_inverse_points_is_psxx(self):
        # the identity the flipped-contour trace step relies on: P_n is
        # symmetric in its y's, so at y = 1/w_sigma it equals the psxx
        # closed form prod w_j^-(n-1) prod_{j != k} (w_j w_k - 2D w_j + 1)
        # for every sigma
        rng = random.Random(7)
        for n in (1, 2, 3, 4):
            delta = Fraction(rng.randint(-6, 6), rng.randint(1, 5))
            ws = _distinct(rng, n)
            closed = Fraction(1)
            for j in range(n):
                closed /= ws[j] ** (n - 1)
                for k in range(n):
                    if j != k:
                        closed *= ws[j] * ws[k] - 2 * delta * ws[j] + 1
            for sigma in permutations(range(n)):
                ys = [1 / ws[l] for l in sigma]
                assert cantini_P_vand(ws, ys, delta) \
                    == closed * _vand(ws) * _vand(ys)
