import cmath
import math
import random
from fractions import Fraction

import pytest

from dwbc.bethe_reps import (
    psi_bot_mir,
    psi_dual_mirs,
    psi_top_mir_coordinate,
    psi_top_mir_new,
)
from dwbc.errors import PoleCollision
from dwbc.exact_core import residue_drive
from dwbc.ik_numeric import (
    ik_determinant,
    psi_bot_sum,
    psi_top_coordinate,
    psi_top_dual_sum,
    psi_top_sum,
)
from dwbc.lattice_oracle import (
    ICE_POINT,
    RowConfig,
    WeightTriple,
    all_row_configs,
    enumerate_Z,
    psi_bot,
    psi_top,
)
from dwbc.trig import TrigParams, a_fn, b_fn, d_fn, e_fn


def draw_params(rng, n):
    while True:
        lams = sorted(rng.uniform(0.2, 2.6) for _ in range(n))
        nus = sorted(rng.uniform(-0.6, 0.6) for _ in range(n))
        eta = rng.uniform(0.15, 0.62)
        ok = all(b - a > 0.08 for a, b in zip(lams, lams[1:]))
        ok = ok and all(b - a > 0.08 for a, b in zip(nus, nus[1:]))
        # keep lambda differences away from the 2 eta resonance too
        ok = ok and all(abs(abs(x - y) - 2 * eta) > 0.04
                        for i, x in enumerate(lams) for y in lams[:i])
        if ok:
            return TrigParams(lams, nus, eta)


class TestSumRepresentations:
    def test_bottom_empty_config_is_z(self):
        rng = random.Random(23)
        p = draw_params(rng, 3)
        z = enumerate_Z(3, p.weight_matrix(), "enum")
        got = psi_bot_sum(RowConfig(3, ()), p)
        assert abs(got - z) <= 1e-9 * abs(z)

    def test_bottom_full_config_is_one(self):
        rng = random.Random(29)
        p = draw_params(rng, 3)
        got = psi_bot_sum(RowConfig(3, (1, 2, 3)), p)
        assert abs(got - 1) <= 1e-8

    def test_top_single_row_closed_form(self):
        rng = random.Random(31)
        p = draw_params(rng, 4)
        for r in range(1, 5):
            got = psi_top_sum(RowConfig(4, (r,)), p)
            expect = cmath.sin(2 * p.eta)
            for al in range(r + 1, 5):
                expect *= a_fn(p.lambdas[al - 1], p.nus[0], p.eta)
            for al in range(1, r):
                expect *= b_fn(p.lambdas[al - 1], p.nus[0], p.eta)
            assert abs(got - expect) <= 1e-10 * max(1, abs(expect))

    def test_three_way_agreement_many_draws(self):
        # topderivation1bis / dual / coordinate against each other and
        # the oracle, 50 random draws and four fixed ones
        rng = random.Random(37)
        cases = []
        while len(cases) < 50:
            n = rng.randint(2, 4)
            s = rng.randint(1, n)
            p = draw_params(rng, n)
            cases.append((p, tuple(sorted(rng.sample(range(1, n + 1), s)))))
        # s = 0, and nu's that collide, (-0.2, 0.2, 0.2) at s = 1, if the
        # crossing negates nu_1..nu_s below nu_1..nu_(N-s) instead of
        # rotating them
        p = TrigParams([0.3, 0.8, 1.2], [-0.2, 0.2, 0.45], 0.35)
        cases += [(cases[0][0], ()), (p, ()), (p, (2,)), (p, (1, 3))]
        for p, pos in cases:
            cfg = RowConfig(p.n, pos)
            oracle = psi_top(cfg, p.weight_matrix())
            for fn in (psi_top_sum, psi_top_dual_sum, psi_top_coordinate):
                got = fn(cfg, p)
                assert abs(got - oracle) <= 1e-8 * max(1, abs(oracle)), fn
            bot = psi_bot_sum(cfg, p)
            bot_o = psi_bot(cfg, p.weight_matrix())
            assert abs(bot - bot_o) <= 1e-8 * max(1, abs(bot_o))

    def test_bottom_sum_n5(self):
        # the stated tolerance holds up to N = 5
        rng = random.Random(43)
        p = draw_params(rng, 5)
        for pos in ((2,), (1, 4), (2, 3, 5)):
            cfg = RowConfig(5, pos)
            got = psi_bot_sum(cfg, p)
            want = psi_bot(cfg, p.weight_matrix())
            assert abs(got - want) <= 1e-8 * max(1, abs(want))

    def test_crossing_between_sums(self):
        rng = random.Random(41)
        n = 3
        p = draw_params(rng, n)
        for s in (1, 2):
            for cfg in all_row_configs(n, s):
                lhs = psi_top_sum(cfg, p)
                lam2 = [math.pi - x for x in p.lambdas]
                nu2 = list(p.nus)
                nu2[n - s:] = [-v for v in p.nus[:s]]
                p2 = TrigParams(lam2, nu2, p.eta)
                rhs = psi_bot_sum(cfg.complement(), p2)
                assert abs(lhs - rhs) <= 1e-8 * max(1, abs(lhs))

    def test_coordinate_equal_lambdas_wavefunction(self):
        # the equal-lambdas special case is the classic s-particle
        # coordinate wavefunction over t_k = b(lam, nu_k)/a(lam, nu_k)
        lam, eta = 1.1, 0.3
        nus = [0.05, 0.31]
        n, s = 3, 2
        p = TrigParams([lam] * n, nus + [0.6], eta)
        cfg = RowConfig(n, (1, 3))
        ts = [b_fn(lam, v, eta) / a_fn(lam, v, eta) for v in nus]
        delta = math.cos(2 * eta)
        pref = cmath.sin(2 * eta) ** s
        for v in nus:
            pref *= a_fn(lam, v, eta) ** (n - 1)
        wave = 0j
        for sgn, perm in ((1, (0, 1)), (-1, (1, 0))):
            term = complex(sgn)
            for j, rj in enumerate(cfg.positions):
                term *= ts[perm[j]] ** (rj - 1)
            term *= ts[perm[0]] * ts[perm[1]] - 2 * delta * ts[perm[0]] + 1
            wave += term
        expect = pref * wave / (ts[1] - ts[0])
        got = psi_top_coordinate(cfg, p)
        assert abs(got - expect) <= 1e-5 * max(1, abs(expect))


class TestIntegralRepresentations:
    triples = [ICE_POINT, WeightTriple(2, 1, 2),
               WeightTriple(Fraction(1, 2), Fraction(3, 4), Fraction(5, 6))]

    def test_five_way_bit_exact_small(self):
        for w in self.triples:
            for n in (1, 2, 3):
                z = enumerate_Z(n, w)
                for s in range(0, n + 1):
                    for cfg in all_row_configs(n, s):
                        top = psi_top(cfg, w)
                        bot = psi_bot(cfg, w)
                        h = top * bot / z
                        assert psi_bot_mir(cfg, w) * top / z == h
                        assert psi_top_mir_coordinate(cfg, w) * bot / z == h
                        assert psi_top_mir_new(cfg, w) * bot / z == h
                        td, bd = psi_dual_mirs(cfg, w)
                        assert td * bd / z == h

    def test_mir_single_row_closed_form(self):
        w = WeightTriple(2, 3, 5)
        n = 4
        for r in range(1, n + 1):
            cfg = RowConfig(n, (r,))
            expect = w.a ** (n - r) * w.b ** (r - 1) * w.c
            assert psi_top_mir_coordinate(cfg, w) == expect
            assert psi_top_mir_new(cfg, w) == expect

    def test_spec_examples(self):
        w = WeightTriple(2, 1, 2)
        cfg = RowConfig(4, (2, 4))
        assert psi_top_mir_coordinate(cfg, w) == psi_top(cfg, w)
        assert psi_top_mir_new(cfg, w) == psi_top(cfg, w)
        w2 = ICE_POINT
        cfg2 = RowConfig(3, (1, 3))
        assert psi_bot_mir(cfg2, w2) == psi_bot(cfg2, w2)
        for r in (1, 2, 3):
            cfg3 = RowConfig(3, (r,))
            td, bd = psi_dual_mirs(cfg3, w2)
            assert td == psi_top(cfg3, w2)
            assert bd == psi_bot(cfg3, w2)

    def test_normalization_over_configs(self):
        w = WeightTriple(1, 2, 2)
        n = 3
        z = enumerate_Z(n, w)
        for s in (1, 2):
            total = sum(psi_top(c, w) * psi_bot_mir(c, w) for c in
                        all_row_configs(n, s))
            assert total == z

    def test_whole_lattice_edges(self):
        w = WeightTriple(1, 2, 2)
        n = 3
        full = RowConfig(n, tuple(range(1, n + 1)))
        td, bd = psi_dual_mirs(full, w)
        assert td == enumerate_Z(n, w)
        assert bd == 1

    def test_symmetric_multiplier_property(self):
        # multiplying the coordinate-route integrand by a symmetric f
        # with f(1..1) = 1 leaves the result unchanged
        w = WeightTriple(1, 2, 2)
        cfg = RowConfig(4, (2, 3))
        n, s, rs = cfg.n, cfg.s, cfg.positions
        t, delta = w.t(), w.delta()
        pref = w.c ** s * w.a ** (s * (n - 1))
        for j in range(1, s + 1):
            pref *= t ** (rs[j - 1] - j)

        def build(symmetric_factor):
            def inner(ws, ring):
                f = ring.const(1)
                for j in range(s):
                    f = f * ws[j] ** (rs[j] - 1) * (ws[j] - 1) ** (-s)
                for j in range(s):
                    for k in range(j + 1, s):
                        f = f * (ws[j] - ws[k]) \
                            * (t * t * ws[j] * ws[k]
                               - 2 * delta * t * ws[j] + 1)
                if symmetric_factor:
                    f = f * ((ws[0] + ws[1]) / 2)
                return f
            return inner

        specs = [(Fraction(1), s)] * s
        plain = pref * residue_drive(specs, build(False))
        weighted = pref * residue_drive(specs, build(True))
        assert plain == weighted == psi_top(cfg, w)

    def test_pole_collision_guard(self):
        # c = 0 is the only way t^2 - 2 Delta t + 1 can vanish; smuggle
        # it past the positivity validation to exercise the guard
        w = WeightTriple(1, 2, 2)
        object.__setattr__(w, "c", Fraction(0))
        with pytest.raises(PoleCollision):
            psi_top_mir_new(RowConfig(2, (1,)), w)


class TestContourDeformation:
    def test_coordinate_route_poles(self):
        # evaluating the inhomogeneous-top integrand on clockwise
        # contours around nu_l - eta reproduces the same value as the
        # counterclockwise contours around lambda (quadrature check)
        lam, eta = 1.05, 0.31
        nus = [0.12]
        n, r = 3, 2
        lams = [lam] * n
        c = cmath.sin(2 * eta)

        def integrand(zeta):
            val = a_fn(lam, nus[0], eta) ** n
            val *= e_fn(zeta, lam, eta) ** (r - 1) / d_fn(zeta, lam) ** r
            val *= c / a_fn(zeta, nus[0], eta)  # Z_1 = c
            return val

        def contour(center, radius, orientation, npts=1024):
            total = 0j
            for k in range(npts):
                th = 2 * math.pi * k / npts
                z = center + radius * cmath.exp(1j * th)
                total += integrand(z) * (z - center)
            return orientation * total / npts

        around_lam = contour(lam, 0.06, +1)
        around_pole = contour(nus[0] - eta, 0.06, -1)
        oracle = a_fn(lam, nus[0], eta) ** (n - r) * c \
            * b_fn(lam, nus[0], eta) ** (r - 1)
        assert abs(around_lam - oracle) <= 1e-8 * abs(oracle)
        assert abs(around_pole - oracle) <= 1e-8 * abs(oracle)

    def test_coordinate_route_poles_twofold(self):
        # s = 2 version: the residue-sum over the weight-function poles
        # nu_l - eta (the printed permutation formula) reproduces the
        # wavefunction, and the apparent-pole cross terms generated by
        # the iterated deformation cancel in total
        lam, eta = 1.05, 0.26
        nus = [0.10, 0.52]
        n, s = 3, 2
        rs = (1, 3)
        c = cmath.sin(2 * eta)
        p = TrigParams([lam] * n, nus + [0.9], eta)
        cfg = RowConfig(n, rs)
        oracle = psi_top_coordinate(cfg, p)

        # residue-sum formula: prefactor * Z_s(nu-eta; nu) * perm sum
        ts = [b_fn(lam, v, eta) / a_fn(lam, v, eta) for v in nus]
        pref = 1 + 0j
        for v in nus:
            pref *= a_fn(lam, v, eta) ** (n - 1)
        pref /= d_fn(nus[0], nus[1])
        z_prod = c ** s
        for j in range(s):
            for k in range(s):
                if j != k:
                    z_prod *= e_fn(nus[j], nus[k], eta)
        acc = 0j
        for sgn, perm in ((1, (0, 1)), (-1, (1, 0))):
            term = complex(sgn)
            for j in range(s):
                term *= ts[perm[j]] ** (rs[j] - 1)
            term /= e_fn(nus[perm[1]], nus[perm[0]], eta)
            acc += term
        formula = pref * z_prod * acc
        assert abs(formula - oracle) <= 1e-10 * max(1, abs(oracle))

        # the iterated-deformation bookkeeping: around-lambda equals the
        # a-pole pair residues plus two apparent-pole groups that cancel
        def integrand(z1, z2):
            val = (a_fn(lam, nus[0], eta) * a_fn(lam, nus[1], eta)) ** n
            for j, z in enumerate((z1, z2)):
                val *= e_fn(z, lam, eta) ** (rs[j] - 1) \
                    / d_fn(z, lam) ** rs[j]
            val *= d_fn(z2, z1) / e_fn(z2, z1, eta)
            val *= ik_determinant(TrigParams([z1, z2], nus, eta))
            for z in (z1, z2):
                for v in nus:
                    val /= a_fn(z, v, eta)
            return val

        def inner_quad(center2, z1, npts=96, radius=0.041):
            total = 0j
            for k in range(npts):
                z2 = center2 + radius * cmath.exp(2j * math.pi * k / npts)
                total += integrand(z1, z2) * (z2 - center2)
            return total / npts

        def outer_quad(center1, center2_fn, npts=96, radius=0.05):
            total = 0j
            for i in range(npts):
                z1 = center1 + radius * cmath.exp(2j * math.pi * i / npts)
                total += inner_quad(center2_fn(z1), z1) * (z1 - center1)
            return total / npts

        poles = [v - eta for v in nus]
        a_pairs = sum(outer_quad(c1, lambda z1, c2=c2: c2)
                      for c1 in poles for c2 in poles)
        # residues at the weight-function poles alone give the value ...
        assert abs(a_pairs - oracle) <= 1e-8 * max(1, abs(oracle))
        # ... because the two apparent-pole groups generated by the
        # iterated deformation cancel each other exactly
        e_after = sum(outer_quad(v + eta, lambda z1, c2=c2: c2)
                      for v, c2 in zip(nus, poles))
        e_before = outer_quad(lam, lambda z1: z1 - 2 * eta)
        assert abs(e_after - e_before) <= 1e-8 * max(1, abs(e_before))
        assert abs(a_pairs + e_after - e_before - oracle) \
            <= 1e-8 * max(1, abs(oracle))
