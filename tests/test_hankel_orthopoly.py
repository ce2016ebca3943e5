import math
import random
from fractions import Fraction

import numpy as np
import pytest

from dwbc.efp_reps import EfpQuery, efp_mir_s
from dwbc.errors import DegenerateHankel
from dwbc.exact_core import DEFAULT_RTOL
from dwbc.hankel_orthopoly import (
    _det_pairing,
    bordered_hankel_det,
    boundary_correlation_ortho,
    build_ortho_family,
    efp_ortho,
    psi_bot_ortho,
    psi_top_ortho,
    verify_claim,
)
from dwbc.ik_numeric import phi_derivatives
from dwbc.lattice_oracle import (
    RowConfig,
    WeightTriple,
    all_row_configs,
    psi_bot,
    psi_top,
    row_config_probability,
)
from dwbc.trig import NumericTriple, homogeneous_abc

LAM, ETA = 0.95, 0.33


@pytest.fixture(scope="module")
def fam():
    return build_ortho_family(4, LAM, ETA)


class TestFamily:
    def test_p0_and_h0(self, fam):
        assert fam.P[0] == [1.0 + 0j]
        assert abs(fam.norms[0] - phi_derivatives(LAM, ETA, 0)[0]) < 1e-14

    def test_monic(self, fam):
        for p in fam.P:
            assert p[-1] == 1.0 + 0j

    def test_hankel_equals_norm_product(self, fam):
        for n in (1, 2, 3):
            prod = 1
            for k in range(n):
                prod *= fam.norms[k]
            assert abs(fam.hankel_det(n) - prod) <= 1e-8 * abs(prod)

    def test_orthogonality_residual(self):
        # moment-level orthogonality: sum_m p_m c_(m+k) = 0 for k < n
        for n_size in (4, 6):
            f = build_ortho_family(n_size, LAM, ETA)
            c = f.moments
            for n in range(1, n_size):
                scale = max(abs(x) for x in c[: 2 * n])
                for k in range(n):
                    r = sum(f.P[n][m] * c[m + k] for m in range(n + 1))
                    assert abs(r) <= 1e-8 * scale

    def test_detdet_identity(self, fam):
        rng = random.Random(5)
        for s in (1, 2, 3):
            xs = [rng.uniform(-1.5, 1.5) + 0.3j * rng.random()
                  for _ in range(s)]
            lhs = bordered_hankel_det(fam, xs)
            prod = 1
            for k in range(4 - s):
                prod *= fam.norms[k]
            mat = [[np.polyval(list(reversed(fam.P[4 - s + i])), xs[j])
                    for j in range(s)] for i in range(s)]
            rhs = prod * complex(np.linalg.det(np.array(mat)))
            assert abs(lhs - rhs) <= 1e-7 * max(1, abs(rhs))

    def test_k_leading_coefficient(self, fam):
        for n in range(4):
            kc = fam.K_coeffs(n)
            expect = math.factorial(n) * fam.phi ** (n + 1) / fam.norms[n]
            assert abs(kc[-1] - expect) <= 1e-9 * abs(expect)

    def test_crossing_rule(self, fam):
        fam2 = build_ortho_family(4, math.pi - LAM, ETA)
        for n in range(4):
            k1, k2 = fam.K_coeffs(n), fam2.K_coeffs(n)
            for m in range(n + 1):
                expect = (-1) ** (n + m) * k1[m]
                assert abs(k2[m] - expect) <= 1e-9 * max(1, abs(expect))


class TestClaim:
    def test_constant_function(self):
        for n in range(1, 7):
            assert verify_claim(n, LAM, ETA, [1.0 + 0j]) <= 1e-7

    def test_one_by_one_normalization(self):
        # N = 1: both sides reduce to f(0)
        assert verify_claim(1, LAM, ETA, [2.5 + 0j, 1.0 + 0j]) <= 1e-12

    def test_polynomials_to_degree_three(self):
        rng = random.Random(13)
        for n in range(1, 7):
            for deg in (1, 2, 3):
                fc = [complex(rng.uniform(-2, 2)) for _ in range(deg + 1)]
                assert verify_claim(n, LAM, ETA, fc) <= 1e-7


class TestRepresentations:
    def test_boundary_correlation(self):
        w = NumericTriple(*homogeneous_abc(LAM, ETA))
        for n in (2, 3, 4):
            for r in range(1, n + 1):
                got = boundary_correlation_ortho(n, r, LAM, ETA)
                want = row_config_probability(RowConfig(n, (r,)), w)
                assert abs(got - want) <= 1e-7 * max(1, abs(want))

    def test_psi_bot_and_top(self):
        w = NumericTriple(*homogeneous_abc(LAM, ETA))
        for n in (1, 2, 3, 4):
            for s in range(n + 1):
                for cfg in all_row_configs(n, s):
                    got = psi_bot_ortho(cfg, LAM, ETA)
                    want = psi_bot(cfg, w)
                    assert abs(got - want) <= 1e-6 * max(1, abs(want))
                    got = psi_top_ortho(cfg, LAM, ETA)
                    want = psi_top(cfg, w)
                    assert abs(got - want) <= 1e-6 * max(1, abs(want))

    def test_efp_vs_exact(self):
        a, b, c = homogeneous_abc(LAM, ETA)
        wx = WeightTriple(Fraction(a.real), Fraction(b.real),
                          Fraction(c.real))
        for n in (2, 3, 4):
            for r in range(1, n + 1):
                for s in range(1, min(2, r) + 1):
                    q = EfpQuery(n, r, s)
                    got = efp_ortho(q, LAM, ETA)
                    want = float(efp_mir_s(q, wx))
                    assert abs(got - want) <= 1e-6 * max(1, abs(want))

    def test_interior_point(self):
        # N=3, s=2, r=2 at lam=1.1, eta=0.35
        lam, eta = 1.1, 0.35
        a, b, c = homogeneous_abc(lam, eta)
        wx = WeightTriple(Fraction(a.real), Fraction(b.real), Fraction(c.real))
        q = EfpQuery(3, 2, 2)
        got = efp_ortho(q, lam, eta)
        want = float(efp_mir_s(q, wx))
        assert abs(got - want) <= 1e-6 * max(1, abs(want))

    def test_three_variable_pairing(self):
        # s = 3: a three-level residue against the 3 x 3 determinant of
        # K-kernels
        a, b, c = homogeneous_abc(LAM, ETA)
        wx = WeightTriple(Fraction(a.real), Fraction(b.real), Fraction(c.real))
        q = EfpQuery(4, 3, 3)
        got = efp_ortho(q, LAM, ETA)
        want = float(efp_mir_s(q, wx))
        assert abs(got - want) <= 1e-6 * max(1, abs(want))

    def test_pairings_stay_complex(self):
        # a pairing that vanishes exactly (omega^N has valuation N, past
        # every pole of k_(N-1)) and one of no variables come out of the
        # tower as Fractions; the pairing is complex all the same, so a
        # sign flips the zero's sign as it does on a complex zero
        zero = _det_pairing(3, 1, LAM, ETA, lambda ring, oms, omts: oms[0] ** 3)
        assert repr(zero) == "0j" and repr(-1 * zero) == "(-0+0j)"
        one = _det_pairing(3, 0, LAM, ETA, lambda ring, oms, omts: ring.const(1))
        assert repr(one) == "(1+0j)"

    # the float pairing cancels most of its digits as N grows: relative
    # errors 13.1, 5.8e-3 and 1.9e-6 against the oracle
    @pytest.mark.xfail(strict=True, reason="ROADMAP item 3: cancellation "
                                           "in the float pairing")
    @pytest.mark.parametrize("n, positions", [(9, (7, 8, 9)), (9, (8, 9)),
                                              (7, (5, 6, 7))],
                             ids=["9-789", "9-89", "7-567"])
    def test_psi_bot_against_oracle(self, n, positions):
        lam, eta = 0.9, 0.3
        cfg = RowConfig(n, positions)
        got = psi_bot_ortho(cfg, lam, eta)
        want = psi_bot(cfg, NumericTriple(*homogeneous_abc(lam, eta)))
        assert abs(got - want) <= DEFAULT_RTOL * abs(want)

    def test_degenerate_hankel(self):
        # eta -> 0 collapses phi to 0: the family cannot be built
        with pytest.raises((DegenerateHankel, ZeroDivisionError)):
            build_ortho_family(4, 0.9, 1e-14)
