import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dwbc import lattice_oracle
from dwbc.errors import InvalidRegion, SizeLimit
from dwbc.lattice_oracle import (
    ICE_POINT,
    RowConfig,
    WeightMatrix,
    WeightTriple,
    all_row_configs,
    boundary_generating_poly,
    efp_oracle,
    enumerate_Z,
    frozen_column_sweep,
    polarization_oracle,
    psi_bot,
    psi_top,
    row_config_probability,
    row_state_weights,
)
from dwbc.lattice_oracle import region_state_weights


def rand_triple(rng):
    return WeightTriple(Fraction(rng.randint(1, 9), rng.randint(1, 6)),
                        Fraction(rng.randint(1, 9), rng.randint(1, 6)),
                        Fraction(rng.randint(1, 9), rng.randint(1, 6)))


class TestPartitionFunction:
    def test_ice_point_asm_counts(self):
        for n, expect in [(1, 1), (2, 2), (3, 7), (4, 42), (5, 429)]:
            assert enumerate_Z(n, ICE_POINT, "enum") == expect
        asm = [1, 2, 7, 42, 429, 7436, 218348, 10850216, 911835460,
               129534272700, 31095744852375, 12611311859677500]
        for n, expect in enumerate(asm, start=1):
            assert enumerate_Z(n, ICE_POINT, "transfer") == expect

    def test_single_vertex(self):
        w = WeightTriple(2, 3, Fraction(7, 2))
        assert enumerate_Z(1, w) == Fraction(7, 2)

    def test_exact_weights_match_trig_model(self):
        # (a,b,c) = (3,4,5): Delta = 0, so eta = pi/4 and
        # sin(lam) = 7/(5 sqrt 2), cos(lam) = -1/(5 sqrt 2); the trig
        # model at unit scale carries weights (3/5, 4/5, 1)
        import math
        from dwbc.exact_core import approx_eq
        from dwbc.ik_numeric import ik_homogeneous
        z_exact = enumerate_Z(2, WeightTriple(3, 4, 5))
        assert z_exact == 625
        lam = math.atan2(7, -1)
        eta = math.pi / 4
        z_trig = ik_homogeneous(2, lam, eta) * 5**4
        assert approx_eq(z_trig, complex(z_exact), 1e-9)

    def test_backends_agree_bit_exactly(self):
        rng = random.Random(3)
        for n in range(1, 6):
            for _ in range(3):
                w = rand_triple(rng)
                assert enumerate_Z(n, w, "enum") == enumerate_Z(n, w, "transfer")

    def test_size_limit(self):
        with pytest.raises(SizeLimit):
            enumerate_Z(9, ICE_POINT, "enum")
        with pytest.raises(SizeLimit):
            enumerate_Z(20, ICE_POINT, "transfer")

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("DWBC_MAX_N", "3")
        with pytest.raises(SizeLimit):
            enumerate_Z(4, ICE_POINT, "enum")
        monkeypatch.setenv("DWBC_MAX_N", "16")
        assert enumerate_Z(7, ICE_POINT, "transfer") == 218348


_WEIGHT = st.fractions(min_value=Fraction(1, 9), max_value=9,
                       max_denominator=9)


class TestFrozenColumnSweep:
    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 9), st.tuples(_WEIGHT, _WEIGHT, _WEIGHT))
    def test_every_prefactor_equals_the_oracle(self, N, abc):
        # one sweep at N gives what the oracle computes per size M <= N
        w = WeightTriple(*abc)
        swept = frozen_column_sweep(N, w)
        assert len(swept) == N + 1 and swept[0] == (1, [])
        for M, (z, h) in enumerate(swept[1:], start=1):
            assert z == enumerate_Z(M, w)
            assert h == boundary_generating_poly(M, w).coeffs

    def test_size_cap(self, monkeypatch):
        monkeypatch.delenv("DWBC_MAX_N", raising=False)
        with pytest.raises(SizeLimit):
            frozen_column_sweep(15, ICE_POINT)
        with pytest.raises(InvalidRegion):
            frozen_column_sweep(-1, ICE_POINT)


def _grid(rng, n):
    return [[complex(rng.uniform(0.2, 2), rng.uniform(-1, 1))
             for _ in range(n)] for _ in range(n)]


class TestHalfTurn:
    # psi_top is swept as psi_bot of the half-turned lattice: these pin
    # the turn against the enumeration backend, which never uses it
    def test_every_state_matches_enumeration(self):
        rng = random.Random(29)
        for n in range(1, 7):
            w = rand_triple(rng)
            for s in range(0, n + 1):
                # psi_top by enumeration of every state at once
                tops = region_state_weights(n, w, 1, s, 0)
                for cfg in all_row_configs(n, s):
                    assert psi_top(cfg, w) == tops[cfg.bitmask()]
                    assert psi_bot(cfg, w) == psi_bot(cfg, w, method="enum")

    def test_every_state_matches_enumeration_site_weights(self):
        # distinct weights at every site: the turned grid is read at
        # (N + 1 - alpha, N + 1 - k)
        rng = random.Random(31)
        for n in range(1, 7):
            w = WeightMatrix(_grid(rng, n), _grid(rng, n),
                             complex(0.8, 0.3))
            for s in range(0, n + 1):
                for cfg in all_row_configs(n, s):
                    for fn in (psi_top, psi_bot):
                        want = fn(cfg, w, method="enum")
                        assert abs(fn(cfg, w) - want) <= 1e-12 * abs(want)

    def test_rows_swept_per_query(self, monkeypatch):
        # site-independent weights: Z_N crosses ceil(N/2) rows and a row
        # marginal max(s, N - s), each in one sweep; the frozen-column
        # sweep still crosses all N
        w = WeightTriple(Fraction(11, 4), Fraction(7, 9), Fraction(5, 2))
        sweeps = []
        bracket = lattice_oracle._transfer_bracket

        def counted(N, weight, rows, *args, **kwargs):
            sweeps.append((N, len(rows)))
            return bracket(N, weight, rows, *args, **kwargs)

        monkeypatch.setattr(lattice_oracle, "_transfer_bracket", counted)
        for n in range(1, 9):
            sweeps.clear()
            enumerate_Z(n, w)
            assert sweeps == [(n, (n + 1) // 2)]
            for s in range(0, n + 1):
                sweeps.clear()
                row_config_probability(RowConfig(n, range(1, s + 1)), w)
                assert sweeps == [(n, max(s, n - s))]
            sweeps.clear()
            frozen_column_sweep(n, w)
            assert sweeps == [(n, n)]


class TestRowConfig:
    def test_complement(self):
        cfg = RowConfig(5, (2, 4))
        assert cfg.complement().positions == (1, 3, 5)

    def test_validation(self):
        with pytest.raises(InvalidRegion):
            RowConfig(3, (2, 2))
        with pytest.raises(InvalidRegion):
            RowConfig(3, (0,))

    def test_ice_rule_propagation_popcount(self):
        # every reachable state after s rows carries exactly s up arrows
        for s in range(1, 5):
            dist = region_state_weights(4, ICE_POINT, 1, s, 0)
            assert dist
            for state in dist:
                assert bin(state).count("1") == s


class TestSublatticeComponents:
    def test_psi_top_single_row_closed_form(self):
        rng = random.Random(11)
        w = rand_triple(rng)
        n = 5
        for r in range(1, n + 1):
            cfg = RowConfig(n, (r,))
            expect = w.a ** (n - r) * w.b ** (r - 1) * w.c
            assert psi_top(cfg, w) == expect
            assert psi_top(cfg, w, method="enum") == expect

    def test_psi_bot_ice_point_single(self):
        assert psi_bot(RowConfig(2, (1,)), ICE_POINT) == 1

    def test_decomposition_sums_to_z(self):
        w = WeightTriple(2, 3, 5)
        for n in (2, 3, 4):
            z = enumerate_Z(n, w)
            for s in range(0, n + 1):
                total = sum(psi_top(c, w) * psi_bot(c, w)
                            for c in all_row_configs(n, s))
                assert total == z

    def test_transfer_matches_enumeration(self):
        w = WeightTriple(Fraction(1, 2), Fraction(4, 3), Fraction(3, 5))
        for n in (2, 3, 4):
            for s in range(0, n + 1):
                for cfg in all_row_configs(n, s):
                    assert psi_top(cfg, w) == psi_top(cfg, w, method="enum")
                    assert psi_bot(cfg, w) == psi_bot(cfg, w, method="enum")

    def test_transfer_matches_enumeration_site_weights(self):
        # distinct complex weights at every vertex pin the (alpha, k)
        # convention, which no homogeneous weight can see
        rng = random.Random(17)

        def grid(n):
            return [[complex(rng.uniform(0.2, 2), rng.uniform(-1, 1))
                     for _ in range(n)] for _ in range(n)]

        for n in (2, 3, 4, 5):
            w = WeightMatrix(grid(n), grid(n), complex(0.8, 0.3))
            z = enumerate_Z(n, w, "enum")
            assert abs(enumerate_Z(n, w) - z) <= 1e-12 * abs(z)
            for s in range(0, n + 1):
                for cfg in all_row_configs(n, s):
                    for fn in (psi_top, psi_bot):
                        want = fn(cfg, w, method="enum")
                        got = fn(cfg, w)
                        assert abs(got - want) <= 1e-12 * max(1, abs(want))

    def test_psi_ortho_beyond_enumeration(self):
        # N = 7 is past the enumeration cap, so the ortho prefactor's Z_N
        # comes from the transfer backend
        from dwbc.exact_core import DEFAULT_RTOL
        from dwbc.hankel_orthopoly import psi_bot_ortho, psi_top_ortho
        from dwbc.trig import NumericTriple, homogeneous_abc
        lam, eta = 0.9, 0.3
        w = NumericTriple(*homogeneous_abc(lam, eta))
        for cfg, ortho, oracle in (
                (RowConfig(7, (1, 2, 4, 5, 6, 7)), psi_top_ortho, psi_top),
                (RowConfig(7, (1, 4, 6)), psi_bot_ortho, psi_bot)):
            want = oracle(cfg, w)
            got = ortho(cfg, lam, eta)
            assert abs(got - want) <= DEFAULT_RTOL * max(1, abs(want))

    def test_crossing_symmetry_numeric(self):
        # psi_top(cfg; lam, nu_1..s) = psi_bot(complement; pi-lam, -nu)
        rng = random.Random(5)
        n = 3
        lams = [0.31, 0.74, 1.35]
        nus = [0.12, 0.29, -0.18]
        eta = 0.41

        def wm(lams2, nus2):
            a = [[complex(math.sin(l - v + eta)) for v in nus2] for l in lams2]
            b = [[complex(math.sin(l - v - eta)) for v in nus2] for l in lams2]
            return WeightMatrix(a, b, complex(math.sin(2 * eta)))

        for s in (1, 2):
            for cfg in all_row_configs(n, s):
                lhs = psi_top(cfg, wm(lams, nus), method="enum")
                lam2 = [math.pi - x for x in lams]
                nu2 = list(nus)
                nu2[n - s:] = [-v for v in nus[:s]]
                rhs = psi_bot(cfg.complement(), wm(lam2, nu2), method="enum")
                assert abs(lhs - rhs) <= 1e-9 * max(1, abs(lhs))


class TestCorrelations:
    def test_h3_ice(self):
        vals = [row_config_probability(RowConfig(3, (r,)), ICE_POINT)
                for r in (1, 2, 3)]
        assert vals == [Fraction(2, 7), Fraction(3, 7), Fraction(2, 7)]

    def test_h_normalization(self):
        w = WeightTriple(3, 2, 4)
        for n in (2, 3, 4, 5):
            for s in (1, n // 2 + 1):
                total = sum(row_config_probability(c, w)
                            for c in all_row_configs(n, s))
                assert total == 1

    def test_single_row_trivial(self):
        assert row_config_probability(RowConfig(1, (1,)), ICE_POINT) == 1

    def test_marginals_match_transfer(self):
        w = WeightTriple(2, 3, 5)
        n = 4
        z = enumerate_Z(n, w)
        for s in (1, 2, 3):
            marg = row_state_weights(n, w, s)
            for cfg in all_row_configs(n, s):
                assert marg[cfg.bitmask()] / z == row_config_probability(cfg, w)

    def test_boundary_poly_vs_enumeration_marginal(self):
        w = WeightTriple(2, 1, 3)
        for n in (2, 3, 4):
            h = boundary_generating_poly(n, w)
            z = enumerate_Z(n, w, "enum")
            marg = row_state_weights(n, w, 1)
            coeffs = [Fraction(marg[1 << (r - 1)]) / z for r in range(1, n + 1)]
            assert h.coeffs == coeffs

    def test_h_poly_normalizations(self):
        rng = random.Random(2)
        for n in range(1, 7):
            w = rand_triple(rng)
            h = boundary_generating_poly(n, w)
            assert h.eval(1) == 1
            expect0 = (w.a ** (2 * (n - 1)) * w.c
                       * enumerate_Z(n - 1, w) / enumerate_Z(n, w))
            assert h.eval(0) == expect0

    def test_efp_two_routes_and_boundary_cases(self):
        w = WeightTriple(1, 2, 2)
        for n in (2, 3, 4):
            for r in range(1, n + 1):
                for s in range(1, r + 1):
                    f1 = efp_oracle(n, r, s, w, "efp")
                    f2 = efp_oracle(n, r, s, w, "efpn")
                    assert f1 == f2
                    assert 0 <= f1 <= 1
                    if r == n:
                        assert f1 == 1

    def test_efp_frozen_corner_factorization(self):
        w = WeightTriple(2, 3, 4)
        n = 4
        z = enumerate_Z(n, w)
        for s in (1, 2, 3):
            expect = (enumerate_Z(s, w) * enumerate_Z(n - s, w)
                      * w.a ** (2 * s * (n - s)) / z)
            assert efp_oracle(n, s, s, w) == expect

    def test_efp_monotone_in_r(self):
        w = WeightTriple(1, 1, 1)
        for s in (1, 2):
            prev = Fraction(0)
            for r in range(s, 5):
                cur = efp_oracle(4, r, s, w)
                assert cur >= prev
                prev = cur

    def test_invalid_region(self):
        with pytest.raises(InvalidRegion):
            efp_oracle(3, 1, 2, ICE_POINT)

    def test_observables_transfer_equals_enumeration(self):
        rng = random.Random(23)
        for n in range(1, 6):
            w = rand_triple(rng)
            assert (boundary_generating_poly(n, w).coeffs
                    == boundary_generating_poly(n, w, "enum").coeffs)
            for s in range(0, n + 1):
                for cfg in all_row_configs(n, s):
                    assert (row_config_probability(cfg, w)
                            == row_config_probability(cfg, w, "enum"))
            for r in range(1, n + 1):
                for s in range(1, n + 1):
                    assert (polarization_oracle(n, r, s, w)
                            == polarization_oracle(n, r, s, w, "enum"))
                    if s > r:
                        continue
                    for route in ("efp", "efpn"):
                        assert (efp_oracle(n, r, s, w, route)
                                == efp_oracle(n, r, s, w, route, "enum"))

    def test_polarization_matches_edge_marginal(self):
        w = WeightTriple(2, 3, 5)
        n = 4
        z = enumerate_Z(n, w, "enum")
        for s in (1, 2, 3):
            marg = row_state_weights(n, w, s)
            for r in range(1, n + 1):
                direct = sum(Fraction(v) for st, v in marg.items()
                             if st >> (r - 1) & 1) / z
                assert polarization_oracle(n, r, s, w) == direct
