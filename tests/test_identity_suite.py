import random
from fractions import Fraction

import pytest

from dwbc.errors import SamplePoleHit
from dwbc.identity_suite import (
    check_cantini,
    check_hierarchy,
    check_kmst,
    check_psxx,
    check_whom,
    check_wpoly_degree,
    p_s_value,
    run_suite,
    second_order_hierarchy_instance,
)
from dwbc.ik_engine import cantini_P_vand
from dwbc.lattice_oracle import ICE_POINT, WeightTriple


class TestSpecExamples:
    def test_kmst_s1_trivial(self):
        case = check_kmst(1, [0.8], [0.2], 0.3)
        assert abs(case.lhs - 1) < 1e-12 and abs(case.rhs - 1) < 1e-12

    def test_cantini_s1(self):
        case = check_cantini(1, Fraction(1, 2), [Fraction(2)], [Fraction(1, 5)])
        assert case.ok
        assert case.lhs == 1 / (1 - Fraction(2) * Fraction(1, 5))

    def test_cantini_s2_spec_point(self):
        case = check_cantini(2, Fraction(1, 2), [Fraction(2), Fraction(3)],
                             [Fraction(1, 5), Fraction(1, 7)])
        assert case.ok

    def test_cantini_nested_pole(self):
        # no x_j y_k is 1, but x_1 x_2 y_1 y_2 is: a nested product of the
        # double sum hits 1 and the draw is refused
        with pytest.raises(SamplePoleHit, match="nested product"):
            check_cantini(2, Fraction(1, 3), [Fraction(2), Fraction(3)],
                          [Fraction(1, 5), Fraction(5, 6)])

    def test_psxx_s1(self):
        case = check_psxx(1, Fraction(1, 3), [Fraction(5, 2)])
        assert case.ok and case.lhs == 1

    def test_whom_spec_weights(self):
        case = check_whom(2, [Fraction(3, 4), Fraction(5, 7)],
                          WeightTriple(1, 2, 2))
        assert case.ok

    def test_hierarchy_small_and_ice(self):
        assert check_hierarchy(2, ICE_POINT).ok
        assert check_hierarchy(5, ICE_POINT).ok
        assert check_hierarchy(8, WeightTriple(2, 3, 4)).ok

    def test_second_order_instance(self):
        case, record = second_order_hierarchy_instance(4, WeightTriple(1, 2, 2))
        assert case.ok
        assert "h_4''(0)" in record and "h_3''(1)" in record


class TestPValue:
    def test_matches_polynomial_construction(self):
        # P_s from its determinant form over both Vandermondes
        rng = random.Random(9)
        for s in (1, 2, 3):
            delta = Fraction(1, 3)
            for _ in range(3):
                xs, ys = [], []
                while len(xs) < s:
                    v = Fraction(rng.randint(-9, 9), rng.randint(1, 7))
                    if v != 0 and v not in xs:
                        xs.append(v)
                while len(ys) < s:
                    v = Fraction(rng.randint(-9, 9), rng.randint(1, 7))
                    if (v != 0 and v not in ys
                            and all(x * v != 1 and
                                    x + v - 2 * delta * x * v != 0
                                    for x in xs)):
                        ys.append(v)
                van = Fraction(1)
                for j in range(s):
                    for k in range(j + 1, s):
                        van *= (xs[k] - xs[j]) * (ys[k] - ys[j])
                assert p_s_value(s, delta, xs, ys) \
                    == cantini_P_vand(xs, ys, delta) / van


class TestSuites:
    @pytest.mark.parametrize("suite", ["kmst", "cantini", "psxx", "whom",
                                       "bigid", "c4", "tangent", "crossing",
                                       "claim"])
    def test_suite_passes(self, suite):
        rep = run_suite(suite, trials=6, seed=7)
        assert rep["failures"] == 0, rep

    def test_hierarchy_suite(self):
        rep = run_suite("hierarchy", trials=4, seed=7)
        assert rep["failures"] == 0

    def test_deterministic(self):
        r1 = run_suite("kmst", trials=4, seed=3)
        r2 = run_suite("kmst", trials=4, seed=3)
        assert r1 == r2

    def test_wpoly_degree(self):
        rng = random.Random(11)
        case = check_wpoly_degree(2, Fraction(1, 2), rng)
        assert case.ok
