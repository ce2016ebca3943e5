import random
from fractions import Fraction

import pytest

from dwbc.errors import OrderExceeded, PrecisionLoss, ZeroDenominator
from dwbc.exact_core import (
    RATIONALS,
    ExactPoly,
    MultiPoly,
    Series,
    SeriesRing,
    build_tower,
    complete_homogeneous,
    format_rational,
    geom_inverse,
    parse_rational,
    poly_det,
    residue_drive,
)


class TestScalars:
    def test_round_trip(self):
        rng = random.Random(1)
        for _ in range(50):
            q = Fraction(rng.randint(-10**9, 10**9), rng.randint(1, 10**6))
            assert parse_rational(format_rational(q)) == q

    def test_format(self):
        assert format_rational(Fraction(3)) == "3"
        assert format_rational(Fraction(-22, 7)) == "-22/7"


class TestSeriesExpand:
    """Univariate Laurent expansions about a center on a one-level tower."""

    def test_geometric(self):
        ring, atoms = build_tower([("z", 4)])
        s = 1 / (1 - atoms["z"])
        assert [s.coefficient(k) for k in range(4)] == [1, 1, 1, 1]
        ring, atoms = build_tower([("z", 6)])
        assert (1 / (1 - atoms["z"])).coefficient(5) == 1

    def test_simple_pole(self):
        ring, atoms = build_tower([("z", 2)])
        s = 1 / atoms["z"]
        assert s.lo == -1 and s.coeffs == [1]
        assert s.coefficient(0) == 0

    def test_shifted_pole_leading_coefficient(self):
        # (t^2 z - 2 D t + 1)/(t^2 (z-1)) at D=0, t=1 about z=1
        ring, atoms = build_tower([("z", 3)])
        z = atoms["z"] + 1
        t, d = Fraction(1), Fraction(0)
        f = (t**2 * z - 2 * d * t + 1) / (t**2 * (z - 1))
        assert f.lo == -1 and f.coefficient(-1) == 2

    def test_out_of_range(self):
        # a coefficient past the tracked window is unknown, not zero
        ring, atoms = build_tower([("z", 3)])
        s = 1 / (1 - atoms["z"])
        assert s.err == 3
        with pytest.raises(PrecisionLoss):
            s.coefficient(5)
        assert (atoms["z"] ** 2).coefficient(1) == 0

    def test_zero_denominator(self):
        ring, atoms = build_tower([("z", 3)])
        z = atoms["z"]
        with pytest.raises(ZeroDenominator):
            1 / (z - z)
        with pytest.raises(ZeroDenominator):
            residue_drive([("z", 0, 1)],
                          lambda vs, ring: 1 / (vs["z"] - vs["z"]))

    def test_order_exceeded(self):
        with pytest.raises(OrderExceeded):
            residue_drive([("z", 0, 1)], lambda vs, ring: 1 / vs["z"] ** 3)

    def test_non_rational_rejected(self):
        # tower elements take integer powers only, and a float operand
        # enters as its exact (dyadic) rational
        ring, atoms = build_tower([("z", 3)])
        z = atoms["z"]
        with pytest.raises(TypeError):
            z ** 0.5
        c = (z + 0.25).coefficient(0)
        assert isinstance(c, Fraction) and c == Fraction(1, 4)


class TestJointResidue:
    """Iterated residues through residue_drive."""

    def test_product_of_simple_poles(self):
        val = residue_drive([("z1", 0, 1), ("z2", 0, 1)],
                            lambda vs, ring: 1 / (vs["z1"] * vs["z2"]))
        assert val == 1

    def test_double_pole(self):
        val = residue_drive([("z", 1, 2)],
                            lambda vs, ring: vs["z"] / (vs["z"] - 1) ** 2)
        assert val == 1

    def test_order_exceeded(self):
        with pytest.raises(OrderExceeded):
            residue_drive([("z", 0, 2)], lambda vs, ring: 1 / vs["z"] ** 4)

    def test_nesting_order(self):
        # 1/(z1 (z2 - z1)): with z1 integrated first (inner contour),
        # 1/(z2 - z1) expands in z1/z2 and the residue is 1; with z2
        # first it expands in z2/z1 and the z2 residue vanishes
        def build(vs, ring):
            return 1 / (vs["z1"] * (vs["z2"] - vs["z1"]))

        assert residue_drive([("z1", 0, 1), ("z2", 0, 1)], build) == 1
        assert residue_drive([("z2", 0, 1), ("z1", 0, 1)], build) == 0

    def test_efp_integrand_matches_oracle(self):
        # the symmetric s-fold integrand at N=2, s=1, r=1, ice point
        from dwbc.ik_engine import family
        from dwbc.lattice_oracle import ICE_POINT, efp_oracle
        h2 = family(ICE_POINT).h(2)

        def build(vs, ring):
            z = vs["z"]
            return h2.eval(z) / (z * (z - 1))

        val = -residue_drive([("z", 0, 1)], build)
        assert val == efp_oracle(2, 1, 1, ICE_POINT) == Fraction(1, 2)

    def test_h3_coefficient(self):
        from dwbc.ik_engine import family
        from dwbc.lattice_oracle import ICE_POINT
        h3 = family(ICE_POINT).h(3)
        ring, atoms = build_tower([("z", 3)])
        assert h3.eval(atoms["z"]).coefficient(0) == Fraction(2, 7)

    def test_permutation_invariance_symmetric_integrand(self):
        # h_{N,s}-weighted symmetric integrand: order of extraction is free
        from dwbc.ik_engine import family
        from dwbc.lattice_oracle import WeightTriple
        w = WeightTriple(1, 2, 2)
        h = family(w).hns_poly(3, 2)
        t, delta = w.t(), w.delta()

        def build(vs, ring):
            z1, z2 = vs["z1"], vs["z2"]
            return h.eval([z1, z2]) / (
                z1**2 * z2**2 * (t * t * z1 * z2 - 2 * delta * t * z1 + 1)
                * (t * t * z1 * z2 - 2 * delta * t * z2 + 1))

        r1 = residue_drive([("z1", 0, 2), ("z2", 0, 2)], build)
        r2 = residue_drive([("z2", 0, 2), ("z1", 0, 2)], build)
        assert r1 == r2


class TestRingHomomorphism:
    def test_product_of_expansions(self):
        rng = random.Random(7)
        for _ in range(10):
            num1 = ExactPoly([rng.randint(-4, 4) for _ in range(3)] + [1])
            num2 = ExactPoly([rng.randint(-4, 4) for _ in range(2)] + [1])
            den1 = ExactPoly([1] + [rng.randint(-3, 3) for _ in range(2)])
            den2 = ExactPoly([1] + [rng.randint(-3, 3) for _ in range(2)])
            ring, atoms = build_tower([("z", 7)])
            z = atoms["z"]
            f = num1.eval(z) / den1.eval(z)
            g = num2.eval(z) / den2.eval(z)
            fg = [(f * g).coefficient(k) for k in range(7)]
            sf = [f.coefficient(k) for k in range(7)]
            sg = [g.coefficient(k) for k in range(7)]
            prod = [sum(sf[i] * sg[k - i] for i in range(k + 1))
                    for k in range(7)]
            assert fg == prod


class TestTower:
    def test_nested_contour_expansion(self):
        # 1/(z2 - z1) with the z1 contour inside the z2 contour
        ring, atoms = build_tower([("z1", 5), ("z2", 5)])
        e = 1 / (atoms["z2"] - atoms["z1"])
        assert e.coefficient(0).coefficient(-1) == 1
        assert e.coefficient(1).coefficient(-2) == 1

    def test_geom_inverse_matches_division(self):
        ring, atoms = build_tower([("x", 6), ("y", 6)])
        u = atoms["x"] * atoms["y"]
        a = geom_inverse(u, ring)
        b = 1 / (1 - u)
        diff = a - b
        for k in range(3):
            c = diff.coefficient(k)
            for m in range(3):
                assert c.coefficient(m) == 0


class TestExactLaurentArithmetic:
    """Series with explicit windows: x^lo .. x^(err-1) known."""

    def test_mul_add_track_window(self):
        ring = SeriesRing(RATIONALS, "x", 4)
        one, two = Fraction(1), Fraction(2)
        a = Series(ring, -1, [one, 0 * one, two], 2)  # 1/x + 2x, known to x^1
        b = Series(ring, 0, [one, one, one], 3)       # 1 + x + x^2, to x^2
        for c in (a * b, a + b):
            assert c.lo == -1 and c.err == 2 and c.coeffs == [1, 1, 3]

    def test_inverse_shifts_lo(self):
        ring = SeriesRing(RATIONALS, "x", 4)
        a = Series(ring, -1, [Fraction(1), Fraction(0), Fraction(2)], 2)
        inv = a.inverse()
        assert inv.lo == 1 and inv.coeffs == [1, 0, -2] and inv.err == 4

    def test_inverse_requires_nonzero_leading(self):
        ring = SeriesRing(RATIONALS, "x", 4)
        with pytest.raises(ZeroDenominator):
            ring.zero().inverse()
        with pytest.raises(PrecisionLoss):
            Series(ring, 0, [], 2).inverse()


class TestPoly:
    def test_json_round_trip(self):
        p = ExactPoly([1, Fraction(2, 3), 0, -5])
        assert ExactPoly.from_json(p.to_json()) == p

    def test_eval_and_derivative(self):
        p = ExactPoly([1, 0, 3])
        assert p.eval(Fraction(1, 2)) == Fraction(7, 4)
        assert p.derivative().coeffs == [0, 6]

    def test_reversed(self):
        p = ExactPoly([1, 2, 3])
        assert p.reversed().coeffs == [3, 2, 1]


class TestMultiPoly:
    def test_divexact(self):
        x = MultiPoly.variable(2, 0)
        y = MultiPoly.variable(2, 1)
        p = (x - y) * (x + y)
        q = p.divexact_linear(0, 1)
        assert q.terms == (x + y).terms

    def test_divexact_remainder_raises(self):
        x = MultiPoly.variable(2, 0)
        with pytest.raises(ZeroDenominator):
            (x * x).divexact_linear(0, 1)

    def test_complete_homogeneous(self):
        h = complete_homogeneous(2, 2, 2)
        assert h.terms == {(2, 0): 1, (1, 1): 1, (0, 2): 1}

    def test_poly_det(self):
        m = [[Fraction(1), Fraction(2)], [Fraction(3), Fraction(4)]]
        assert poly_det(m) == -2
