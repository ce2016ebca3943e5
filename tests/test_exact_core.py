import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dwbc.errors import OrderExceeded, PrecisionLoss, ZeroDenominator
from dwbc.exact_core import (
    RATIONALS,
    ExactPoly,
    Series,
    SeriesRing,
    build_tower,
    complete_homogeneous,
    format_rational,
    geom_inverse,
    iterated_residue,
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


def _product_residue(x, bounds):
    """The product path: Series.residue level by level on a formed
    product."""
    level = 0
    while isinstance(x, Series):
        x = x.residue(None if bounds is None else bounds[level])
        level += 1
    return x


def _outcome(fn):
    try:
        return fn()
    except (OrderExceeded, PrecisionLoss) as exc:
        return type(exc)


_small = st.fractions(min_value=-3, max_value=3, max_denominator=3)


@st.composite
def _element_specs(draw, levels):
    """A random rational function of the tower variables: a scale, a
    monomial, a linear numerator and a few geometric denominators, plus
    one nesting-order pole 1/(z_1 - z_0) on deeper towers."""
    return {
        "scale": draw(_small.filter(lambda c: c != 0)),
        "powers": draw(st.lists(st.integers(-3, 1), min_size=levels,
                                max_size=levels)),
        "numerator": draw(st.lists(_small, min_size=levels,
                                   max_size=levels)),
        "denominators": draw(st.lists(
            st.tuples(st.integers(0, levels - 1), _small, _small),
            max_size=3)),
        "nested_pole": levels > 1 and draw(st.booleans()),
    }


def _element(spec, ring, zs):
    f = ring.const(spec["scale"])
    for z, p in zip(zs, spec["powers"]):
        f = f * z ** p
    f = f * (1 + sum(c * z for c, z in zip(spec["numerator"], zs)))
    for level, c, d in spec["denominators"]:
        f = f / (1 - c * zs[level] - d * zs[0] * zs[level])
    if spec["nested_pole"]:
        f = f / (zs[1] - zs[0])
    return f


@st.composite
def _tower_pairs(draw):
    levels = draw(st.integers(1, 3))
    precs = draw(st.lists(st.integers(1, 5), min_size=levels,
                          max_size=levels))
    bounds = draw(st.none() | st.lists(st.integers(0, 4), min_size=levels,
                                       max_size=levels))
    return (precs, bounds, draw(_element_specs(levels)),
            draw(_element_specs(levels)))


class TestContraction:
    """iterated_residue((A, B)) against the residue of the formed A*B."""

    @settings(max_examples=150, deadline=None)
    @given(_tower_pairs())
    def test_matches_product_path(self, case):
        precs, bounds, spec_a, spec_b = case
        names = [f"z{k}" for k in range(len(precs))]
        ring, atoms = build_tower(list(zip(names, precs)))
        zs = [atoms[nm] for nm in names]
        a, b = _element(spec_a, ring, zs), _element(spec_b, ring, zs)
        want = _outcome(lambda: _product_residue(a * b, bounds))
        got = _outcome(lambda: iterated_residue((a, b), bounds))
        assert got == want
        assert isinstance(got, type) or isinstance(got, Fraction)
        # a single element is the pair (elem, 1)
        assert _outcome(lambda: iterated_residue(a * b, bounds)) == want

    def test_window_exhausted_then_retried(self):
        # B is 1/(1 - z) rebuilt as (1/(1-z) - 1 - z - z^2)/z^3, which
        # loses three coefficients of its window; against z^(-4) the
        # x^(-1) pairing falls outside it at the first tower (prec 5)
        def build(vs, ring):
            z = vs["z"]
            b = (1 / (1 - z) - 1 - z - z ** 2) * z ** -3
            return z ** -4, b

        specs = [("z", 0, 4)]
        ring, atoms = build_tower([("z", 5)])
        pair = build(atoms, ring)
        with pytest.raises(PrecisionLoss):
            iterated_residue(pair, [4])
        with pytest.raises(PrecisionLoss):
            _product_residue(pair[0] * pair[1], [4])
        calls = []
        assert residue_drive(specs, lambda vs, ring: calls.append(1)
                             or build(vs, ring)) == 1
        assert len(calls) == 2

    @pytest.mark.parametrize("pair", [
        # pole order 4 in x against the bound 3
        lambda x, y: (x ** -3 / (1 - y), x ** -1),
        # the x^(-1) coefficient carries y^(-3) against the bound 2
        lambda x, y: (x ** -2 / (1 - y), x * y ** -3),
    ])
    def test_order_exceeded_both_paths(self, pair):
        ring, atoms = build_tower([("x", 4), ("y", 3)])
        a, b = pair(atoms["x"], atoms["y"])
        with pytest.raises(OrderExceeded):
            iterated_residue((a, b), [3, 2])
        with pytest.raises(OrderExceeded):
            _product_residue(a * b, [3, 2])
        with pytest.raises(OrderExceeded):
            residue_drive([("x", 0, 3), ("y", 0, 2)],
                          lambda vs, ring: pair(vs["x"], vs["y"]))

    def test_unknown_low_coefficient_is_precision_loss(self):
        # the x^(-3) coefficient is O(y^3) with no known term: below the
        # bound 2 but not known to be nonzero, so PrecisionLoss (a retry)
        # rather than OrderExceeded
        ring, atoms = build_tower([("x", 3), ("y", 3)])
        x, y = atoms["x"], atoms["y"]
        unknown = 1 / (1 - y) - 1 / (1 - y)
        c0 = unknown.coefficient(0)
        assert not c0.coeffs and c0.err == 3
        a, b = x ** -3 * unknown + x ** -1, 1 + x
        for fn in (lambda: iterated_residue((a, b), [2, 1]),
                   lambda: _product_residue(a * b, [2, 1])):
            with pytest.raises(PrecisionLoss):
                fn()

    def test_cancelling_pairs_pass_the_order_check(self):
        # each pair at the y level carries y^(-2), above the bound 1, but
        # the pairs cancel in the x^(-1) coefficient: no error, as for
        # the formed product
        ring, atoms = build_tower([("x", 3), ("y", 3)])
        x, y = atoms["x"], atoms["y"]
        a = (x ** -1 + x ** -2) * y ** -2
        b = (1 - x) + y ** -1 * x ** 3
        assert _product_residue(a * b, [2, 1]) == 0
        assert iterated_residue((a, b), [2, 1]) == 0


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
    def test_complete_homogeneous(self):
        h = complete_homogeneous(2, 2, 2)
        assert h.terms == {(2, 0): 1, (1, 1): 1, (0, 2): 1}

    def test_poly_det(self):
        m = [[Fraction(1), Fraction(2)], [Fraction(3), Fraction(4)]]
        assert poly_det(m) == -2
