import cmath
import math
import operator
import random
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from dwbc import exact_core
from dwbc.errors import OrderExceeded, PrecisionLoss, ZeroDenominator
from dwbc.exact_core import (
    Series,
    build_tower,
    _packed_line,
    _point_line,
    iterated_residue,
    line_det,
    poly_det,
    residue_drive,
)
from dwbc.ik_engine import _pair_quotient, complete_homogeneous
from dwbc.rational import ExactPoly, format_rational, parse_rational
from tower_reference import agree, coefficient, inner, same, walk


def approx_eq(x, y):
    """|x - y| <= r max(1, |x|, |y|) at the package's tolerance r."""
    r = exact_core.DEFAULT_RTOL
    return cmath.isclose(x, y, rel_tol=r, abs_tol=r)


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
        assert [coefficient(s, k) for k in range(4)] == [1, 1, 1, 1]
        ring, atoms = build_tower([("z", 6)])
        assert coefficient(1 / (1 - atoms["z"]), 5) == 1

    def test_simple_pole(self):
        ring, atoms = build_tower([("z", 2)])
        s = 1 / atoms["z"]
        assert s.lo == (-1,) and s.coeffs == [1]
        assert coefficient(s, 0) == 0

    def test_shifted_pole_leading_coefficient(self):
        # (t^2 z - 2 D t + 1)/(t^2 (z-1)) at D=0, t=1 about z=1
        ring, atoms = build_tower([("z", 3)])
        z = atoms["z"] + 1
        t, d = Fraction(1), Fraction(0)
        f = (t**2 * z - 2 * d * t + 1) / (t**2 * (z - 1))
        assert f.lo == (-1,) and coefficient(f, -1) == 2

    def test_out_of_range(self):
        # a coefficient past the tracked window is unknown, not zero
        ring, atoms = build_tower([("z", 3)])
        s = 1 / (1 - atoms["z"])
        assert s.err == (3,)
        with pytest.raises(PrecisionLoss):
            coefficient(s, 5)
        assert coefficient(atoms["z"] ** 2, 1) == 0

    def test_zero_denominator(self):
        ring, atoms = build_tower([("z", 3)])
        z = atoms["z"]
        with pytest.raises(ZeroDenominator):
            1 / (z - z)
        with pytest.raises(ZeroDenominator):
            residue_drive([(0, 1)],
                          lambda vs, ring: 1 / (vs[0] - vs[0]))

    def test_order_exceeded(self):
        with pytest.raises(OrderExceeded):
            residue_drive([(0, 1)], lambda vs, ring: 1 / vs[0] ** 3)

    def test_non_rational_rejected(self):
        # tower elements take integer powers only, and a float operand
        # enters as its exact (dyadic) rational
        ring, atoms = build_tower([("z", 3)])
        z = atoms["z"]
        with pytest.raises(TypeError):
            z ** 0.5
        c = coefficient(z + 0.25, 0)
        assert isinstance(c, Fraction) and c == Fraction(1, 4)


class TestJointResidue:
    """Iterated residues through residue_drive."""

    def test_product_of_simple_poles(self):
        val = residue_drive([(0, 1), (0, 1)],
                            lambda vs, ring: 1 / (vs[0] * vs[1]))
        assert val == 1

    def test_double_pole(self):
        val = residue_drive([(1, 2)],
                            lambda vs, ring: vs[0] / (vs[0] - 1) ** 2)
        assert val == 1

    def test_order_exceeded(self):
        with pytest.raises(OrderExceeded):
            residue_drive([(0, 2)], lambda vs, ring: 1 / vs[0] ** 4)

    def test_nesting_order(self):
        # 1/(z1 (z2 - z1)): with z1 integrated first (inner contour),
        # 1/(z2 - z1) expands in z1/z2 and the residue is 1; with z2
        # first it expands in z2/z1 and the z2 residue vanishes
        def build(z1, z2):
            return 1 / (z1 * (z2 - z1))

        specs = [(0, 1), (0, 1)]
        assert residue_drive(specs, lambda vs, ring: build(*vs)) == 1
        assert residue_drive(specs, lambda vs, ring: build(*vs[::-1])) == 0

    def test_efp_integrand_matches_oracle(self):
        # the symmetric s-fold integrand at N=2, s=1, r=1, ice point
        from dwbc.ik_engine import family
        from dwbc.lattice_oracle import ICE_POINT, efp_oracle
        h2 = family(ICE_POINT).h(2)

        def build(vs, ring):
            z = vs[0]
            return h2.eval(z) / (z * (z - 1))

        val = -residue_drive([(0, 1)], build)
        assert val == efp_oracle(2, 1, 1, ICE_POINT) == Fraction(1, 2)

    def test_h3_coefficient(self):
        from dwbc.ik_engine import family
        from dwbc.lattice_oracle import ICE_POINT
        h3 = family(ICE_POINT).h(3)
        ring, atoms = build_tower([("z", 3)])
        assert coefficient(h3.eval(atoms["z"]), 0) == Fraction(2, 7)

    def test_permutation_invariance_symmetric_integrand(self):
        # h_{N,s}-weighted symmetric integrand: order of extraction is free
        from dwbc.ik_engine import family
        from dwbc.lattice_oracle import WeightTriple
        w = WeightTriple(1, 2, 2)
        h = family(w).hns_poly(3, 2)
        t, delta = w.t(), w.delta()

        def build(z1, z2):
            return h.eval([z1, z2]) / (
                z1**2 * z2**2 * (t * t * z1 * z2 - 2 * delta * t * z1 + 1)
                * (t * t * z1 * z2 - 2 * delta * t * z2 + 1))

        specs = [(0, 2), (0, 2)]
        r1 = residue_drive(specs, lambda vs, ring: build(*vs))
        r2 = residue_drive(specs, lambda vs, ring: build(*vs[::-1]))
        assert r1 == r2


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
        # z = 6 eps: the coefficients' denominators divide 6, so every
        # divisor is a constant times a unit on integer leaves
        zs = [6 * atoms[nm] for nm in names]
        a, b = _element(spec_a, ring, zs), _element(spec_b, ring, zs)
        want = _outcome(lambda: walk(a * b, bounds))
        got = _outcome(lambda: iterated_residue((a, b), bounds))
        assert got == want
        assert isinstance(got, type) or isinstance(got, Fraction)
        # a single element is the pair (elem, 1)
        assert _outcome(lambda: iterated_residue(a * b, bounds)) == want

    def test_window_exhausted_then_retried(self):
        # B is 1/(1 - z) rebuilt as (1/(1-z) - 1 - z - z^2)/z^3, which
        # loses three coefficients of its window; against z^(-4) the
        # x^(-1) pairing falls outside it at the first tower (prec 4,
        # the order bound)
        def build(vs, ring):
            z = vs[0]
            b = (1 / (1 - z) - 1 - z - z ** 2) * z ** -3
            return z ** -4, b

        specs = [(0, 4)]
        ring, atoms = build_tower([("z", 5)])
        pair = build([atoms["z"]], ring)
        with pytest.raises(PrecisionLoss):
            iterated_residue(pair, [4])
        with pytest.raises(PrecisionLoss):
            walk(pair[0] * pair[1], [4])
        calls = []
        assert residue_drive(specs, lambda vs, ring: calls.append(1)
                             or build(vs, ring)) == 1
        assert len(calls) == 2

    @pytest.mark.parametrize("precs, bounds, pair", [
        # pole order 4 in x against the bound 3
        ((4, 3), [3, 2], lambda x, y: (x ** -3 / (1 - y), x ** -1)),
        # the x^(-1) coefficient carries y^(-3) against the bound 2
        ((4, 3), [3, 2], lambda x, y: (x ** -2 / (1 - y), x * y ** -3)),
        # the bound is checked before the window: z^(-1) lies above the
        # product's box, but z^(-2) is below the bound 0
        ((1,), [0], lambda z: (1, z ** -2)),
    ], ids=["x-pole", "y-pole-in-slice", "bound-before-window"])
    def test_order_exceeded_both_paths(self, precs, bounds, pair):
        ring, atoms = build_tower(list(zip("xy", precs)))
        a, b = pair(*atoms.values())
        with pytest.raises(OrderExceeded):
            iterated_residue((a, b), bounds)
        with pytest.raises(OrderExceeded):
            walk(a * b, bounds)
        with pytest.raises(OrderExceeded):
            residue_drive([(0, bound) for bound in bounds],
                          lambda vs, ring: pair(*vs))

    def test_unknown_low_coefficient_is_precision_loss(self):
        # the x^(-3) coefficient is O(y^3) with no known term: below the
        # bound 2 but not known to be nonzero, so PrecisionLoss (a retry)
        # rather than OrderExceeded
        ring, atoms = build_tower([("x", 3), ("y", 3)])
        x, y = atoms["x"], atoms["y"]
        unknown = 1 / (1 - y) - 1 / (1 - y)
        c0 = coefficient(unknown, 0)
        assert not c0.coeffs and c0.err == (3,)
        a, b = x ** -3 * unknown + x ** -1, 1 + x
        for fn in (lambda: iterated_residue((a, b), [2, 1]),
                   lambda: walk(a * b, [2, 1])):
            with pytest.raises(PrecisionLoss):
                fn()

    @pytest.mark.parametrize("precs, bounds, pair", [
        # each pair at the y level carries y^(-2), above the bound 1, but
        # the pairs cancel in the x^(-1) coefficient: no error, as for
        # the formed product
        ((3, 3), [2, 1], lambda x, y: ((x ** -1 + x ** -2) * y ** -2,
                                       (1 - x) + y ** -1 * x ** 3)),
        # the x^(-1) slice has no leaves, so its y bound is never checked,
        # though z is inexact and the product's low in y is below it
        ((3, 3, 3), [2, 1, 1],
         lambda x, y, z: (x ** -2 * y ** -3 / (1 - z) + 1, 1)),
    ], ids=["cancelling-pairs", "empty-slice"])
    def test_cancelling_pairs_pass_the_order_check(self, precs, bounds, pair):
        ring, atoms = build_tower(list(zip("xyz", precs)))
        a, b = pair(*atoms.values())
        assert walk(a * b, bounds) == 0
        assert iterated_residue((a, b), bounds) == 0


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
            fg = [coefficient(f * g, k) for k in range(7)]
            sf = [coefficient(f, k) for k in range(7)]
            sg = [coefficient(g, k) for k in range(7)]
            prod = [sum(sf[i] * sg[k - i] for i in range(k + 1))
                    for k in range(7)]
            assert fg == prod


class TestTower:
    def test_nested_contour_expansion(self):
        # 1/(z2 - z1) with the z1 contour inside the z2 contour
        ring, atoms = build_tower([("z1", 5), ("z2", 5)])
        e = 1 / (atoms["z2"] - atoms["z1"])
        assert coefficient(coefficient(e, 0), -1) == 1
        assert coefficient(coefficient(e, 1), -2) == 1


class TestExactLaurentArithmetic:
    """Series with explicit windows: x^lo .. x^(err-1) known."""

    def test_mul_add_track_window(self):
        ring, _ = build_tower([("x", 4)])
        one, two = Fraction(1), Fraction(2)
        a = ring.laurent(0, -1, [one, 0 * one, two], 2)  # 1/x + 2x, to x^1
        b = ring.laurent(0, 0, [one, one, one], 3)       # 1 + x + x^2, to x^2
        for c in (a * b, a + b):
            assert c.lo == (-1,) and c.err == (2,) and c.coeffs == [1, 1, 3]

    def test_inverse_shifts_lo(self):
        ring, _ = build_tower([("x", 4)])
        a = ring.laurent(0, -1, [Fraction(1), Fraction(0), Fraction(2)], 2)
        inv = a.inverse()
        assert inv.lo == (1,) and inv.coeffs == [1, 0, -2] and inv.err == (4,)

    def test_inverse_on_int_leaves_stays_exact(self):
        # the leading leaf goes into the pair, so the recurrence divides
        # by a unit and the inverse stays on ints; an int leading leaf
        # that does not divide the others raises
        ring, _ = build_tower([("x", 4)])
        inv = ring.laurent(0, 0, [1, 3]).inverse()
        assert (inv.n, inv.d, inv.coeffs) == (1, 1, [1, -3, 9, -27])
        assert all(type(c) is int for c in inv.coeffs)
        inv = ring.laurent(0, 0, [-1, 3]).inverse()
        assert [coefficient(inv, k) for k in range(4)] == [-1, -3, -9, -27]
        assert all(type(c) is int for c in inv.coeffs)
        with pytest.raises(ValueError):
            ring.laurent(0, 0, [2, 1]).inverse()
        # a number divides the pair
        q = ring.gen() / 2
        assert (q.n, q.d, q.coeffs) == (1, 2, [1])
        # a Fraction coefficient's denominator goes into the pair
        inv = ring.laurent(0, 0, [Fraction(1, 2), 1]).inverse()
        assert [coefficient(inv, k) for k in range(4)] == [2, -4, 8, -16]
        assert all(type(c) is int for c in inv.coeffs)
        assert type(ring.const(Fraction(6, 3)).coeffs[0]) is int

    def test_scaled_inverse_pulls_out_the_leading_leaf(self):
        ring, _ = build_tower([("x", 4)])
        x = ring.gen()
        # (1/3)(6 + 12x) = 2 (1 + 2x): the unit 1 + 2x is inverted on ints
        inv = (Fraction(1, 3) * (6 + 12 * x)).inverse()
        assert Fraction(inv.n, inv.d) == Fraction(1, 2)
        assert inv.coeffs == [1, -2, 4, -8]
        # a sum brings its terms to the gcd of their pairs
        s = x / 2 + ring.const(1) / 3
        assert Fraction(s.n, s.d) == Fraction(1, 6) and s.coeffs == [2, 3]
        # 2 + 3x has no unit form on ints
        with pytest.raises(ValueError):
            (2 + 3 * x).inverse()

    def test_inverse_requires_nonzero_leading(self):
        ring, _ = build_tower([("x", 4)])
        with pytest.raises(ZeroDenominator):
            ring.zero().inverse()
        with pytest.raises(PrecisionLoss):
            ring.laurent(0, 0, [], 2).inverse()


class TestPairRules:
    """Every element is an integer pair n/d times its leaves: an exact
    number goes into the pair, a complex one into the leaves, and a
    division pulls an int leading leaf into the pair."""

    def test_exact_numbers_go_into_the_pair(self):
        ring, at = build_tower([("x", 4)])
        x, inf = at["x"], math.inf
        c = ring.const(Fraction(3, 4))
        assert (c.n, c.d, c.coeffs) == (1, 4, [3])
        p = ring.laurent(0, -1, [Fraction(1, 2), 0, Fraction(-2, 3), 5])
        assert (p.n, p.d, p.lo, p.coeffs) == (1, 6, (-1,), [3, 0, -4, 30])
        for got, pair in ((x * Fraction(-2, 5), (-2, 5)), (x * 0.5, (1, 2)),
                          (x / Fraction(-2, 5), (-5, 2)), (x / 3, (1, 3)),
                          (-x, (-1, 1))):
            assert (got.n, got.d, got.lo, got.coeffs, got.err) \
                == (*pair, (1,), [1], (inf,))
        # a sum takes the content of both pairs, 1/12 here, and scales
        # the leaves by the integer multipliers
        s = x / 6 + Fraction(1, 4)
        assert (s.n, s.d, s.coeffs) == (1, 12, [3, 2])
        q = (x / 2 + Fraction(1, 3)) / (1 - 2 * x)
        assert [coefficient(q, k) for k in range(4)] == [
            Fraction(1, 3), Fraction(7, 6), Fraction(7, 3), Fraction(14, 3)]
        for e in (c, p, s, q, x * 0.5, x / Fraction(-2, 5)):
            assert all(type(v) is int for v in (e.n, e.d, *e.coeffs))

    def test_a_complex_number_scales_the_leaves(self):
        ring, at = build_tower([("x", 3)])
        x = at["x"] + 1
        z = x * (2 + 1j)
        assert (z.n, z.d, z.coeffs) == (1, 1, [2 + 1j, 2 + 1j])
        z = 1j * (x / 3)
        assert (z.n, z.d, z.coeffs) == (1, 3, [1j, 1j])
        assert not (x * 0j).coeffs

    def test_one_over_three_x_squared_is_exact(self):
        # the 3 goes into the pair, the unit leaf 1 is inverted
        ring, at = build_tower([("x", 3), ("y", 2)])
        x = at["x"]
        q = 1 / (3 * x ** 2)
        assert (q.n, q.d, q.lo, q.coeffs, q.err) \
            == (1, 3, (-2, 0), [1], (math.inf, math.inf))
        assert same(q * 3 * x ** 2, 1)

    def test_int_leading_leaves(self):
        ring, _ = build_tower([("x", 4)])
        inf = math.inf
        # a lead that divides every leaf goes into the pair
        inv = Series(ring, (0,), (2,), [2, 4], (inf,), 1, 3).inverse()
        assert (inv.n, inv.d, inv.coeffs) == (3, 2, [1, -2, 4, -8])
        # one that does not raises, on a raw element too
        g = Series(ring, (0,), (2,), [2, 3], (inf,))
        with pytest.raises(ValueError):
            g.inverse()
        with pytest.raises(ValueError):
            ring.gen() / g
        # a box of int and complex leaves keeps its lead, inverted as it
        # is when it is +-1
        inv = Series(ring, (0,), (2,), [-1, 2j], (inf,)).inverse()
        assert (inv.n, inv.d, inv.coeffs[:2]) == (1, 1, [-1, -2j])
        with pytest.raises(ValueError):
            Series(ring, (0,), (2,), [2, 1j], (inf,)).inverse()


def _stack(ring, lo, rows, err):
    """sum_k rows[k] x^(lo + k) + O(x^err) for x the level-0 variable of
    `ring`, from leaves or elements of the tower of its inner levels:
    the box spans the rows' boxes and knows what every row knows."""
    if len(ring.precs) == 1:
        return exact_core._trim(ring, (lo,), (len(rows),), list(rows), (err,))
    depth = len(ring.precs) - 1
    ilo = tuple(min(r.lo[j] for r in rows) for j in range(depth))
    ierr = tuple(min(r.err[j] for r in rows) for j in range(depth))
    full = [r for r in rows if r.coeffs]
    if not full:
        return exact_core._empty(ring, (lo,) + ilo, (err,) + ierr)
    ishape = tuple(max(r.lo[j] + r.shape[j] for r in full) - ilo[j]
                   for j in range(depth))
    leaves = []
    for r in rows:
        leaves += (exact_core._crop(_values(r), r.lo, r.shape, ilo, ishape)
                   if r.coeffs else [0] * math.prod(ishape))
    return exact_core._trim(ring, (lo,) + ilo, (len(rows),) + ishape, leaves,
                            (err,) + ierr)


def _reference_inverse(x):
    """The dense inverse loop that `Series.__truediv__` replaced, kept
    as the reference: 1/x as a window-sized series in the level-0
    variable, each coefficient (an element of the inner levels) minus
    c0^-1 times the convolution of x's tail with the ones before it;
    f / g was f * _reference_inverse(g)."""
    if not x.coeffs:
        if all(e == math.inf for e in x.err):
            raise ZeroDenominator("inverse of the zero series")
        raise PrecisionLoss("inverse of a series with no known terms")
    lo, err = x.lo[0], x.err[0]
    rows = [coefficient(x, lo + i) for i in range(x.shape[0])]
    window = err - lo
    prec = x.ring.precs[0]
    w = prec if window == math.inf else min(int(window), prec)
    c0 = rows[0]
    c0inv = (_reference_inverse(c0) if isinstance(c0, Series)
             else exact_core._invert(c0))
    inv = [c0inv]
    for k in range(1, w):
        acc = None
        for i in range(1, min(k, len(rows) - 1) + 1):
            term = rows[i] * inv[k - i]
            acc = term if acc is None else acc + term
        zero = inner(x.ring).zero() if isinstance(c0, Series) else 0
        inv.append(-(c0inv * acc) if acc is not None else zero)
    return _stack(x.ring, -lo, inv, -lo + w)


def _division_outcome(fn):
    try:
        return fn()
    except (PrecisionLoss, ZeroDenominator, ValueError) as exc:
        return type(exc)


@st.composite
def _tower_element(draw, ring, leaf):
    """Up to four coefficients per level from random lows, known to the
    last one or a little past it, or exact, per level."""
    depth = len(ring.precs)
    lo = tuple(draw(st.integers(-2, 2)) for _ in range(depth))
    shape = tuple(draw(st.integers(0, 4)) for _ in range(depth))
    err = tuple(math.inf if draw(st.booleans())
                else l + n + draw(st.integers(0, 2)) for l, n in zip(lo, shape))
    coeffs = [draw(leaf) for _ in range(math.prod(shape))]
    return exact_core._trim(ring, lo, shape, coeffs, err)


@st.composite
def _division_cases(draw):
    levels = draw(st.integers(1, 3))
    precs = draw(st.lists(st.integers(1, 5), min_size=levels,
                          max_size=levels))
    ring, _ = build_tower([(f"z{k}", p) for k, p in enumerate(precs)])
    if draw(st.booleans()):
        # int leaves: the divisor's leading leaf a unit, +-1
        leaf = st.integers(-3, 3)
        g = draw(_tower_element(ring, leaf))
        c = g.coeffs
        lead = next((p for p, x in enumerate(c) if x), None)
        if lead is not None:
            c[lead] = 1 if c[lead] > 0 else -1
        return draw(_tower_element(ring, leaf)), g
    # Fraction leaves, where an integral leading leaf other than +-1
    # raises ValueError on both sides
    leaf = st.fractions(min_value=-3, max_value=3, max_denominator=3)
    return draw(_tower_element(ring, leaf)), draw(_tower_element(ring, leaf))


class TestDivision:
    """Series division by the recurrence against the product with the
    dense inverse it replaced."""

    @settings(max_examples=200, deadline=None)
    @given(_division_cases())
    def test_matches_the_inverse_loop(self, case):
        # the quotient knows what f times the windowed inverse knows,
        # except that an exact monomial divisor only shifts f, window
        # and all
        f, g = case
        monomial = g.shape[0] == 1 and g.err[0] == math.inf
        for num, got, want in (
                (f, lambda: f / g, lambda: f * _reference_inverse(g)),
                (g.ring.const(1), g.inverse, lambda: _reference_inverse(g))):
            got, want = _division_outcome(got), _division_outcome(want)
            if isinstance(got, type) or isinstance(want, type):
                assert got == want
                continue
            assert got.err[0] == (num.err[0] - g.lo[0] if monomial
                                  else want.err[0])
            assert agree(got, want)

    def test_monomial_divisor_is_exact(self):
        # 1/atom is the exact Laurent monomial, on any level of a tower
        ring, atoms = build_tower([("x", 3), ("y", 3)])
        for name in ("x", "y"):
            inv = 1 / atoms[name]
            assert same(inv * atoms[name], 1)
            assert all(e == math.inf for e in inv.err)
        inv = 1 / atoms["y"]
        assert inv.lo == (0, -1) and inv.err == (math.inf, math.inf)
        # 1/(3 x^2) and 1/(-x^2) too, the 3 and the sign in the pair;
        # the tower itself inverts no int leaf but +-1
        q = (3 * atoms["x"] ** 2).inverse()
        assert (q.n, q.d) == (1, 3)
        assert (q.lo, q.coeffs, q.err) == ((-2, 0), [1], (math.inf, math.inf))
        q = 1 / -atoms["x"] ** 2
        assert (q.n, q.d) == (-1, 1)
        assert (q.lo, q.coeffs, q.err) == ((-2, 0), [1], (math.inf, math.inf))

    def test_monomial_divisor_keeps_the_window(self):
        # a windowed f over a monomial is f shifted, window included
        ring, atoms = build_tower([("x", 4)])
        x = atoms["x"]
        f = 1 / (1 - x)
        assert f.err == (4,)
        q = f / x ** 2
        assert (q.lo, q.coeffs, q.err) == ((-2,), [1, 1, 1, 1], (2,))

    def test_complex_leaves_round_in_the_order_of_the_terms(self):
        # each leaf is ((f_e - g_1 q_(e-1)) - g_2 q_(e-2) - ..) / g_0, in
        # this order: on these doubles, summing the products first
        # rounds differently (1 + 1e16 - 1e16 is 0 in this order, 1 in
        # that one), through the kernel's 2- and 3-term loops (g_0 = 1)
        # and its general loop (g_0 = 2)
        ring, _ = build_tower([("x", 5)])
        f = [1 + 0j, 0j, 1 + 0j]
        for g in ([1 + 0j, 1e8 + 0j, 1e16 + 0j],
                  [1 + 0j, 1e8 + 0j, 1e16 + 0j, 3 + 0j],
                  [2 + 0j, 2e8 + 0j, 2e16 + 0j]):
            q = ring.laurent(0, 0, f) / ring.laurent(0, 0, g)
            want, grouped = _complex_quotients(f, g, 5)
            assert q.coeffs == want
            assert want != grouped

    def test_polynomial_quotient(self):
        # (1 + z)/(1 - z) to the window: each coefficient is one step of
        # the recurrence against the divisor's single tail term
        ring, atoms = build_tower([("z", 6)])
        z = atoms["z"]
        q = (1 + z) / (1 - z)
        assert q.coeffs == [1, 2, 2, 2, 2, 2] and q.err == (6,)


def _complex_quotients(f, g, n):
    """The first n leaves of f / g for lists of complex leaves, each q_e
    by the recurrence as ((f_e - g_1 q_(e-1)) - g_2 q_(e-2) - ..) / g_0,
    and as (f_e - (g_1 q_(e-1) + g_2 q_(e-2) + ..)) / g_0."""
    r = 1 / g[0]
    out = []
    for grouped in (False, True):
        q = []
        for e in range(n):
            acc = f[e] if e < len(f) else 0
            terms = [g[h] * q[e - h] for h in range(1, min(e, len(g) - 1) + 1)]
            if grouped:
                acc = acc - sum(terms[1:], terms[0]) if terms else acc
            else:
                for t in terms:
                    acc = acc - t
            q.append(acc if r == 1 else acc * r)
        out.append(q)
    return out


_leaves = (st.integers(-3, 3)
           | st.fractions(min_value=-3, max_value=3, max_denominator=3))


@st.composite
def _line_matrices(draw, kinds=None):
    """(lines, columns): 1-4 lines (or one of each of `kinds`), each a
    column of rationals or of polynomial or Laurent entries on its own
    level of a tower of up to 5 levels, some levels left unused; the
    columns are the same entries as numbers and exact tower elements."""
    s = len(kinds) if kinds else draw(st.integers(1, 4))
    kinds = kinds or draw(st.lists(
        st.sampled_from(["number", "poly", "laurent"]), min_size=s,
        max_size=s))
    depth = draw(st.integers(max(1, s), 5))
    precs = draw(st.lists(st.integers(1, 4), min_size=depth, max_size=depth))
    levels = draw(st.permutations(range(depth)))
    ring, atoms = build_tower([(f"e{j}", p) for j, p in enumerate(precs)])
    lines, cols = [], []
    for j, kind in enumerate(kinds):
        if kind == "number":
            col = [draw(_leaves) for _ in range(s)]
            lines.append(col)
            cols.append(col)
            continue
        lo = 0 if kind == "poly" else draw(st.integers(-2, -1))
        polys = [(lo, draw(st.lists(_leaves, max_size=4))) for _ in range(s)]
        k = draw(st.sampled_from([1, -2, Fraction(3, 5)]))
        x = atoms[f"e{levels[j]}"]
        lines.append(_point_line((ring, levels[j], None), polys, k))
        cols.append([k * sum((c * x ** (lo + m) for m, c in enumerate(cs)),
                             ring.zero()) for _, cs in polys])
    return lines, cols


def _column(line):
    """A column of `line_det` as numbers or exact tower elements: a
    line's entries to its window, its content times them."""
    if not isinstance(line, exact_core.Line):
        return line
    x, k = line.top.gen(line.level), Fraction(line.kn, line.kd)
    return [k * sum((c * x ** (line.lo + m) for m, c in enumerate(row)),
                    line.top.zero()) for row in line.rows]


def _check_line_det(case):
    lines, cols = case
    want = poly_det([[col[i] for col in cols] for i in range(len(cols))])
    got = line_det(lines)
    if not isinstance(got, Series):
        assert got == want
        return
    # the kernel knows fewer coefficients (each line is cut to its
    # level's window), and those it knows are the exact ones
    assert agree(got, want)


class _Unequal(list):
    """Rows that compare unequal to every list, so that `line_det` takes
    its Laplace expansion on the columns they are in."""

    def __eq__(self, other):
        return False

    __hash__ = None


@st.composite
def _moved_lines(draw):
    """(lines, cut): one line on s <= 4 levels of a tower of up to 5
    levels, made at the widest window and moved to the others (`cut`
    when a window is narrower than the line), or with one column a
    column of numbers (`cut` None)."""
    s = draw(st.integers(2, 4))
    depth = draw(st.integers(s, 5))
    levels = draw(st.permutations(range(depth)))[:s]
    w = draw(st.integers(1, 5))
    precs = [w] * depth
    narrow = draw(st.integers(0, w - 1))
    if narrow:
        precs[levels[draw(st.integers(1, s - 1))]] = narrow
    ring, _ = build_tower([(f"e{j}", p) for j, p in enumerate(precs)])
    lo = draw(st.integers(-2, 1))
    polys = [(lo, draw(st.lists(_leaves, max_size=w + 2))) for _ in range(s)]
    k = draw(st.sampled_from([1, -2, Fraction(3, 5)]))
    line = _point_line((ring, levels[0], None), polys, k)
    lines = [line.moved(ring, level) for level in levels]
    if draw(st.booleans()):
        lines[draw(st.integers(0, s - 1))] = [draw(_leaves) for _ in range(s)]
        return lines, None
    return lines, narrow and len(line.rows[0]) > narrow


class TestLineDet:
    """The separable determinant kernel against the cofactor expansion."""

    @settings(max_examples=80, deadline=None)
    @given(_moved_lines())
    def test_one_line_on_many_levels(self, case):
        # one line moved to s levels is an alternant: its box, leaves and
        # integer pair equal the Laplace expansion's, leaf for leaf; a
        # line cut to a narrower window or a number column among the
        # lines takes the Laplace expansion
        lines, cut = case
        calls, alternant = [], exact_core._alternant

        def spy(rows):
            calls.append(rows)
            return alternant(rows)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(exact_core, "_alternant", spy)
            got = line_det(lines)
        _check_line_det((lines, [_column(c) for c in lines]))
        if cut is None or cut:
            assert not calls
            return
        assert len(calls) == 1 or not lines[0].rows[0]
        want = line_det([exact_core.Line(c.kn, c.kd, c.top, c.level, c.lo,
                                         _Unequal(c.rows), c.err)
                         for c in lines])
        assert (got.n, got.d) == (want.n, want.d)
        assert (got.lo, got.shape, got.err, got.coeffs) \
            == (want.lo, want.shape, want.err, want.coeffs)

    @settings(max_examples=60, deadline=None)
    @given(_line_matrices())
    def test_matches_poly_det(self, case):
        _check_line_det(case)

    @settings(max_examples=20, deadline=None)
    @given(_line_matrices(["poly", "number", "laurent"])
           | _line_matrices(["laurent", "number", "number", "poly"]))
    def test_number_columns_between_tower_columns(self, case):
        # number columns go last in the expansion, the permutation's
        # sign into the scalar
        _check_line_det(case)

    def test_window(self):
        # prec coefficients past the line's valuation are kept; a line
        # that fits is exact
        ring, _ = build_tower([("x", 3), ("y", 2)])
        cut = _point_line((ring, 1, None), [(0, [0, 1, 2, 3]), (0, [5])])
        assert (cut.lo, cut.rows, cut.err) == (0, [[0, 1], [5, 0]], 2)
        fits = _point_line((ring, 0, None), [(-1, [1, 0, 4]), (0, [2])], 3)
        assert (Fraction(fits.kn, fits.kd), fits.rows, fits.err) \
            == (3, [[1, 0, 4], [0, 2, 0]], math.inf)
        # times the head of 1/(1 - x), a series: err is the cut
        inv = _packed_line((ring, 0, None), 0, [exact_core._pack([1], 8)], 8,
                           1, inv=[1, 1, 1])
        assert (inv.rows, inv.err) == ([[1, 1, 1]], 3)

    def test_alternant_plan_is_kept(self):
        # the plan of (s, w) = (3, 7) gathers 343 positions from its 35
        # minors; it is sized by the minors, so a second call finds it
        rows = [[(i + 1) * (m - 3) ** i for m in range(7)] for i in range(3)]
        exact_core._PLANS.pop(("alternant", 3, 7), None)
        built, remember = [], exact_core._remember

        def spy(key, plan, size=0):
            built.append(key)
            return remember(key, plan, size)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(exact_core, "_remember", spy)
            first = exact_core._alternant(rows)
            assert built == [("alternant", 3, 7)]
            assert exact_core._alternant(rows) == first
        assert built == [("alternant", 3, 7)]

    def test_lines_on_one_level(self):
        ring, _ = build_tower([("x", 3)])
        line = _point_line((ring, 0, None), [(0, [1, 1]), (0, [2])])
        with pytest.raises(ValueError):
            line_det([line, line])


@st.composite
def _laurent_pairs(draw):
    """(a, b, hi): two univariate Laurent polynomials (lo, cs) with lows
    down to -3, zero entries, and leaves all int, all Fraction or all
    complex, and an optional cut hi."""
    leaves = draw(st.sampled_from([
        st.integers(-3, 3),
        st.fractions(min_value=-3, max_value=3, max_denominator=4),
        st.complex_numbers(max_magnitude=4, allow_nan=False,
                           allow_infinity=False)]))
    a, b = [(draw(st.integers(-3, 2)),
             draw(st.lists(leaves | st.just(0), max_size=5)))
            for _ in range(2)]
    return a, b, draw(st.none() | st.integers(-6, 6))


class TestUnivariateHelpers:
    """The univariate product and the rational content every separable
    determinant, tower sum and polynomial identity goes through."""

    @settings(max_examples=80, deadline=None)
    @given(_laurent_pairs())
    def test_pmul_matches_dict_convolution(self, case):
        (la, ca), (lb, cb), hi = case
        want = {}
        for i, x in enumerate(ca):
            for j, y in enumerate(cb):
                e = la + lb + i + j
                want[e] = want.get(e, 0) + x * y
        lo, got = (exact_core._pmul((la, ca), (lb, cb)) if hi is None
                   else exact_core._pmul((la, ca), (lb, cb), hi))
        top = la + lb + len(ca) + len(cb) - 1
        if hi is not None:
            top = min(top, hi)
        assert lo == la + lb and len(got) == max(0, top - lo)
        for e in range(lo, top):
            x, y = got[e - lo], want.get(e, 0)
            assert approx_eq(x, y) if complex in (type(x), type(y)) \
                else x == y

    @settings(max_examples=80, deadline=None)
    @given(st.lists(st.integers(-30, 30)
                    | st.fractions(min_value=-5, max_value=5,
                                   max_denominator=12), max_size=6))
    def test_content(self, values):
        (g, q), ints = exact_core._content(values)
        assert all(type(n) is int for n in (g, q, *ints))
        assert [Fraction(g, q) * n for n in ints] == values
        if any(values):
            assert g > 0 and q > 0 and math.gcd(g, q) == 1
            assert math.gcd(*ints) == 1
        else:
            assert (g, q, ints) == (1, 1, [0] * len(values))


class TestPoly:
    def test_eval_and_derivative(self):
        p = ExactPoly([1, 0, 3])
        assert p.eval(Fraction(1, 2)) == Fraction(7, 4)
        assert p.derivative().coeffs == [0, 6]


class TestMultiPoly:
    def test_complete_homogeneous(self):
        h = complete_homogeneous(2, 2, 2)
        assert h.terms == {(2, 0): 1, (1, 1): 1, (0, 2): 1}

    def test_poly_det(self):
        m = [[Fraction(1), Fraction(2)], [Fraction(3), Fraction(4)]]
        assert poly_det(m) == -2


# ---------------------------------------------------------------------------
# the flat kernel against a dict-of-multi-index reference
# ---------------------------------------------------------------------------

def _dict_mul(a, b, hi=None):
    """The product of two dicts of terms; only the terms below hi."""
    out = {}
    for ka, va in a.items():
        for kb, vb in b.items():
            k = tuple(x + y for x, y in zip(ka, kb))
            if hi is None or all(x < t for x, t in zip(k, hi)):
                out[k] = out.get(k, 0) + va * vb
    return out


def _dict_add(a, b):
    out = dict(a)
    for k, v in b.items():
        out[k] = out.get(k, 0) + v
    return out


def _dict_quotient(f, g, hi):
    """f / g in the iterated Laurent series of the tower (lex order,
    level 0 first), every term with exponents below hi: g = g_v x^v
    (1 + sum of terms x^h with h lex-positive), expanded as the
    geometric series term by term.  A term is dropped once no further
    steps can bring it below hi: a step whose first nonzero level is p
    raises level p, and lowers a deeper level j by at most the most
    negative h_j among such steps."""
    v = min(k for k, c in g.items() if c)
    inv = 1 / g[v] if isinstance(g[v], complex) else Fraction(1) / g[v]
    steps = [(tuple(x - y for x, y in zip(k, v)), -c * inv)
             for k, c in g.items() if c and k != v]
    depth = len(v)
    first = [next(j for j, x in enumerate(h) if x) for h, _ in steps]
    drop = [[max([0] + [-h[j] for (h, _), p in zip(steps, first) if p == q])
             for j in range(depth)] for q in range(depth)]

    def alive(e):
        room, counts = [], []
        for j in range(depth):
            down = sum(n * drop[q][j] for q, n in enumerate(counts))
            room.append(e[j] - down < hi[j])
            counts.append(max(0, hi[j] - 1 - e[j] + down))
        return all(room)

    out, frontier = {}, {}
    for k, c in f.items():
        e = tuple(x - y for x, y in zip(k, v))
        if c and alive(e):
            frontier[e] = frontier.get(e, 0) + c * inv
    while frontier:
        nxt = {}
        for e, c in frontier.items():
            out[e] = out.get(e, 0) + c
            for h, s in steps:
                e2 = tuple(x + y for x, y in zip(e, h))
                if alive(e2):
                    nxt[e2] = nxt.get(e2, 0) + c * s
        frontier = nxt
    return out


def _flat(ring, d):
    """The exact element with the terms of the dict d."""
    keys = [k for k, c in d.items() if c]
    if not keys:
        return ring.zero()
    lo = tuple(map(min, *keys)) if len(keys) > 1 else keys[0]
    shape = tuple(h - l + 1 for h, l in zip(map(max, *keys) if len(keys) > 1
                                            else keys[0], lo))
    coeffs = [0] * math.prod(shape)
    for k in keys:
        p = 0
        for x, l, n in zip(k, lo, shape):
            p = p * n + x - l
        coeffs[p] = d[k]
    return exact_core._trim(ring, lo, shape, coeffs, (math.inf,) * len(lo))


def _paired_leaf(x, c):
    """The leaf c of x times x's pair."""
    if x.n == x.d == 1:
        return c
    return x.n * c / x.d if isinstance(c, complex) else Fraction(x.n * c, x.d)


def _values(x):
    """The leaves of x times its pair."""
    return [_paired_leaf(x, c) for c in x.coeffs]


def _value(x, e):
    """The coefficient of x at exponent e, its leaf there times its
    pair, 0 outside its box."""
    p = 0
    for k, l, n in zip(e, x.lo, x.shape):
        if not l <= k < l + n:
            return 0
        p = p * n + k - l
    return _paired_leaf(x, x.coeffs[p])


def _check_known(x, ref, eq=operator.eq):
    """Every coefficient x knows equals the reference's (by `eq`)."""
    points = set(ref)
    for p in range(len(x.coeffs)):
        e, r = [], p
        for n in reversed(x.shape):
            r, i = divmod(r, n)
            e.append(i)
        points.add(tuple(l + i for l, i in zip(x.lo, reversed(e))))
    for e in points:
        if all(k < t for k, t in zip(e, x.err)):
            assert eq(_value(x, e), ref.get(e, 0)), e


_exps = st.integers(-2, 2)


@st.composite
def _kernel_cases(draw):
    depth = draw(st.integers(1, 3))
    windows = draw(st.lists(st.integers(2, 5), min_size=depth,
                            max_size=depth))
    kind = draw(st.sampled_from(["int", "fraction", "complex"]))
    small = st.integers(-3, 3)
    leaf = {"int": small,
            "fraction": st.fractions(min_value=-3, max_value=3,
                                     max_denominator=3),
            "complex": st.builds(complex, small, small)}[kind]
    key = st.tuples(*[_exps] * depth)
    poly = st.dictionaries(key, leaf, min_size=1, max_size=4)
    unit_terms = [tuple(int(i == j) for i in range(depth))
                  for j in range(depth)]
    unit_terms += [tuple(int(i in (j, k)) for i in range(depth))
                   for j in range(depth) for k in range(j + 1, depth)]
    units = []
    for _ in range(draw(st.integers(2, 3))):
        unit = {(0,) * depth: 1}
        for h in draw(st.lists(st.sampled_from(unit_terms), min_size=1,
                               max_size=3, unique=True)):
            unit[h] = draw(small.filter(bool))
        units.append(unit)
    # the first unit alone, and the mixed-sign divisor, which ends its
    # chain, on its own too
    divisors = units[:1]
    if depth > 1:
        j, l = draw(st.permutations(range(depth)))[:2]
        mixed = tuple(1 if i == j else -1 if i == l else 0
                      for i in range(depth))
        divisors.append({(0,) * depth: 1, mixed: -1})
    return windows, kind, draw(poly), draw(poly), divisors, units


class TestFlatKernel:
    """Products, sums, divisions (by one divisor, and by a chain of 2-3
    units in one call of the division kernel) and the pair contraction
    on random towers, at their windows and at doubled ones, against
    exact dict arithmetic: every coefficient the kernel calls known is
    exact."""

    @settings(max_examples=40, deadline=None)
    @given(_kernel_cases())
    def test_known_coefficients_match_the_reference(self, case):
        windows, kind, a, b, divisors, units = case
        if kind == "complex":
            # doubles add and multiply Gaussian integers exactly below
            # 2^53; each value the checks compute, and each partial sum
            # on the way, is bounded leaf by leaf by the same value
            # computed on the majorant, which has no cancellation
            peak = [0]

            def record(x, ref):
                peak[0] = max([peak[0], *map(abs, x.coeffs),
                               *map(abs, ref.values())])

            _kernel_checks(windows, _majorant(a), _majorant(b),
                           [_majorant(g, True) for g in divisors],
                           [_majorant(u, True) for u in units], record)
            assume(peak[0] < 2 ** 53)
        _kernel_checks(windows, a, b, divisors, units, _check_known)


def _majorant(d, divisor=False):
    """The dict d with each leaf c replaced by |Re c| + |Im c|; for a
    divisor, every leaf past its lex-leading one negated, so that its
    quotients are the positive geometric series that bound the others'."""
    lead = min(d) if divisor else None
    out = {}
    for k, c in d.items():
        m = abs(complex(c).real) + abs(complex(c).imag)
        out[k] = int(m) if k == lead or not divisor else -int(m)
    return out


def _kernel_checks(windows, a, b, divisors, units, check):
    """Every check of `TestFlatKernel`, each tower result handed to
    check(result, its reference)."""
    for scale in (1, 2):
        ring, _ = build_tower([(f"e{j}", w * scale)
                               for j, w in enumerate(windows)])
        fa, fb = _flat(ring, a), _flat(ring, b)
        check(fa * fb, _dict_mul(a, b))
        check(fa + fb, _dict_add(a, b))
        check(fa - fb, _dict_add(a, {k: -v for k, v in b.items()}))
        for k in (3, Fraction(-2, 5), 0):
            # a number multiplies the pair, the box and leaves kept, and
            # the value is the product with its constant element's
            x = fa * k
            assert (x.lo, x.shape, x.coeffs, x.err) == \
                (fa.lo, fa.shape, fa.coeffs, fa.err)
            assert Fraction(x.n, x.d) == k * Fraction(fa.n, fa.d)
            assert same(x, fa * ring.const(k))
            if not any(isinstance(c, complex) for c in a.values()):
                check(x, {e: k * c for e, c in a.items()})
        k0, c0 = next(iter(b.items()))
        if c0 and len(fa.coeffs) > 1:
            # a monomial shifts the other factor, as the general
            # product does with the monomial padded by a zero leaf
            inf, L = math.inf, len(k0)
            mono = Series(ring, k0, (1,) * L, [c0], (inf,) * L)
            padded = Series(ring, k0, (2,) + (1,) * (L - 1), [c0, 0],
                            (inf,) * L)
            x, y = fa * mono, fa * padded
            assert (x.lo, x.err) == (y.lo, y.err) and same(x, y)
            check(x, _dict_mul(a, {k0: c0}))
        q2, ref2 = _quotient(fb, b, divisors[0], check)
        for g in divisors:
            q, ref = _quotient(fa, a, g, check)
            for x, y, rx, ry in ((q, fb, ref, b), (q, q2, ref, ref2)):
                xy = x * y
                check(xy, _dict_mul(rx, ry, [e + 2 for e in xy.err]))
                check(x + y, _dict_add(rx, ry))
                try:
                    got = iterated_residue((x, y))
                except PrecisionLoss:
                    continue
                assert got == sum(c * ry.get(tuple(-1 - i for i in k), 0)
                                  for k, c in rx.items())
        # the chain of units in one kernel call: the chain of its
        # divisions, box and leaves, and the quotient by their product
        q, chained = _chain_quotient(fa, units), fa
        g = {(0,) * len(windows): 1}
        for u in units:
            chained, g = chained / _flat(ring, u), _dict_mul(g, u)
        assert (q.lo, q.shape, q.err, q.coeffs) \
            == (chained.lo, chained.shape, chained.err, chained.coeffs)
        check(q, _quotient_reference(q, a, g))


def _chain_quotient(x, units):
    """x divided by the units (dicts with the leaf 1 at exponent 0 and
    further terms at exponents >= 0) in one call of the division kernel,
    each unit one pass, as `exact_core._pair_divide` chains its pair
    factors."""
    L, chain, coefs = len(x.lo), [], []
    for u in units:
        hs = sorted(h for h in u if any(h))
        shape = [1 + max(h[m] for h in hs) for m in range(L)]
        chain.append(((0,) * L, hs, ((0,) * L, shape, (math.inf,) * L)))
        coefs.append([-u[h] for h in hs])
    key = ("test chain", repr(chain), x.lo, x.shape, x.err, x.ring.precs)
    plan = exact_core._division_plan(key, x, chain, x.ring.precs)
    return exact_core._divide(x.ring, x, plan, coefs)


def _quotient(x, d, g, check=_check_known):
    """x / g on the tower and its reference, checked."""
    q = x / _flat(x.ring, g)
    ref = _quotient_reference(q, d, g)
    check(q, ref)
    return q, ref


def _reference_top(q, d):
    """Per level, the exponent below which the reference of a quotient q
    of the dict d is formed: two past q's window (so a product that
    claims too much is caught), and past its box where it is exact."""
    return [e + 2 if e != math.inf else 4 + max(
        [0] + [k[j] + 1 for k in d] + [q.lo[j] + q.shape[j]] * bool(q.coeffs))
            for j, e in enumerate(q.err)]


def _quotient_reference(q, d, g):
    """The reference of the quotient q of the dicts d / g, below
    `_reference_top`.  Over a divisor with real leaves a complex d is
    divided part by part in exact arithmetic: its partial sums pass
    2^53 where the quotient's leaves do not, and would round."""
    top = _reference_top(q, d)
    if any(isinstance(c, complex) for c in d.values()) \
            and not any(isinstance(c, complex) for c in g.values()):
        re, im = (_dict_quotient({k: Fraction(getattr(complex(c), part))
                                  for k, c in d.items()}, g, top)
                  for part in ("real", "imag"))
        return {k: complex(re.get(k, 0), im.get(k, 0))
                for k in re.keys() | im.keys()}
    return _dict_quotient(d, g, top)


def _boxed(ring, lo, shape, leaves, err=None):
    """The element on the box (lo, shape) with these leaves, its zero
    slices kept, known below err (exact by default), and its terms as a
    dict."""
    terms = {}
    for p, c in enumerate(leaves):
        if c:
            e, r = [], p
            for n in reversed(shape):
                r, i = divmod(r, n)
                e.append(i)
            terms[tuple(l + i for l, i in zip(lo, reversed(e)))] = c
    return (Series(ring, lo, shape, list(leaves),
                   err or (math.inf,) * len(lo)), terms)


def _multi(p, shape):
    """The multi-index of flat position p in a box of `shape`."""
    e = []
    for n in reversed(shape):
        p, i = divmod(p, n)
        e.append(i)
    return e[::-1]


def _full_box_product(a, b):
    """(lo, shape, leaves, err) of a * b formed in the untruncated box
    and then cut to the product's: each leaf x of the factor with fewer
    leaves adds x times the other at its offset, a one-leaf factor that
    keeps the other's box scales its leaves."""
    lo, err, shape = exact_core._product_box(a, b)
    if shape is None:
        z = exact_core._empty(a.ring, lo, err)
        return z.lo, z.shape, z.coeffs, z.err
    if len(b.coeffs) > len(a.coeffs):
        a, b = b, a
    if len(b.coeffs) == 1 and shape == a.shape:
        return lo, shape, [b.coeffs[0] * c for c in a.coeffs], err
    full = [m + n - 1 for m, n in zip(a.shape, b.shape)]
    out = [0] * math.prod(full)
    for p, x in enumerate(b.coeffs):
        if x:
            eb = _multi(p, b.shape)
            for q, y in enumerate(a.coeffs):
                f = 0
                for i, j, n in zip(_multi(q, a.shape), eb, full):
                    f = f * n + i + j
                out[f] += x * y
    cut = []
    for p in range(math.prod(shape)):
        f = 0
        for i, n in zip(_multi(p, shape), full):
            f = f * n + i
        cut.append(out[f])
    return lo, shape, cut, err


@st.composite
def _plan_cases(draw):
    """Two dividends on one box and two divisors on another, drawn apart
    in their leaves, so in the divisors' zero patterns, and the
    dividends in which levels they know only up to their box's top; a
    divisor keeps a nonzero leaf at exponent 0, lex first in its box (a
    mixed-sign divisor 1 - x_j/x_l has its box reach x_l^-1 below the
    leading leaf)."""
    depth = draw(st.integers(1, 3))
    windows = draw(st.lists(st.integers(2, 4), min_size=depth,
                            max_size=depth))
    kind = draw(st.sampled_from(["int", "fraction", "complex"]))
    lo = tuple(draw(st.lists(_exps, min_size=depth, max_size=depth)))
    shape = tuple(draw(st.lists(st.integers(1, 3), min_size=depth,
                                max_size=depth)))
    small = st.integers(-3, 3)
    # leaves are zero half the time, so the zero patterns differ
    sparse = st.one_of(st.just(0), small)
    dividends = [(draw(st.lists(sparse, min_size=math.prod(shape),
                                max_size=math.prod(shape))),
                  tuple(l + n if draw(st.booleans()) else math.inf
                        for l, n in zip(lo, shape)))
                 for _ in range(2)]
    mixed = depth > 1 and draw(st.booleans())
    glo = tuple(-int(mixed and j == depth - 1) for j in range(depth))
    gshape = tuple((2 if j in (0, depth - 1) else 1) if mixed
                   else draw(st.integers(1, 2)) for j in range(depth))
    divisors = []
    for _ in range(2):
        leaves = draw(st.lists(sparse, min_size=math.prod(gshape),
                               max_size=math.prod(gshape)))
        # zero before the leading leaf, which sits at exponent 0
        lead = sum(-l * k for l, k in zip(glo, exact_core._strides(gshape)))
        leaves[:lead] = [0] * lead
        # a unit, or any complex number
        leaves[lead] = draw(small.filter(bool) if kind == "complex"
                            else st.sampled_from([1, -1]))
        divisors.append(leaves)
    if kind == "complex":
        dividends = [(list(map(complex, c)), err) for c, err in dividends]
        divisors = [list(map(complex, c)) for c in divisors]
    return (windows, kind, (lo, shape, dividends), (glo, gshape, divisors))


class TestPlanStore:
    """A division or a sum planned afresh and one that finds its plan
    stored give the same element, equal to the dict reference: a plan
    holds no leaf value, and its key tells apart what the leaves decide,
    which for a division is the divisor's zero pattern alone."""

    @settings(max_examples=100, deadline=None)
    @given(_plan_cases())
    def test_warm_plans_give_the_cold_results(self, case):
        windows, kind, (lo, shape, fs), (glo, gshape, gs) = case
        ring, _ = build_tower([(f"e{j}", w) for j, w in enumerate(windows)])
        xs = [_boxed(ring, lo, shape, c, err) for c, err in fs]
        ds = [_boxed(ring, glo, gshape, c) for c in gs]
        ops = [(x, d, "/") for x in xs for d in ds]
        ops += [(x, y, "+") for x in xs for y in xs + ds]

        def run(x, y, op):
            z = x[0] / y[0] if op == "/" else x[0] + y[0]
            return z.lo, z.shape, z.coeffs, z.err, z.n, z.d

        cold = []
        for x, y, op in ops:
            exact_core._PLANS.clear()
            cold.append(run(x, y, op))
        exact_core._PLANS.clear()
        for _ in range(2):
            assert [run(*o) for o in ops] == cold
        # complex leaves round where a leaf is scaled by 1/g_v
        eq = approx_eq if kind == "complex" else operator.eq
        for (x, y, op), z in zip(ops, cold):
            # int leaves stay ints: the divisors' leading -1 goes into
            # the pair
            assert kind == "complex" or all(type(c) is int for c in z[2])
            z = Series(ring, *z)
            ref = (_dict_add(x[1], y[1]) if op == "+"
                   else _quotient_reference(z, x[1], y[1]))
            _check_known(z, ref, eq)

    @settings(max_examples=60, deadline=None)
    @given(_plan_cases())
    def test_warm_product_plans_give_the_cold_results(self, case):
        windows, kind, (lo, shape, fs), (glo, gshape, gs) = case
        ring, _ = build_tower([(f"e{j}", w) for j, w in enumerate(windows)])
        # the factors: leaves zero half the time, the dividends known
        # only up to their box's top in some levels, and a monomial,
        # which shifts the other factor
        terms = [_boxed(ring, lo, shape, c, err) for c, err in fs]
        terms += [_boxed(ring, glo, gshape, c) for c in gs]
        terms.append(_boxed(ring, glo, (1,) * len(glo), [gs[0][0] or 1]))
        # every ordered pair, x * x one object as both factors
        ops = [(x, y) for x in terms for y in terms]

        def run(x, y):
            z = x[0] * y[0]
            return z.lo, z.shape, z.coeffs, z.err

        cold = []
        for x, y in ops:
            exact_core._PLANS.clear()
            cold.append(run(x, y))
        exact_core._PLANS.clear()
        for _ in range(2):
            assert [run(*o) for o in ops] == cold
        for (x, y), z in zip(ops, cold):
            # bit for bit: every slot takes its terms in the same order
            assert repr(z) == repr(_full_box_product(x[0], y[0]))
            _check_known(Series(ring, *z), _dict_mul(x[1], y[1]))

    def test_store_stays_within_its_cap(self, monkeypatch):
        class Store(dict):
            peak = 0

            def __setitem__(self, key, plan):
                super().__setitem__(key, plan)
                Store.peak = max(Store.peak, len(self))

        monkeypatch.setattr(exact_core, "PLAN_CAP", 8)
        monkeypatch.setattr(exact_core, "_PLANS", Store())
        ring, at = build_tower([("a", 4), ("b", 3)])
        a, b = at["a"], at["b"]
        x = 1 + a + 2 * b
        for k in range(1, 12):
            for y in (x * (1 - k * a), x + k * b * b, x / (1 - k * a * b + a),
                      (1 + a) / (1 - b) ** k, x * x * (k * a), x * b ** k):
                assert y.coeffs
        assert Store.peak == 8

    def test_division_plan_ignores_the_dividends_leaves(self):
        # two dividends on one box, apart in their leaves, share the
        # plan of their division by one divisor, window and all
        ring, at = build_tower([("x", 3), ("y", 3)])
        x, y = at["x"], at["y"]
        g = 1 - x * y - y
        f1 = (1 + x + x * x) * (1 + y + y * y)
        f2 = 1 + x * y * y + x * x * (1 + y)
        assert (f1.lo, f1.shape) == (f2.lo, f2.shape) == ((0, 0), (3, 3))
        q1 = f1 / g
        plans = len(exact_core._PLANS)
        q2 = f2 / g
        assert len(exact_core._PLANS) == plans
        assert (q2.lo, q2.shape, q2.err) == (q1.lo, q1.shape, q1.err)


def _chain_pair_quotient(f, zs, p, q, r=1, ordered=False):
    """The pair factors divided one at a time by `Series` division, as
    `ik_engine._pair_quotient` did before its kernel: the reference."""
    n = len(zs)
    for j in range(n):
        for k in range(n):
            if k > j or (ordered and k != j):
                f = f / (p * zs[j] * zs[k] - q * zs[j] + r)
    return f


@st.composite
def _pair_cases(draw):
    """(f, zs, p, q, r, ordered, (c, D, levels)): the variables z = c + D
    eps of a residue drive at the centre c = 0 or 1 on 2 to 4 of the
    levels of a tower with windows 1 to 5, in any order, D the least
    scale that makes each pair factor a constant times a unit
    (`eps_scale` of the ratios of its coefficients to its constant),
    and integers p, q, r; f an element with an integer pair on a box
    of its own, exact or not, or the zero element."""
    levels = draw(st.integers(2, 4))
    windows = draw(st.lists(st.integers(1, 5), min_size=levels,
                            max_size=levels))
    ring, _ = build_tower([(f"e{j}", w) for j, w in enumerate(windows)])
    c = draw(st.sampled_from([0, 1]))
    p, q, r = (draw(st.integers(-4, 4)) for _ in range(3))
    kappa = p * c * c - q * c + r
    assume(kappa)
    scale = exact_core.eps_scale((p * c - q, kappa), (p * c, kappa),
                                 (p, kappa))
    order = draw(st.permutations(range(levels)))[:draw(st.integers(2, levels))]
    zs = [scale * ring.gen(j) + c for j in order]
    lo = [draw(st.integers(-2, 1)) for _ in range(levels)]
    shape = [draw(st.integers(1, 3)) for _ in range(levels)]
    err = [draw(st.sampled_from([math.inf, 0, 2])) + l + n
           for l, n in zip(lo, shape)]
    leaves = draw(st.lists(st.integers(-3, 3), min_size=math.prod(shape),
                           max_size=math.prod(shape)))
    n, d = draw(st.integers(-5, 5)), draw(st.integers(1, 5))
    f = (ring.zero() * Fraction(n, d) if draw(st.integers(0, 7)) == 0 else
         Series(ring, tuple(lo), tuple(shape), leaves, tuple(err), n, d))
    return f, zs, p, q, r, draw(st.booleans()), (c, scale, order)


class TestPairDivide:
    """`ik_engine._pair_quotient` divides by all its pair factors in one
    call of the division kernel (`exact_core._pair_divide`): the
    quotient is the one the pair factors' `Series` divisions give in
    turn, box, leaves and pair value, and every coefficient it knows is
    that of the exact quotient by the factors' product."""

    @settings(max_examples=200, deadline=None)
    @given(_pair_cases())
    def test_equals_the_chain_of_divisions(self, case):
        f, zs, p, q, r, ordered, (c, scale, levels) = case
        got = _pair_quotient(f, zs, p, q, r, ordered)
        want = _chain_pair_quotient(f, zs, p, q, r, ordered)
        assert (got.lo, got.shape, got.err) == (want.lo, want.shape, want.err)
        assert got.coeffs == want.coeffs
        assert Fraction(got.n, got.d) == Fraction(want.n, want.d)
        # the dict reference of f's leaves, one pair factor at a time: a
        # step raises exponents only, so a term past the reference's top
        # stays there
        L, n = len(f.lo), len(zs)
        ref = {tuple(l + i for l, i in zip(f.lo, _multi(m, f.shape))): x
               for m, x in enumerate(f.coeffs) if x}
        top = _reference_top(got, ref)
        for j in range(n):
            for k in range(n):
                if k > j or (ordered and k != j):
                    ej, ek = (tuple(int(m == levels[i]) for m in range(L))
                              for i in (j, k))
                    ref = _dict_quotient(ref, {
                        (0,) * L: p * c * c - q * c + r,
                        ej: (p * c - q) * scale, ek: p * c * scale,
                        tuple(map(operator.add, ej, ek)): p * scale ** 2},
                        top)
        _check_known(got, ref, lambda x, y: x * f.d == y * f.n)
        # a second call finds the plan the first one stored
        again = _pair_quotient(f, zs, p, q, r, ordered)
        assert (again.lo, again.shape, again.coeffs, again.err) \
            == (got.lo, got.shape, got.coeffs, got.err)

    def test_route_factors(self):
        # the factors of efp_mir_n at z = 1 and of efpMIR2 at z = 0, on
        # a dividend with a box of its own in each level
        ring, _ = build_tower([("e0", 4), ("e1", 3), ("e2", 4)])
        f = Series(ring, (-1, 0, 1), (2, 3, 1), [1, -2, 0, 4, 5, -1],
                   (math.inf, 3, 4), 3, 7)
        for c, (p, q, r) in ((1, (4, 11, 9)), (0, (4, 11, 9))):
            kappa = p * c * c - q * c + r
            scale = exact_core.eps_scale((p * c - q, kappa), (p * c, kappa),
                                         (p, kappa))
            zs = [scale * ring.gen(j) + c for j in range(3)]
            for ordered in (False, True):
                got = _pair_quotient(f, zs, p, q, r, ordered)
                want = _chain_pair_quotient(f, zs, p, q, r, ordered)
                assert (got.lo, got.shape, got.coeffs, got.err) \
                    == (want.lo, want.shape, want.coeffs, want.err)
                assert Fraction(got.n, got.d) == Fraction(want.n, want.d)

    def test_fewer_than_two_variables(self):
        ring, _ = build_tower([("e0", 3)])
        f = 2 * (ring.gen(0) + 1)
        assert _pair_quotient(f, [ring.gen(0)], 1, 3, 2) is f

    def test_non_unit_factors_raise(self):
        ring, _ = build_tower([("e0", 3), ("e1", 3)])
        f = ring.const(1)
        zs = [ring.gen(j) for j in range(2)]
        # z_0 z_1 - 3 z_0 + 2 = 2 (1 - 3/2 eps_0 + 1/2 eps_0 eps_1)
        with pytest.raises(ValueError):
            _pair_quotient(f, zs, 1, 3, 2)
        # at z = 1: 1 - 3 + 2 = 0, no constant term
        with pytest.raises(ValueError):
            _pair_quotient(f, [z + 1 for z in zs], 1, 3, 2)
        # a z that is no variable of the tower
        with pytest.raises(TypeError):
            _pair_quotient(f, [zs[0] * zs[0], zs[1]], 1, 3, 1)


def _generic_factor(z, k, num, den):
    """num(z) / (z^k den(z)) by tower arithmetic: num and den by
    Horner's rule in sums and products, z^k a power, one division."""
    def horner(cs):
        acc = z.ring.const(cs[-1])
        for c in reversed(cs[:-1]):
            acc = acc * z + c
        return acc

    return horner(num) / (z ** k * horner(den))


def _taylor_ratios(poly, c):
    """(num, den) pairs of the Taylor coefficients of an integer list at
    c over its value there, as `eps_scale` takes them."""
    a = [sum(Fraction(x) * math.comb(i, m) * Fraction(c) ** (i - m)
             for i, x in enumerate(poly) if i >= m) for m in range(len(poly))]
    return [((v / a[0]).numerator, (v / a[0]).denominator) for v in a[1:]]


@st.composite
def _factor_cases(draw):
    """(ring, zs, factors): on a tower of 1 to 3 levels with windows 1
    to 6, a per-variable factor (k, num, den) with |k| <= 3 and integer
    lists num (nonzero) and den (nonzero at the centre) on 1 to 3 of the
    levels, each variable z = c + D eps at c = 0, 1 or A/B, D the
    eps_scale of den's and z's Taylor coefficients there times 1 or 2."""
    levels = draw(st.integers(1, 3))
    windows = draw(st.lists(st.integers(1, 6), min_size=levels,
                            max_size=levels))
    ring, _ = build_tower([(f"e{j}", w) for j, w in enumerate(windows)])
    used = draw(st.lists(st.integers(0, levels - 1), min_size=1,
                         max_size=levels, unique=True))
    A, B = draw(st.sampled_from([(2, 3), (5, 2), (1, 4)]))
    zs, factors = [], []
    for j in used:
        c = draw(st.sampled_from([0, 1, Fraction(A, B)]))
        num = draw(st.lists(st.integers(-4, 4), min_size=1, max_size=4))
        assume(any(num))
        den = draw(st.lists(st.integers(-4, 4), min_size=1, max_size=4))
        assume(sum(x * Fraction(c) ** i for i, x in enumerate(den)))
        ratios = _taylor_ratios(den, c) + ([(B, A)] if c else [])
        scale = exact_core.eps_scale(*ratios) * draw(st.sampled_from([1, 2]))
        zs.append(scale * ring.gen(j) + c)
        factors.append((draw(st.integers(-3, 3)), num, den))
    return ring, zs, factors


# z^-1 (z - 3) / (3 z) at z = 2/5 + 2 eps on a window of 3: the unit of
# 3 z cancels the inverse of z^-1 within the window, so the quotient's
# top leaf is 0 and the box stops below it, as `_strip` cuts it
_ONE_LEVEL = build_tower([("e0", 3)])[0]
_TOP_ZERO_CASE = (_ONE_LEVEL, [2 * _ONE_LEVEL.gen(0) + Fraction(2, 5)],
                  [(-1, [-3, 1], [0, 3])])


class TestFactorEvaluator:
    """`exact_core._factors` builds each variable's factor num(z)/(z^k
    den(z)) in integers on its own level (`_factor_at`) and takes their
    outer product: the element of the tower arithmetic that builds it
    generically, in lo, shape, err and the value of every leaf."""

    @staticmethod
    def _same(got, want):
        assert (got.lo, got.shape, got.err) == (want.lo, want.shape, want.err)
        assert _values(got) == _values(want)

    @settings(max_examples=300, deadline=None)
    @given(_factor_cases())
    @example(_TOP_ZERO_CASE)
    def test_equals_the_generic_construction(self, case):
        ring, zs, factors = case
        want = ring.const(1)
        for z, (k, num, den) in zip(zs, factors):
            want = want * _generic_factor(z, k, num, den)
        self._same(exact_core._factors(zs, factors), want)

    def test_negative_powers_of_z_are_series(self):
        # the coordinate route's w^(r-1) / (w - 1)^s at w = 1 + eps, as
        # 1 / (w^(1-r) (w - 1)^s): w^(1-r) a series for r > 1, so the
        # factor is cut to the window as the `Series` quotient is
        for s in range(1, 4):
            den = exact_core._ppowers((0, [-1, 1]), s)[-1][1]
            for r in range(1, 7):
                for w in range(1, 6):
                    ring, at = build_tower([("e0", w)])
                    z = at["e0"] + 1
                    want = 1 / (z ** (1 - r) * (z - 1) ** s)
                    self._same(exact_core._factors([z], [(1 - r, [1], den)]),
                               want)

    def test_horner_at_any_laurent_point(self):
        # pd^deg f(poly/pd) at points that are no drive's c + D eps too
        for poly in ((-1, [3]), (0, [2, 1, 5]), (2, [1, -1]), (1, [4]),
                     (0, [2, 7])):
            for f in ([3], [1, -2], [0, 5, 1, -3]):
                want, deg = {}, len(f) - 1
                for m, c in enumerate(f):
                    for e, v in _laurent_power(poly, m).items():
                        want[e] = want.get(e, 0) + c * v * 3 ** (deg - m)
                lo, cs = exact_core._at(f, poly, 3)
                assert {lo + i: c for i, c in enumerate(cs) if c} \
                    == {e: v for e, v in want.items() if v}

    def test_variables_on_one_level_raise(self):
        ring, at = build_tower([("e0", 3), ("e1", 3)])
        z = 2 * at["e0"] + 1
        with pytest.raises(ValueError):
            exact_core._factors([z, z], [(0, [1], [1, 1])] * 2)


def _laurent_power(poly, m):
    """poly^m as a dict of exponents, poly = (lo, coefficients)."""
    out = {0: 1}
    for _ in range(m):
        nxt = {}
        for a, u in out.items():
            for b, v in enumerate(poly[1], poly[0]):
                nxt[a + b] = nxt.get(a + b, 0) + u * v
        out = nxt
    return out
