import math
import operator
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dwbc import exact_core
from dwbc.errors import OrderExceeded, PrecisionLoss, ZeroDenominator
from dwbc.exact_core import (
    ExactPoly,
    Scaled,
    Series,
    approx_eq,
    build_tower,
    format_rational,
    _point_line,
    iterated_residue,
    line_det,
    parse_rational,
    poly_det,
    residue_drive,
)
from dwbc.ik_engine import complete_homogeneous


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
        assert s.lo == (-1,) and s.coeffs == [1]
        assert s.coefficient(0) == 0

    def test_shifted_pole_leading_coefficient(self):
        # (t^2 z - 2 D t + 1)/(t^2 (z-1)) at D=0, t=1 about z=1
        ring, atoms = build_tower([("z", 3)])
        z = atoms["z"] + 1
        t, d = Fraction(1), Fraction(0)
        f = (t**2 * z - 2 * d * t + 1) / (t**2 * (z - 1))
        assert f.lo == (-1,) and f.coefficient(-1) == 2

    def test_out_of_range(self):
        # a coefficient past the tracked window is unknown, not zero
        ring, atoms = build_tower([("z", 3)])
        s = 1 / (1 - atoms["z"])
        assert s.err == (3,)
        with pytest.raises(PrecisionLoss):
            s.coefficient(5)
        assert (atoms["z"] ** 2).coefficient(1) == 0

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
        c = (z + 0.25).coefficient(0)
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
        assert h3.eval(atoms["z"]).coefficient(0) == Fraction(2, 7)

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
            residue_drive([(0, 3), (0, 2)],
                          lambda vs, ring: pair(*vs))

    def test_unknown_low_coefficient_is_precision_loss(self):
        # the x^(-3) coefficient is O(y^3) with no known term: below the
        # bound 2 but not known to be nonzero, so PrecisionLoss (a retry)
        # rather than OrderExceeded
        ring, atoms = build_tower([("x", 3), ("y", 3)])
        x, y = atoms["x"], atoms["y"]
        unknown = 1 / (1 - y) - 1 / (1 - y)
        c0 = unknown.coefficient(0)
        assert not c0.coeffs and c0.err == (3,)
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
        # an int leaf +-1 inverts to an int, any other int to an exact
        # Fraction, never to a float
        ring, _ = build_tower([("x", 4)])
        inv = ring.laurent(0, 0, [2, 1]).inverse()
        assert inv.coeffs == [Fraction(1, 2), Fraction(-1, 4),
                              Fraction(1, 8), Fraction(-1, 16)]
        assert all(type(c) is Fraction for c in inv.coeffs)
        inv = ring.laurent(0, 0, [1, 3]).inverse()
        assert inv.coeffs == [1, -3, 9, -27]
        assert all(type(c) is int for c in inv.coeffs)
        assert type(ring.const(Fraction(6, 3)).coeffs[0]) is int

    def test_scaled_inverse_pulls_out_the_leading_leaf(self):
        ring, _ = build_tower([("x", 4)])
        x = ring.gen()
        # (1/3)(6 + 12x) = 2 (1 + 2x): the unit 1 + 2x is inverted on ints
        inv = Scaled(Fraction(1, 3), 6 + 12 * x).inverse()
        assert Fraction(inv.n, inv.d) == Fraction(1, 2)
        assert inv.e.coeffs == [1, -2, 4, -8]
        # a sum brings its terms to the gcd of their scalars
        s = Scaled(Fraction(1, 2), x) + Scaled(Fraction(1, 3), ring.const(1))
        assert Fraction(s.n, s.d) == Fraction(1, 6) and s.e.coeffs == [2, 3]
        # 2 + 3x has no unit form on ints: inverted as it is
        inv = Scaled(1, 2 + 3 * x).inverse()
        assert inv.e.coeffs[0] == Fraction(1, 2)

    def test_inverse_requires_nonzero_leading(self):
        ring, _ = build_tower([("x", 4)])
        with pytest.raises(ZeroDenominator):
            ring.zero().inverse()
        with pytest.raises(PrecisionLoss):
            ring.laurent(0, 0, [], 2).inverse()


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
        leaves += (exact_core._crop(r.coeffs, r.lo, r.shape, ilo, ishape)
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
    rows = [x.coefficient(lo + i) for i in range(x.shape[0])]
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
        inv.append(-(c0inv * acc) if acc is not None
                   else (x.ring.inner.zero() if isinstance(c0, Series) else 0))
    return _stack(x.ring, -lo, inv, -lo + w)


def _agree(a, b):
    """a and b have equal coefficients wherever both know them, at
    every level."""
    if not isinstance(a, Series):
        return a == b
    top = min(a.err[0], b.err[0])
    exps = ({a.lo[0] + i for i in range(a.shape[0])}
            | {b.lo[0] + i for i in range(b.shape[0])})
    return all(_agree(a.coefficient(k), b.coefficient(k))
               for k in exps if k < top)


def _division_outcome(fn):
    try:
        return fn()
    except (PrecisionLoss, ZeroDenominator) as exc:
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
    leaf = (st.integers(-3, 3) if draw(st.booleans())
            else st.fractions(min_value=-3, max_value=3, max_denominator=3))
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
            assert _agree(got, want)

    def test_monomial_divisor_is_exact(self):
        # 1/atom is the exact Laurent monomial, on any level of a tower
        ring, atoms = build_tower([("x", 3), ("y", 3)])
        for name in ("x", "y"):
            inv = 1 / atoms[name]
            assert inv * atoms[name] == 1
            assert all(e == math.inf for e in inv.err)
        inv = 1 / atoms["y"]
        assert inv.lo == (0, -1) and inv.err == (math.inf, math.inf)
        # 1/(3 x^2) too, with the leaf inverted once
        q = 1 / (3 * atoms["x"] ** 2)
        assert (q.lo, q.coeffs, q.err) == ((-2, 0), [Fraction(1, 3)],
                                           (math.inf, math.inf))

    def test_monomial_divisor_keeps_the_window(self):
        # a windowed f over a monomial is f shifted, window included
        ring, atoms = build_tower([("x", 4)])
        x = atoms["x"]
        f = 1 / (1 - x)
        assert f.err == (4,)
        q = f / x ** 2
        assert (q.lo, q.coeffs, q.err) == ((-2,), [1, 1, 1, 1], (2,))

    def test_polynomial_quotient(self):
        # (1 + z)/(1 - z) to the window: each coefficient is one step of
        # the recurrence against the divisor's single tail term
        ring, atoms = build_tower([("z", 6)])
        z = atoms["z"]
        q = (1 + z) / (1 - z)
        assert q.coeffs == [1, 2, 2, 2, 2, 2] and q.err == (6,)


_leaves = (st.integers(-3, 3)
           | st.fractions(min_value=-3, max_value=3, max_denominator=3))


@st.composite
def _line_matrices(draw):
    """(lines, columns): 1-4 lines, each a column of rationals or of
    polynomial or Laurent entries on its own level of a tower of up to 5
    levels, some levels left unused; the columns are the same entries as
    numbers and exact tower elements."""
    s = draw(st.integers(1, 4))
    kinds = draw(st.lists(st.sampled_from(["number", "poly", "laurent"]),
                          min_size=s, max_size=s))
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


class TestLineDet:
    """The separable determinant kernel against the cofactor expansion."""

    @settings(max_examples=60, deadline=None)
    @given(_line_matrices())
    def test_matches_poly_det(self, case):
        lines, cols = case
        want = poly_det([[col[i] for col in cols] for i in range(len(cols))])
        got = line_det(lines)
        if not isinstance(got, Scaled):
            assert got == want
            return
        # the kernel knows fewer coefficients (each line is cut to its
        # level's window), and those it knows are the exact ones
        assert _agree(got.e * Fraction(got.n, got.d), want)

    def test_window(self):
        # prec coefficients past the line's valuation are kept; a line
        # that fits is exact
        ring, _ = build_tower([("x", 3), ("y", 2)])
        cut = _point_line((ring, 1, None), [(0, [0, 1, 2, 3]), (0, [5])])
        assert (cut.lo, cut.rows, cut.err) == (0, [[0, 1], [5, 0]], 2)
        fits = _point_line((ring, 0, None), [(-1, [1, 0, 4]), (0, [2])], 3)
        assert (Fraction(fits.kn, fits.kd), fits.rows, fits.err) \
            == (3, [[1, 0, 4], [0, 2, 0]], math.inf)
        # 1/(1 - x): a divisor with two terms leaves a series
        inv = _point_line((ring, 0, None), [(0, [1])], div=((0, [1, -1]), 1))
        assert (inv.rows, inv.err) == ([[1, 1, 1]], 3)

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
    determinant, `Scaled` sum and polynomial identity goes through."""

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
    inv = exact_core._invert(g[v])
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


def _value(x, e):
    """The leaf of x at exponent e, 0 outside its box."""
    p = 0
    for k, l, n in zip(e, x.lo, x.shape):
        if not l <= k < l + n:
            return 0
        p = p * n + k - l
    return x.coeffs[p]


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
    unit = {(0,) * depth: 1}
    for h in draw(st.lists(st.sampled_from(unit_terms), min_size=1,
                           max_size=3, unique=True)):
        unit[h] = draw(small.filter(bool))
    divisors = [unit]
    if depth > 1:
        j, l = draw(st.permutations(range(depth)))[:2]
        mixed = tuple(1 if i == j else -1 if i == l else 0
                      for i in range(depth))
        divisors.append({(0,) * depth: 1, mixed: -1})
    return windows, kind, draw(poly), draw(poly), divisors


class TestFlatKernel:
    """Products, sums, divisions and the pair contraction on random
    towers, at their windows and at doubled ones, against exact dict
    arithmetic: every coefficient the kernel calls known is exact."""

    @settings(max_examples=40, deadline=None)
    @given(_kernel_cases())
    def test_known_coefficients_match_the_reference(self, case):
        windows, kind, a, b, divisors = case
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
                           [_majorant(g, True) for g in divisors], record)
            assume(peak[0] < 2 ** 53)
        _kernel_checks(windows, a, b, divisors, _check_known)


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


def _kernel_checks(windows, a, b, divisors, check):
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
            # a number scales the leaves, as the product with its
            # constant element would
            x, y = fa * k, fa * ring.const(k)
            assert (x.lo, x.shape, x.coeffs, x.err) == \
                (y.lo, y.shape, y.coeffs, y.err)
            check(x, {e: k * c for e, c in a.items()})
        k0, c0 = next(iter(b.items()))
        if c0 and len(fa.coeffs) > 1:
            # a monomial shifts the other factor, as the general
            # product does with the monomial padded by a zero leaf
            c0, inf, L = exact_core._leaf(c0), math.inf, len(k0)
            mono = Series(ring, k0, (1,) * L, [c0], (inf,) * L)
            padded = Series(ring, k0, (2,) + (1,) * (L - 1), [c0, 0],
                            (inf,) * L)
            x, y = fa * mono, fa * padded
            assert (x.lo, x.err) == (y.lo, y.err) and x == y
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


def _quotient(x, d, g, check=_check_known):
    """x / g on the tower and its reference, checked."""
    q = x / _flat(x.ring, g)
    ref = _quotient_reference(q, d, g)
    check(q, ref)
    return q, ref


def _quotient_reference(q, d, g):
    """The reference of the quotient q of the dicts d / g, two exponents
    past q's window (so a product that claims too much is caught), and
    past its box where it is exact."""
    hi = [e + 2 if e != math.inf else 4 + max(
        [0] + [k[j] + 1 for k in d] + [q.lo[j] + q.shape[j]] * bool(q.coeffs))
          for j, e in enumerate(q.err)]
    return _dict_quotient(d, g, hi)


def _boxed(ring, lo, shape, leaves, err=None):
    """The element on the box (lo, shape) with these leaves, its zero
    slices kept, known below err (exact by default), and its terms as a
    dict."""
    ring_leaves = [exact_core._leaf(c) for c in leaves]
    terms = {}
    for p, c in enumerate(ring_leaves):
        if c:
            e, r = [], p
            for n in reversed(shape):
                r, i = divmod(r, n)
                e.append(i)
            terms[tuple(l + i for l, i in zip(lo, reversed(e)))] = c
    return (Series(ring, lo, shape, ring_leaves,
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
    in their leaves, so in the dividends' `_tops` and in the divisors'
    zero patterns, and the dividends in which levels they know only up
    to their box's top; a divisor keeps a nonzero leaf at exponent 0,
    lex first in its box (a mixed-sign divisor 1 - x_j/x_l has its box
    reach x_l^-1 below the leading leaf)."""
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
        leaves[lead] = draw(small.filter(bool))
        divisors.append(leaves)
    if kind == "complex":
        dividends = [(list(map(complex, c)), err) for c, err in dividends]
        divisors = [list(map(complex, c)) for c in divisors]
    return (windows, kind, (lo, shape, dividends), (glo, gshape, divisors))


class TestPlanStore:
    """A division or a sum planned afresh and one that finds its plan
    stored give the same element, equal to the dict reference: a plan
    holds no leaf value, and its key tells apart what the leaves decide."""

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
            return z.lo, z.shape, z.coeffs, z.err

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
