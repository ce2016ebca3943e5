import fractions
import random
import sys
from collections import Counter
from contextlib import contextmanager
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dwbc import bethe_reps, efp_reps, exact_core, lattice_oracle
from dwbc.bethe_reps import (
    psi_bot_mir,
    psi_bot_mir_dual,
    psi_dual_mirs,
    psi_top_mir_coordinate,
    psi_top_mir_dual,
    psi_top_mir_new,
)
from dwbc.efp_reps import (
    EfpQuery,
    efp_by_summation,
    efp_double_contour_trace,
    efp_mir_n,
    efp_mir_s,
    psi_top_mir_origin,
)
from dwbc.errors import ChainBreak, InvalidRegion, SizeLimit
from dwbc.exact_core import build_tower
from dwbc.ik_engine import cantini_P_vand, family
from dwbc.lattice_oracle import (
    ICE_POINT,
    RowConfig,
    WeightTriple,
    all_row_configs,
    efp_oracle,
    enumerate_Z,
    psi_bot,
    psi_top,
)

W_LIST = [ICE_POINT, WeightTriple(1, 2, 2),
          WeightTriple(Fraction(2, 3), Fraction(5, 4), Fraction(1, 2))]


class TestQueries:
    def test_validation(self):
        with pytest.raises(InvalidRegion):
            EfpQuery(3, 2, 3)
        assert EfpQuery(4, 3, 1).n == 2


class TestRoutes:
    def test_ice_point_values(self):
        q = EfpQuery(3, 2, 1)
        assert efp_by_summation(q, ICE_POINT) == Fraction(5, 7)
        assert efp_mir_s(q, ICE_POINT, "efpMIR1") == Fraction(5, 7)
        assert efp_mir_s(q, ICE_POINT, "efpMIR2") == Fraction(5, 7)
        assert efp_mir_n(q, ICE_POINT) == Fraction(5, 7)

    def test_r_equals_n(self):
        for w in W_LIST:
            for n in (1, 2, 3, 4):
                for s in range(1, n + 1):
                    q = EfpQuery(n, n, s)
                    assert efp_mir_s(q, w) == 1
                    assert efp_mir_n(q, w) == 1

    def test_n_zero_factorized(self):
        w = WeightTriple(1, 2, 2)
        n = 4
        z = enumerate_Z(n, w)
        for s in (1, 2, 3):
            q = EfpQuery(n, s, s)
            expect = (enumerate_Z(s, w) * enumerate_Z(n - s, w)
                      * w.a ** (2 * s * (n - s)) / z)
            assert efp_mir_n(q, w) == expect

    def test_all_routes_vs_oracle(self):
        for w in W_LIST:
            for n in (2, 3):
                for r in range(1, n + 1):
                    for s in range(1, r + 1):
                        q = EfpQuery(n, r, s)
                        f0 = efp_oracle(n, r, s, w)
                        assert efp_by_summation(q, w, "efp") == f0
                        assert efp_by_summation(q, w, "efpn") == f0
                        assert efp_mir_s(q, w, "efpMIR1") == f0
                        assert efp_mir_s(q, w, "efpMIR2") == f0
                        assert efp_mir_n(q, w) == f0

    def test_specific_points(self):
        assert efp_mir_s(EfpQuery(4, 3, 2), WeightTriple(1, 2, 2)) \
            == efp_oracle(4, 3, 2, WeightTriple(1, 2, 2))
        assert efp_mir_n(EfpQuery(4, 3, 1), WeightTriple(2, 3, 4)) \
            == efp_oracle(4, 3, 1, WeightTriple(2, 3, 4))

    def test_n5_spot_checks(self):
        # beyond the acceptance envelope: size-dependent prefactor
        # exponents would show up here
        w = WeightTriple(Fraction(3, 2), Fraction(2, 3), Fraction(5, 4))
        for (r, s) in [(3, 2), (4, 4)]:
            q = EfpQuery(5, r, s)
            f0 = efp_oracle(5, r, s, w)
            assert efp_mir_s(q, w, "efpMIR2") == f0
            assert efp_mir_n(q, w) == f0

    def test_origin_form_of_top_component(self):
        w = WeightTriple(1, 2, 2)
        for n in (2, 3):
            for s in range(1, n + 1):
                for cfg in all_row_configs(n, s):
                    assert psi_top_mir_origin(
                        n, 0, cfg.positions, w) == psi_top(cfg, w)


class TestTrace:
    def test_flipped_step_off_the_trace_grid_weights(self, monkeypatch):
        # at N = 4 the criterion-5 grid reaches the flipped-contour step
        # only at weights (1, 2, 2); the double-contour steps are skipped
        monkeypatch.setattr(efp_reps, "MAX_DOUBLE_S", 0)
        for w in (ICE_POINT,
                  WeightTriple(Fraction(2, 3), Fraction(5, 4), Fraction(1, 2))):
            for n in (1, 2):
                for s in range(1, 5 - n):
                    steps = dict(efp_double_contour_trace(
                        EfpQuery(4, s + n, s), w))
                    assert steps["nfold-flipped"] == efp_oracle(4, s + n, s, w)

    def test_full_chain_ice(self):
        steps = efp_double_contour_trace(EfpQuery(3, 2, 1), ICE_POINT)
        names = [nm for nm, _ in steps]
        assert "double-contour" in names and "nfold-flipped" in names
        assert all(v == Fraction(5, 7) for _, v in steps)

    def test_chain_includes_both_derivations(self):
        steps = efp_double_contour_trace(EfpQuery(3, 3, 2), WeightTriple(1, 2, 2))
        names = [nm for nm, _ in steps]
        for required in ("efp-sum", "efpn-sum", "double-contour",
                         "double-contour-extended",
                         "double-contour-symmetrized", "sfold-recovered",
                         "sfold-symmetric", "sfold-plain",
                         "nfold-extended", "nfold-symmetrized",
                         "nfold-flipped", "nfold-integrated",
                         "nfold-final"):
            assert required in names
        vals = {v for _, v in steps}
        assert len(vals) == 1

    def test_chain_break_detected(self):
        # corrupt one step by monkeypatching the summation and confirm
        # the trace raises with the step name
        import dwbc.efp_reps as er
        orig = er.efp_mir_s
        try:
            er.efp_mir_s = lambda q, w, variant="efpMIR2": Fraction(1, 3)
            with pytest.raises(ChainBreak):
                er.efp_double_contour_trace(EfpQuery(3, 2, 1), ICE_POINT)
        finally:
            er.efp_mir_s = orig


class TestVanishingPoleProperties:
    """The contour-deformation estimates behind the n-fold route."""

    def _setup(self, w, N, s, n):
        t, delta = w.t(), w.delta()
        fam = family(w)
        return t, delta, fam

    def test_residue_at_bilinear_pole_is_regular(self):
        # Res_{z_n = (2D z_1 - 1)/z_1} of the symmetrized integrand is
        # O(1) as z_1 -> 0 (no negative Laurent part)
        w = WeightTriple(1, 2, 2)
        N, s, n = 4, 1, 2
        t, delta, fam = self._setup(w, N, s, n)
        rng = random.Random(4)
        ws_vals = [Fraction(1, 17), Fraction(1, 23)]
        ring, atoms = build_tower([("z1", 12)])
        z1 = atoms["z1"]
        z2 = (2 * delta * z1 - 1) / z1      # the pole location
        h_bot = fam.hns_poly(N - s, n)

        f = ring.const(1)
        for wv, zv in zip(ws_vals, (z1, z2)):
            f = f / (1 - t * wv) / ((wv * zv) ** (N - s))
        # ordered-pair products over w's and z's, j != k: both
        # Vandermondes squared, one copy of each in the det form of P_n
        f = f * (ws_vals[1] - ws_vals[0]) \
            / ((ws_vals[0] * ws_vals[1] - 2 * delta * ws_vals[0] + 1)
               * (ws_vals[0] * ws_vals[1] - 2 * delta * ws_vals[1] + 1))
        f = f * (z2 - z1) / (z2 * z1 - 2 * delta * z2 + 1)
        # the factor (z1 z2 - 2D z1 + 1) vanished at the pole: residue
        # divides by its z2-derivative, which is z1
        f = f / z1
        warg = [((2 * delta * t - 1) * wv - t) / (t * (t * wv - 1))
                for wv in ws_vals]
        f = f * fam.hns_poly(s + n, n).eval(
            [Fraction(x) for x in warg])
        f = f * cantini_P_vand(ws_vals, [z1, z2], delta)
        for wv in ws_vals:
            for zv in (z1, z2):
                f = f / (1 - wv * zv)
        f = f * h_bot.eval([z1 / t, z2 / t])
        assert not f.coeffs or f.lo[0] >= 0

    def test_p_n_vanishes_on_deformed_pole(self):
        # P_n(w; z)|_{z_n = 1/(2D - z_1)} vanishes at z_1 = 1/w_k
        w = WeightTriple(1, 2, 2)
        delta = w.delta()
        ws_vals = [Fraction(3, 7), Fraction(5, 9)]
        for wk in ws_vals:
            z1 = 1 / wk
            z2 = 1 / (2 * delta - z1)
            # the det form is P_2 times two Vandermondes, nonzero here
            assert z1 != z2
            assert cantini_P_vand(ws_vals, [z1, z2], delta) == 0

    def test_large_z_decay(self):
        # as a rational function of z_n the symmetrized integrand is
        # O(1/z_n^2): substitute z_n = 1/zeta and check valuation >= 2
        w = WeightTriple(1, 2, 2)
        N, s, n = 4, 1, 2
        t, delta, fam = self._setup(w, N, s, n)
        ws_vals = [Fraction(1, 17), Fraction(1, 23)]
        z1v = Fraction(3, 11)
        ring, atoms = build_tower([("zeta", 10)])
        zn = 1 / atoms["zeta"]
        f = ring.const(1)
        for wv, zv in zip(ws_vals, (z1v, zn)):
            f = f / (1 - t * wv) / ((wv * zv) ** (N - s))
        # (zn - z1)(z1 - zn) P_n = (z1 - zn) P_n Vand(w) Vand(z) / Vand(w)
        f = f * (z1v - zn) / (ws_vals[1] - ws_vals[0]) \
            / ((z1v * zn - 2 * delta * z1v + 1)
               * (zn * z1v - 2 * delta * zn + 1))
        f = f * cantini_P_vand(ws_vals, [z1v, zn], delta)
        for wv in ws_vals:
            f = f / ((1 - wv * z1v) * (1 - wv * zn))
        f = f * fam.hns_poly(N - s, n).eval([z1v / t, zn / t])
        assert f.lo[0] >= 2


class TestMultisumIdentity:
    def test_geometric_closed_form_vs_truncated(self):
        # the extended nested sum against its closed form, s = 2
        w = WeightTriple(1, 2, 2)
        t = w.t()
        r, s = 3, 2
        ring, atoms = build_tower([("x0", 8), ("x1", 8),
                                   ("y0", 8), ("y1", 8)])
        xs = [atoms["x0"], atoms["x1"]]
        ys = [atoms["y0"] + 1 / t, atoms["y1"] + 1 / t]
        closed = ring.const(1)
        for j in range(s):
            prodxy = ring.const(1)
            for l in range(j + 1):
                prodxy = prodxy * xs[l] * ys[l]
            closed = closed * (xs[j] * ys[j]) ** (-(r - s + j + 1)) \
                / (1 - prodxy)
        truncated = ring.const(0)
        for r2 in range(r - 30, r + 1):
            for r1 in range(r - 30, r2):
                term = (xs[0] * ys[0]) ** (-r1) * (xs[1] * ys[1]) ** (-r2)
                truncated = truncated + term
        diff = closed - truncated
        # all coefficients within the tracked window agree
        def flatten(e, depth):
            if depth == 0:
                return [e]
            out = []
            for k in range(e.lo[0], min(e.lo[0] + e.shape[0], 6)):
                out.extend(flatten(e.coefficient(k), depth - 1))
            return out
        assert all(c == 0 for c in flatten(diff, 4))

    def test_symmint_elementary_symmetric(self):
        # oint prod_{j != k} (y_j - y_k) / prod_{j,k} (y_k - w_j) Phi(y)
        # = s! Phi(w_1, w_2), as the sum of the residues over every pole
        # assignment y_k = w_sigma(k): each residue drops its own simple
        # pole factor and evaluates the rest, and the assignments that
        # use one pole twice vanish on the (y_0 - y_1)(y_1 - y_0) zero
        ws = (Fraction(2, 5), Fraction(7, 9))
        total = Fraction(0)
        for sigma in product(range(2), repeat=2):
            ys = [ws[l] for l in sigma]
            res = (ys[0] - ys[1]) * (ys[1] - ys[0]) * (ys[0] + ys[1])
            for k in range(2):
                for j in range(2):
                    if j != sigma[k]:
                        res = res / (ys[k] - ws[j])
            if sigma[0] == sigma[1]:
                assert res == 0
            total += res
        assert total == 2 * (ws[0] + ws[1])


@contextmanager
def _strict_leaves():
    """Every tower leaf an int and every inverted leaf +-1: a leaf made
    that is not an integer, or a leaf inverse that is not a unit,
    raises."""
    invert, leaf = exact_core._invert, exact_core._leaf

    def unit_invert(x):
        if not isinstance(x, exact_core.Series) and x not in (1, -1):
            raise AssertionError(f"non-unit leaf {x!r} inverted")
        return invert(x)

    def int_leaf(v):
        c = leaf(v)
        if type(c) is not int:
            raise AssertionError(f"fraction leaf {c!r}")
        return c

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(exact_core, "_invert", unit_invert)
        mp.setattr(exact_core, "_leaf", int_leaf)
        yield


_ratio = st.builds(Fraction, st.integers(1, 8), st.integers(1, 6))


@st.composite
def _route_cases(draw):
    w = WeightTriple(draw(_ratio), draw(_ratio), draw(_ratio))
    n = draw(st.integers(2, 5))
    pos = draw(st.lists(st.integers(1, n), min_size=1, max_size=min(n, 5),
                        unique=True))
    s = len(pos)
    return w, RowConfig(n, tuple(sorted(pos))), draw(st.integers(s, n))


class TestIntegerLeaves:
    """Every exact residue route runs on integer leaves, inverting only
    units, and equals the lattice oracle bit for bit."""

    # derandomized: the same 25 draws each run keep the test's cost fixed;
    # the examples are the points the draws reach only by chance: Delta =
    # 1, -1 and 0, the ice point, and triples with a common factor or
    # with large parts, where (a, b, c) = g (A, B, C) divides out most
    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(case=_route_cases())
    @example(case=(WeightTriple(3, 1, 2), RowConfig(5, (1, 3, 4)), 4))
    @example(case=(WeightTriple(1, 1, 2), RowConfig(4, (2, 3)), 3))
    @example(case=(WeightTriple(3, 4, 5), RowConfig(5, (2, 5)), 5))
    @example(case=(ICE_POINT, RowConfig(5, (1, 2, 4, 5)), 5))
    @example(case=(WeightTriple(Fraction(300, 7), Fraction(400, 7),
                                Fraction(500, 7)), RowConfig(5, (1, 4)), 4))
    @example(case=(WeightTriple(Fraction(1000003, 2), Fraction(999983, 3), 7),
                   RowConfig(4, (1, 2, 4)), 4))
    def test_routes_on_random_rational_weights(self, case):
        w, cfg, r = case
        top, bot = psi_top(cfg, w), psi_bot(cfg, w)
        q = EfpQuery(cfg.n, r, cfg.s)
        want = efp_oracle(cfg.n, r, cfg.s, w)
        with _strict_leaves():
            for route in (psi_top_mir_new, psi_top_mir_coordinate,
                          psi_top_mir_dual):
                assert route(cfg, w) == top
            for route in (psi_bot_mir, psi_bot_mir_dual):
                assert route(cfg, w) == bot
            assert psi_top_mir_origin(cfg.n, 0, cfg.positions, w) == top
            assert efp_mir_s(q, w, "efpMIR1") == want
            assert efp_mir_s(q, w, "efpMIR2") == want
            assert efp_mir_n(q, w) == want

    def test_routes_are_homogeneous(self):
        # at lam (a, b, c) every vertex weight scales by lam: psi_top of
        # the N x s lattice by lam^(N s), psi_bot by lam^(N (N - s)), and
        # the probability F not at all, bit for bit
        rng = random.Random(26)
        for _ in range(10):
            w = WeightTriple(*(Fraction(rng.randint(1, 9), rng.randint(1, 6))
                               for _ in range(3)))
            lam = Fraction(rng.randint(1, 40), rng.randint(1, 40))
            wl = WeightTriple(lam * w.a, lam * w.b, lam * w.c)
            n = rng.randint(2, 5)
            cfg = RowConfig(n, tuple(sorted(rng.sample(range(1, n + 1),
                                                       rng.randint(1, n)))))
            s = cfg.s
            top, bot = lam ** (n * s), lam ** (n * (n - s))
            for route in (psi_top_mir_new, psi_top_mir_coordinate,
                          psi_top_mir_dual):
                assert route(cfg, wl) == top * route(cfg, w)
            assert psi_top_mir_origin(n, 0, cfg.positions, wl) \
                == top * psi_top_mir_origin(n, 0, cfg.positions, w)
            for route in (psi_bot_mir, psi_bot_mir_dual):
                assert route(cfg, wl) == bot * route(cfg, w)
            got, want = psi_dual_mirs(cfg, wl), psi_dual_mirs(cfg, w)
            assert got == (top * want[0], bot * want[1])
            q = EfpQuery(n, rng.randint(s, n), s)
            for route in (lambda q, w: efp_mir_s(q, w, "efpMIR1"),
                          lambda q, w: efp_mir_s(q, w, "efpMIR2"), efp_mir_n):
                assert route(q, wl) == route(q, w)

    @settings(max_examples=8, deadline=None, derandomize=True)
    @given(a=_ratio, b=_ratio, c=_ratio)
    def test_trace(self, a, b, c):
        # every step of both chains at N = 3, (r, s) = (3, 2), the
        # origin and frozen forms of the n-fold sub-checks included
        w = WeightTriple(a, b, c)
        with _strict_leaves():
            steps = efp_double_contour_trace(EfpQuery(3, 3, 2), w)
        assert {v for _, v in steps} == {efp_oracle(3, 3, 2, w)}


class TestLayerOneCount:
    """The residue routes do their scalar algebra in integers: a cold
    route makes a Fraction for the value it returns and for little else
    (the weights as the lattice sweep scales them)."""

    def test_fractions_made_by_cold_routes(self):
        w = WeightTriple(Fraction(3, 2), 2, Fraction(5, 3))
        calls = []
        for cfg in (RowConfig(5, (1, 3, 4)), RowConfig(6, (2, 5))):
            for route in (psi_bot_mir, psi_top_mir_new, psi_top_mir_coordinate,
                          psi_top_mir_dual, psi_bot_mir_dual, psi_dual_mirs):
                calls.append(lambda f=route, cfg=cfg: f(cfg, w))
            calls.append(lambda cfg=cfg: psi_top_mir_origin(
                cfg.n, 0, cfg.positions, w))
        for q in (EfpQuery(5, 4, 2), EfpQuery(6, 5, 2)):
            calls += [lambda q=q: efp_mir_s(q, w, "efpMIR1"),
                      lambda q=q: efp_mir_s(q, w, "efpMIR2"),
                      lambda q=q: efp_mir_n(q, w)]
        made = [0]

        def count(frame, event, arg):
            # a Fraction is made by __new__, or (Python 3.12 on) by
            # _from_coprime_ints, which does not call it
            code = frame.f_code
            if event == "call" and code.co_filename == fractions.__file__ \
                    and code.co_name in ("__new__", "_from_coprime_ints"):
                made[0] += 1

        family.cache_clear()
        sys.setprofile(count)
        try:
            for call in calls:
                call()
        finally:
            sys.setprofile(None)
        # 34 on CPython 3.11 for these 20 calls (21 values); scalars as
        # Fractions made 1842
        assert made[0] <= 40


@contextmanager
def _towers_per_drive():
    """The number of towers each `residue_drive` call builds, in call
    order: more than one means its first windows ran out and it
    retried on doubled ones."""
    towers = []
    build_tower, drive = exact_core.build_tower, exact_core.residue_drive

    def counted_tower(*args, **kwargs):
        towers[-1] += 1
        return build_tower(*args, **kwargs)

    def counted_drive(*args, **kwargs):
        towers.append(0)
        return drive(*args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(exact_core, "build_tower", counted_tower)
        for mod in (bethe_reps, efp_reps):
            mp.setattr(mod, "residue_drive", counted_drive)
        yield towers


class TestTowerBuilds:
    """The first windows of `residue_drive` start at each level's pole
    order bound; a route whose bound stops covering them doubles every
    window and rebuilds, which changes no value, so only the count of
    towers shows it."""

    def test_one_tower_per_residue_drive(self):
        w = WeightTriple(Fraction(3, 2), 2, Fraction(5, 3))
        with _towers_per_drive() as towers:
            for n in range(2, 6):
                for s in range(1, n + 1):
                    for cfg in all_row_configs(n, s)[:2]:
                        for route in (psi_bot_mir, psi_top_mir_new,
                                      psi_top_mir_coordinate,
                                      psi_top_mir_dual, psi_bot_mir_dual):
                            route(cfg, w)
                    for r in range(s, n + 1):
                        q = EfpQuery(n, r, s)
                        efp_mir_s(q, w, "efpMIR1")
                        efp_mir_s(q, w, "efpMIR2")
                        efp_mir_n(q, w)
            # n = 1; n = 2, whose flipped step sums two pole assignments;
            # and s = 3, whose symmetrized step takes P_3 in its det form
            for s in (2, 1, 3):
                efp_double_contour_trace(EfpQuery(3, 3, s), w)
        assert towers and set(towers) == {1}


class TestSharedPrefactors:
    def test_cold_query_sweeps_once(self):
        # fresh weights: the family sweeps once, at the route's largest
        # size, for Z_4, Z_6 and h_1..h_4, and calls no per-size oracle
        w = WeightTriple(Fraction(11, 4), Fraction(7, 9), Fraction(5, 2))
        sweeps = []
        bracket = lattice_oracle._transfer_bracket

        def counted(N, *args, **kwargs):
            sweeps.append(N)
            return bracket(N, *args, **kwargs)

        def per_size(*args, **kwargs):
            raise AssertionError("a per-size oracle call")

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(lattice_oracle, "_transfer_bracket", counted)
            for name in ("enumerate_Z", "boundary_generating_poly"):
                mp.setattr(lattice_oracle, name, per_size)
            got = efp_mir_n(EfpQuery(6, 4, 2), w)
        assert sweeps == [6]
        assert got == efp_oracle(6, 4, 2, w)

    def test_routes_keep_the_sweep_size_cap(self, monkeypatch):
        monkeypatch.delenv("DWBC_MAX_N", raising=False)
        w = WeightTriple(Fraction(3, 2), 2, Fraction(5, 3))
        N = lattice_oracle.TRANSFER_MAX_N + 1
        q = EfpQuery(N, 3, 2)
        for route in (lambda: efp_mir_n(q, w), lambda: efp_mir_s(q, w),
                      lambda: efp_mir_s(q, w, "efpMIR1"),
                      lambda: psi_bot_mir(RowConfig(N, (1, 3)), w)):
            with pytest.raises(SizeLimit):
                route()
        # DWBC_MAX_N lifts the cap, shown on a lowered one at fresh
        # weights, where the sizes are cheap
        monkeypatch.setattr(lattice_oracle, "TRANSFER_MAX_N", 5)
        w = WeightTriple(Fraction(13, 11), Fraction(17, 7), Fraction(19, 5))
        q = EfpQuery(6, 3, 2)
        with pytest.raises(SizeLimit):
            efp_mir_n(q, w)
        monkeypatch.setenv("DWBC_MAX_N", "6")
        assert efp_mir_n(q, w) == efp_oracle(6, 3, 2, w)

    def test_grid_sweeps_each_lattice_size_at_most_thrice(self):
        # the routes take Z_M from the per-weight family: a whole N = 6
        # grid by mir-n and mir-s sweeps each lattice size once for Z_M
        # and twice, top and bottom, for h_M
        w = WeightTriple(Fraction(7, 4), Fraction(5, 6), Fraction(9, 5))
        sweeps = Counter()
        bracket = lattice_oracle._transfer_bracket

        def counted(N, *args, **kwargs):
            sweeps[N] += 1
            return bracket(N, *args, **kwargs)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(lattice_oracle, "_transfer_bracket", counted)
            for r in range(1, 7):
                for s in range(1, r + 1):
                    q = EfpQuery(6, r, s)
                    assert efp_mir_n(q, w) == efp_mir_s(q, w)
        assert sweeps and max(sweeps.values()) <= 3
