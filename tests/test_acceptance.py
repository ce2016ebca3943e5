"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see per-criterion
status and timings.  Every tolerance is pinned here; the exact criteria
assert bit equality of rationals.
"""

import random
import time
from fractions import Fraction

from dwbc.bethe_reps import (
    psi_bot_mir,
    psi_dual_mirs,
    psi_top_mir_coordinate,
    psi_top_mir_new,
)
from dwbc.efp_reps import (
    EfpQuery,
    efp_by_summation,
    efp_double_contour_trace,
    efp_mir_n,
    efp_mir_s,
)
from dwbc.hankel_orthopoly import build_ortho_family, efp_ortho, verify_claim
from dwbc.identity_suite import run_suite
from dwbc.ik_numeric import ik_determinant
from dwbc.lattice_oracle import (
    ICE_POINT,
    RowConfig,
    WeightTriple,
    boundary_generating_poly,
    efp_oracle,
    enumerate_Z,
    psi_bot,
    psi_top,
    row_config_probability,
)
from dwbc.trig import TrigParams, homogeneous_abc

from row_configs import all_row_configs


def _report(criterion, ok, elapsed, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {criterion}: {status} ({elapsed:.1f}s) {detail}")
    assert ok, f"criterion {criterion} failed: {detail}"


def _random_triples(seed, count):
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        w = WeightTriple(Fraction(rng.randint(1, 8), rng.randint(1, 6)),
                         Fraction(rng.randint(1, 8), rng.randint(1, 6)),
                         Fraction(rng.randint(1, 8), rng.randint(1, 6)))
        out.append(w)
    return out


def test_criterion_1_ice_point_partition_sums():
    t0 = time.time()
    expected = {1: 1, 2: 2, 3: 7, 4: 42, 5: 429}
    ok = all(enumerate_Z(n, ICE_POINT) == expected[n] for n in range(1, 6))
    elapsed = time.time() - t0
    _report(1, ok and elapsed < 5.0, elapsed,
            "Z_1..Z_5 at a=b=c=1 are the ASM counts")


def test_criterion_2_determinant_vs_enumeration():
    t0 = time.time()
    rng = random.Random(2024)
    checked = 0
    worst = 0.0
    while checked < 25:
        n = rng.randint(1, 4)
        lams = sorted(rng.uniform(0.2, 2.4) for _ in range(n))
        nus = sorted(rng.uniform(-0.6, 0.6) for _ in range(n))
        if any(b - a < 0.08 for a, b in zip(lams, lams[1:])):
            continue
        if any(b - a < 0.08 for a, b in zip(nus, nus[1:])):
            continue
        p = TrigParams(lams, nus, rng.uniform(0.2, 0.6))
        z1 = ik_determinant(p)
        z2 = enumerate_Z(n, p.weight_matrix(), "enum")
        worst = max(worst, abs(z1 - z2) / max(1, abs(z1)))
        checked += 1
    elapsed = time.time() - t0
    _report(2, worst <= 1e-9 and elapsed < 30.0, elapsed,
            f"25 draws, worst relative error {worst:.2e}")


def test_criterion_3_five_way_psi_agreement():
    t0 = time.time()
    bad = []
    for w in _random_triples(33, 3):
        for n in (1, 2, 3, 4):
            z = enumerate_Z(n, w)
            for s in range(0, n + 1):
                for cfg in all_row_configs(n, s):
                    top = psi_top(cfg, w)
                    bot = psi_bot(cfg, w)
                    h = top * bot / z
                    routes = {
                        "MIRZ2": psi_bot_mir(cfg, w) * top / z,
                        "oldrep": psi_top_mir_coordinate(cfg, w) * bot / z,
                        "MIRZ1alt": psi_top_mir_new(cfg, w) * bot / z,
                    }
                    td, bd = psi_dual_mirs(cfg, w)
                    routes["dual"] = td * bd / z
                    for name, val in routes.items():
                        if val != h:
                            bad.append((name, w, cfg))
    elapsed = time.time() - t0
    _report(3, not bad and elapsed < 120.0, elapsed,
            "oracle/MIRZ2/oldrep/MIRZ1alt/dual H values bit-identical, "
            "N <= 4, 3 random triples")


def test_criterion_4_efp_equivalence():
    t0 = time.time()
    bad = []
    for w in _random_triples(44, 3):
        for n in (1, 2, 3, 4):
            for r in range(1, n + 1):
                for s in range(1, r + 1):
                    q = EfpQuery(n, r, s)
                    f0 = efp_oracle(n, r, s, w)
                    for name, val in (
                            ("efp", efp_by_summation(q, w, "efp")),
                            ("efpn", efp_by_summation(q, w, "efpn")),
                            ("efpMIR1", efp_mir_s(q, w, "efpMIR1")),
                            ("efpMIR2", efp_mir_s(q, w, "efpMIR2")),
                            ("nefp", efp_mir_n(q, w))):
                        if val != f0:
                            bad.append((name, w, n, r, s))
    elapsed = time.time() - t0
    _report(4, not bad and elapsed < 120.0, elapsed,
            "all six EFP routes bit-exact, N <= 4, 3 random triples")


def test_criterion_5_derivation_chain_trace():
    t0 = time.time()
    w = WeightTriple(1, 2, 2)
    breaks = 0
    points = 0
    for n in (3, 4):
        for r in range(1, n + 1):
            for s in range(1, r + 1):
                steps = efp_double_contour_trace(EfpQuery(n, r, s), w)
                points += 1
                vals = {v for _, v in steps}
                if len(vals) != 1:
                    breaks += 1
    elapsed = time.time() - t0
    _report(5, breaks == 0 and elapsed < 60.0, elapsed,
            f"zero chain breaks over {points} (r,s) points at N=3,4 "
            "(both derivation chains incl. nefp2 -> nefp2bis)")


def test_criterion_6_identity_suite():
    t0 = time.time()
    failures = 0
    details = []
    for suite in ("cantini", "psxx", "whom"):
        rep = run_suite(suite, trials=20, seed=6)
        failures += rep["failures"]
        details.append(f"{suite}:exact")
    for suite in ("kmst", "bigid", "c4", "tangent"):
        rep = run_suite(suite, trials=20, seed=6)
        failures += rep["failures"]
        if rep["max_residual"] > 1e-8:
            failures += 1
        details.append(f"{suite}:{rep['max_residual']:.1e}")
    hier = run_suite("hierarchy", trials=4, seed=6)
    failures += hier["failures"]
    elapsed = time.time() - t0
    _report(6, failures == 0 and elapsed < 120.0, elapsed,
            "20 draws per identity; hierarchy exact for N <= 10; "
            + " ".join(details))


def test_criterion_7_hankel_module():
    t0 = time.time()
    rng = random.Random(77)
    ok = True
    worst_claim = 0.0
    for n in range(1, 7):
        for _ in range(3):
            deg = rng.randint(0, 3)
            fc = [complex(rng.uniform(-2, 2)) for _ in range(deg + 1)]
            res = verify_claim(n, 0.95, 0.33, fc)
            worst_claim = max(worst_claim, res)
    ok &= worst_claim <= 1e-7

    a, b, c = homogeneous_abc(0.95, 0.33)
    wx = WeightTriple(Fraction(a.real), Fraction(b.real), Fraction(c.real))
    worst_efp = 0.0
    for n in (2, 3, 4):
        for r in range(1, n + 1):
            for s in range(1, min(2, r) + 1):
                q = EfpQuery(n, r, s)
                got = efp_ortho(q, 0.95, 0.33)
                want = float(efp_mir_s(q, wx))
                worst_efp = max(worst_efp,
                                abs(got - want) / max(1, abs(want)))
    ok &= worst_efp <= 1e-6

    import math
    fam = build_ortho_family(5, 0.95, 0.33)
    fam2 = build_ortho_family(5, math.pi - 0.95, 0.33)
    worst_cross = 0.0
    for n in range(5):
        k1, k2 = fam.K_coeffs(n), fam2.K_coeffs(n)
        for m in range(n + 1):
            expect = (-1) ** (n + m) * k1[m]
            worst_cross = max(worst_cross,
                              abs(k2[m] - expect) / max(1, abs(expect)))
    ok &= worst_cross <= 1e-9
    elapsed = time.time() - t0
    _report(7, ok and elapsed < 60.0, elapsed,
            f"claim<= {worst_claim:.1e}, orthEFP<= {worst_efp:.1e}, "
            f"crossing<= {worst_cross:.1e}")


def test_criterion_8_normalizations():
    t0 = time.time()
    rng = random.Random(88)
    ok = True
    for n in range(1, 7):
        w = WeightTriple(Fraction(rng.randint(1, 6), rng.randint(1, 4)),
                         Fraction(rng.randint(1, 6), rng.randint(1, 4)),
                         Fraction(rng.randint(1, 6), rng.randint(1, 4)))
        h = boundary_generating_poly(n, w)
        ok &= h.eval(1) == 1
        ok &= sum(row_config_probability(RowConfig(n, (r,)), w)
                  for r in range(1, n + 1)) == 1
        for s in range(1, n + 1):
            total = sum(row_config_probability(c, w)
                        for c in all_row_configs(n, s))
            ok &= total == 1
            ok &= efp_oracle(n, n, s, w) == 1
    elapsed = time.time() - t0
    _report(8, ok, elapsed,
            "H sums, F_N^(N,s) and h_N(1) all exactly 1 for N <= 6")
