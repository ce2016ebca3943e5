"""Executable verification of the standalone algebraic identities.

Each check evaluates both sides of one identity from scratch: the
antisymmetrizers are explicit permutation sums (never determinant
shortcuts, so the test stays independent of the closed form it checks),
partition functions come from the determinant formula or the oracle,
and polynomial degrees are established by exact interpolation.

Exact-mode checks assert bit equality of rationals on random small
rational sample points (numerators and denominators up to 64, a
Schwartz-Zippel style certificate for polynomial identities); numeric
checks assert relative residuals at 1e-8 with parameters separated by
at least 0.05.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import permutations

from .errors import SamplePoleHit
from .exact_core import _pmul, format_rational, poly_det
from .ik_engine import (cantini_P_confluent, cantini_W_value, family,
                        psi_kernel)
from .ik_numeric import (_crossed_params, _nested_exclusion, ik_determinant,
                         psi_bot_sum, psi_top_sum)
from .lattice_oracle import (EfpQuery, Record, RowConfig, WeightTriple,
                             enumerate_Z, psi_bot, psi_top)
from .rational import _perm_sign
from .trig import TrigParams, a_fn, b_fn, c_fn, d_fn, e_fn

NUMERIC_TOL = 1e-8
SEPARATION = 0.05


class IdentityCase(Record):
    """One evaluated identity instance."""

    _fields = ("name", "mode", "params", "lhs", "rhs", "residual", "ok")

    def __init__(self, name, mode, params, lhs=None, rhs=None, residual=0.0,
                 ok=True):
        self.name = name
        self.mode = mode               # 'exact' | 'numeric'
        self.params = params
        self.lhs = lhs
        self.rhs = rhs
        self.residual = residual
        self.ok = ok

    def as_json(self):
        def fmt(v):
            if isinstance(v, Fraction):
                return format_rational(v)
            if isinstance(v, complex):
                return f"{v.real:.17g}{v.imag:+.17g}j"
            if isinstance(v, (list, tuple)):
                return [fmt(x) for x in v]
            return v
        return {
            "name": self.name,
            "mode": self.mode,
            "params": {k: fmt(v) for k, v in self.params.items()},
            "lhs": fmt(self.lhs),
            "rhs": fmt(self.rhs),
            "residual": float(self.residual),
            "ok": bool(self.ok),
        }


def _finish(case: IdentityCase):
    if case.mode == "exact":
        case.ok = case.lhs == case.rhs
        case.residual = 0.0 if case.ok else 1.0
    else:
        denom = max(1.0, abs(case.rhs))
        case.residual = abs(case.lhs - case.rhs) / denom
        case.ok = case.residual <= NUMERIC_TOL
    return case


# ---------------------------------------------------------------------------
# sampling helpers
# ---------------------------------------------------------------------------

def rand_fraction(rng, lo=-64, hi=64, den=64):
    return Fraction(rng.randint(lo, hi), rng.randint(1, den))


def _separated(rng, count, lo, hi):
    """Random reals pairwise separated by at least SEPARATION."""
    while True:
        vals = sorted(rng.uniform(lo, hi) for _ in range(count))
        if all(b - a >= SEPARATION for a, b in zip(vals, vals[1:])):
            rng.shuffle(vals)
            return vals


def _trig_draw(rng, n_lam, n_nu):
    lams = _separated(rng, n_lam, 0.3, 2.6)
    nus = _separated(rng, n_nu, -0.7, 0.7)
    eta = rng.uniform(0.15, 0.6)
    return lams, nus, eta


# ---------------------------------------------------------------------------
# the antisymmetrization identities
# ---------------------------------------------------------------------------

def check_kmst(s, lams, nus, eta) -> IdentityCase:
    """Antisymmetrized product form against Vandermonde * Z_s.

    The trigonometric Vandermonde on the closed-form side is oriented as
    prod_{j<k} d(lam_j, lam_k); with the other orientation the two sides
    differ by exactly (-1)^(s(s-1)/2) (checked numerically at s = 2..4).
    """
    case = IdentityCase("kmst", "numeric", {"s": s})

    def summand(mu):
        val = 1 + 0j
        for j in range(s):
            for k in range(j):
                val *= a_fn(mu[j], nus[k], eta)
            for k in range(j + 1, s):
                val *= b_fn(mu[j], nus[k], eta)
        for j in range(s):
            for k in range(j + 1, s):
                val /= e_fn(mu[k], mu[j], eta)
        return val

    lhs = 0j
    for perm in permutations(range(s)):
        lhs += _perm_sign(perm) * summand([lams[p] for p in perm])
    rhs = 1 + 0j
    for j in range(s):
        for k in range(j + 1, s):
            rhs *= d_fn(lams[j], lams[k])
    for j in range(s):
        for k in range(s):
            rhs /= e_fn(lams[k], lams[j], eta)
    rhs *= ik_determinant(TrigParams(lams[:s], nus[:s], eta))
    case.lhs, case.rhs = lhs, rhs
    return _finish(case)


def check_cantini(s, delta, xs, ys) -> IdentityCase:
    """Double antisymmetrization against the product-det closed form."""
    case = IdentityCase("cantini", "exact", {"s": s, "delta": delta})
    _cantini_guards(s, delta, xs, ys)

    def sides(zs):
        """For every ordering z of zs: its sign times prod_j z_j^(s-1-j)
        prod_{j<k} (z_j z_k - 2 delta z_k + 1), the part of a summand
        that depends on one set, and the prefix products of z."""
        out = []
        for perm in permutations(range(s)):
            z = [zs[p] for p in perm]
            f, acc, prefix = Fraction(_perm_sign(perm)), Fraction(1), []
            for j in range(s):
                f *= z[j] ** (s - 1 - j)
                for k in range(j + 1, s):
                    f *= z[j] * z[k] - 2 * delta * z[k] + 1
                acc *= z[j]
                prefix.append(acc)
            out.append((f, prefix))
        return out

    # summand(sigma, tau) = x-side * y-side / prod_j (1 - X_j Y_j), X_j and
    # Y_j the prefix products: the nested products of x_sigma(i) y_tau(i)
    lhs = Fraction(0)
    y_sides = sides(ys)
    for fx, px in sides(xs):
        for fy, py in y_sides:
            den = Fraction(1)
            for u, v in zip(px, py):
                prod = u * v
                if prod == 1:
                    raise SamplePoleHit("nested product hits 1")
                den *= 1 - prod
            lhs += fx * fy / den
    rhs = Fraction(1)
    for j in range(s):
        for k in range(s):
            rhs *= xs[j] + ys[k] - 2 * delta * xs[j] * ys[k]
    rhs *= poly_det([[psi_kernel(x, y, delta) for y in ys] for x in xs])
    case.lhs, case.rhs = lhs, rhs
    return _finish(case)


def check_wpoly_degree(s, delta, rng) -> IdentityCase:
    """prod(1 - x_j y_k) * W_s is a polynomial of degree <= s-1 in x_1,
    established by exact interpolation from 2s-1 fresh sample points
    (the construction bounds the degree by 2s-2 a priori)."""
    case = IdentityCase("wpoly-degree", "exact", {"s": s, "delta": delta})
    base_x = _distinct_fractions(rng, s)
    ys = _distinct_fractions(rng, s)
    npts = 2 * s - 1
    pts, vals = [], []
    guard = 0
    while len(pts) < npts:
        guard += 1
        if guard > 400:
            raise SamplePoleHit("no clean interpolation points")
        x1 = rand_fraction(rng, -20, 20, 16)
        if x1 in pts or x1 in base_x[1:]:
            continue
        xs = [x1] + base_x[1:]
        try:
            _cantini_guards(s, delta, xs, ys)
        except SamplePoleHit:
            continue
        w = cantini_W_value(xs, ys, delta)
        p = w
        for j in range(s):
            for k in range(s):
                p *= 1 - xs[j] * ys[k]
        pts.append(x1)
        vals.append(p)
    coeffs = _lagrange_coeffs(pts, vals)
    case.lhs = coeffs[s:]
    case.rhs = [Fraction(0)] * len(coeffs[s:])
    return _finish(case)


def _psi_pole(delta, x, y):
    """Whether (x, y) is a pole of the Cantini summands: x y = 1, or the
    psi denominator x + y - 2 delta x y vanishes."""
    return x * y == 1 or x + y - 2 * delta * x * y == 0


def _cantini_guards(s, delta, xs, ys):
    if len(set(xs)) < s or len(set(ys)) < s:
        raise SamplePoleHit("coincident points")
    if any(_psi_pole(delta, x, y) for x in xs for y in ys):
        raise SamplePoleHit("x y = 1 or a psi pole")


def _lagrange_coeffs(pts, vals):
    """Exact interpolation coefficients (ascending) through the points."""
    n = len(pts)
    coeffs = [Fraction(0)] * n
    for i in range(n):
        basis = (0, [Fraction(1)])
        denom = Fraction(1)
        for j in range(n):
            if j == i:
                continue
            basis = _pmul(basis, (0, [-pts[j], 1]))
            denom *= pts[i] - pts[j]
        scale = vals[i] / denom
        for k, c in enumerate(basis[1]):
            coeffs[k] += scale * c
    return coeffs


def _distinct_fractions(rng, count, guard=None):
    out = []
    tries = 0
    while len(out) < count:
        tries += 1
        if tries > 500:
            raise SamplePoleHit("sampling failed")
        v = rand_fraction(rng, -20, 20, 16)
        if v not in out and (guard is None or guard(v)):
            out.append(v)
    return out


def p_s_value(s, delta, xs, ys):
    """P_s(x; y) evaluated without constructing the polynomial.

    P_s has degree s-1 in each y variable, so a tensor grid of s nodes
    per dimension determines it; values on the grid come straight from
    the det-psi definition of W_s times prod(1 - x_j y_k).  This keeps
    the evaluation independent of the divided-difference construction
    and works on the 1 - x_j y_j = 0 variety where W_s itself blows up.
    """
    den = 2 * s + 3
    offset = 0
    while True:
        nodes = [[Fraction(m * s + k + 1 + offset, den) for m in range(s)]
                 for k in range(s)]
        flat = [y for dim in nodes for y in dim]
        if not any(_psi_pole(delta, x, y) for x in xs for y in flat):
            break
        offset += s * s
        if offset > 100 * s * s:
            raise SamplePoleHit("no clean interpolation grid")

    def weights(dim, target):
        out = []
        for m, node in enumerate(dim):
            wgt = Fraction(1)
            for m2, other in enumerate(dim):
                if m2 != m:
                    wgt *= (target - other) / (node - other)
            out.append(wgt)
        return out

    wgt = [weights(nodes[k], ys[k]) for k in range(s)]
    total = Fraction(0)
    idx = [0] * s
    while True:
        ygrid = [nodes[k][idx[k]] for k in range(s)]
        val = cantini_W_value(xs, ygrid, delta)
        for j in range(s):
            for k in range(s):
                val *= 1 - xs[j] * ygrid[k]
        coef = Fraction(1)
        for k in range(s):
            coef *= wgt[k][idx[k]]
        total += coef * val
        for k in range(s):
            idx[k] += 1
            if idx[k] < s:
                break
            idx[k] = 0
        else:
            break
    return total


def check_psxx(s, delta, xs) -> IdentityCase:
    """P_s(x; 1/x) against its factorized closed form."""
    case = IdentityCase("psxx", "exact", {"s": s, "delta": delta})
    if any(x == 0 for x in xs) or len(set(xs)) < s:
        raise SamplePoleHit("bad x sample")
    lhs = p_s_value(s, delta, xs, [1 / x for x in xs])
    rhs = Fraction(1)
    for x in xs:
        rhs /= x ** (s - 1)
    for j in range(s):
        for k in range(s):
            if j != k:
                rhs *= xs[j] * xs[k] - 2 * delta * xs[j] + 1
    case.lhs, case.rhs = lhs, rhs
    return _finish(case)


def check_whom(s, zs, w: WeightTriple) -> IdentityCase:
    """W_s(t z; 1/t...) against the h_{s,s} closed form.

    The left side is P_s(t z; 1/t..1/t), taken as the confluent limit of
    its determinant form, over prod (1 - z_j)^s; the z's, and with them
    the u's of the right side, are pairwise distinct (the u-map has
    determinant -c^2/a^2 != 0).
    """
    case = IdentityCase("whom", "exact", {"s": s})
    t, delta = w.t(), w.delta()
    us = []
    for z in zs:
        den = (t * t - 2 * delta * t) * z + 1
        if z == 1 or den == 0 or z == 0:
            raise SamplePoleHit("z value on a pole")
        u = -(z - 1) / den
        if u == 0:
            raise SamplePoleHit("u = 0")
        us.append(u)
    xs = [t * z for z in zs]
    lhs = cantini_P_confluent(xs, 1 / t, delta)
    for j in range(s):
        lhs /= (1 - xs[j] / t) ** s
        for k in range(j + 1, s):
            lhs /= xs[k] - xs[j]
    rhs = Fraction(-1) ** s * enumerate_Z(s, w) \
        / (w.c ** s * w.b ** (s * (s - 1)))
    for z, u in zip(zs, us):
        rhs /= (z - 1) * u ** (s - 1)
    rhs *= family(w).hns_value(s, s, us)
    case.lhs, case.rhs = lhs, rhs
    return _finish(case)


# ---------------------------------------------------------------------------
# the appendix identities
# ---------------------------------------------------------------------------

def check_bigid(s, rs, lams, nus, eta) -> IdentityCase:
    """Permutation-sum form of the top component against the
    nested-exclusion sum with the inner s x s partition function."""
    case = IdentityCase("bigid", "numeric", {"s": s, "rs": tuple(rs)})
    c = c_fn(eta)

    lhs = c ** s
    for j in range(s):
        for k in range(j + 1, s):
            lhs /= d_fn(nus[j], nus[k])
    acc = 0j
    for perm in permutations(range(s)):
        term = complex(_perm_sign(perm))
        for j in range(s):
            vk = nus[perm[j]]
            for beta in range(rs[j] - 1):
                term *= b_fn(lams[beta], vk, eta) / a_fn(lams[beta], vk, eta)
            term /= a_fn(lams[rs[j] - 1], vk, eta)
        for j in range(s):
            for k in range(j + 1, s):
                term *= e_fn(nus[perm[j]], nus[perm[k]], eta)
        acc += term
    lhs *= acc

    rhs = 0j
    for alphas in _nested_exclusion(rs):
        term = 1 + 0j
        for a in alphas:
            for k in range(s):
                term /= a_fn(lams[a - 1], nus[k], eta)
        term *= ik_determinant(
            TrigParams([lams[a - 1] for a in alphas], nus[:s], eta))
        for j, a in enumerate(alphas):
            excl = set(alphas[: j + 1])
            for beta in range(1, rs[j] + 1):
                if beta not in excl:
                    term /= d_fn(lams[a - 1], lams[beta - 1])
            for beta in range(1, rs[j]):
                term *= e_fn(lams[a - 1], lams[beta - 1], eta)
        for j in range(s):
            for k in range(j + 1, s):
                term /= e_fn(lams[alphas[k] - 1], lams[alphas[j] - 1], eta)
        rhs += term
    case.lhs, case.rhs = lhs, rhs
    return _finish(case)


def check_c4(s, lams, nus, eta) -> IdentityCase:
    """The frozen-corner case r_j = j: permutation sum equals Z_s."""
    case = IdentityCase("c4", "numeric", {"s": s})
    c = c_fn(eta)
    lhs = c ** s
    for j in range(s):
        for k in range(j + 1, s):
            lhs /= d_fn(nus[j], nus[k])
    acc = 0j
    for perm in permutations(range(s)):
        term = complex(_perm_sign(perm))
        for j in range(s):
            for k in range(j + 1, s):
                term *= a_fn(lams[k], nus[perm[j]], eta) \
                    * b_fn(lams[j], nus[perm[k]], eta) \
                    * e_fn(nus[perm[j]], nus[perm[k]], eta)
        acc += term
    lhs *= acc
    rhs = (c if s == 1
           else ik_determinant(TrigParams(lams[:s], nus[:s], eta)))
    case.lhs, case.rhs = lhs, rhs
    return _finish(case)


def check_tangent(s, r, lams, nus, eta) -> IdentityCase:
    """The single-free-coordinate case r_j = j (j < s), r_s = r."""
    case = IdentityCase("tangent", "numeric", {"s": s, "r": r})
    lhs = 0j
    for l in range(s):
        term = 1 + 0j
        for j in range(s):
            if j != l:
                term *= e_fn(nus[j], nus[l], eta) / d_fn(nus[j], nus[l])
        for k in range(s):
            if k != l:
                term *= a_fn(lams[s - 1], nus[k], eta)
        for beta in range(r - 1):
            term *= b_fn(lams[beta], nus[l], eta)
        for beta in range(s, r):
            term /= a_fn(lams[beta], nus[l], eta)
        if s > 1:
            sub_nus = [nus[k] for k in range(s) if k != l]
            term *= ik_determinant(TrigParams(lams[: s - 1], sub_nus, eta))
        lhs += term
    rhs = 0j
    for alpha in range(s, r + 1):
        term = 1 + 0j
        for k in range(s):
            term *= a_fn(lams[s - 1], nus[k], eta) \
                / a_fn(lams[alpha - 1], nus[k], eta)
        for beta in range(s, r + 1):
            if beta != alpha:
                term *= e_fn(lams[alpha - 1], lams[beta - 1], eta) \
                    / d_fn(lams[alpha - 1], lams[beta - 1])
        term /= e_fn(lams[alpha - 1], lams[r - 1], eta)
        term *= ik_determinant(
            TrigParams(list(lams[: s - 1]) + [lams[alpha - 1]], nus[:s], eta))
        rhs += term
    case.lhs, case.rhs = lhs, rhs
    return _finish(case)


# ---------------------------------------------------------------------------
# the derivative hierarchy
# ---------------------------------------------------------------------------

def check_hierarchy(N, w: WeightTriple) -> IdentityCase:
    """h_N'(0) = [t^2 + (1 - 2 Delta t + t^2) h_{N-1}'(1)] h_N(0), exact."""
    case = IdentityCase("hierarchy", "exact", {"N": N})
    t, delta = w.t(), w.delta()
    fam = family(w)
    h_n = fam.h(N)
    h_m = fam.h(N - 1)
    lhs = h_n.derivative().eval(Fraction(0))
    rhs = (t * t + (1 - 2 * delta * t + t * t)
           * h_m.derivative().eval(Fraction(1))) * h_n.eval(Fraction(0))
    case.lhs, case.rhs = lhs, rhs
    return _finish(case)


def second_order_hierarchy_instance(N, w: WeightTriple):
    """The machine-generated second-derivative identity: equating the
    s-fold and n-fold routes at (r, s) = (3, 2).

    Returns (IdentityCase, inspection record with the h-derivative data
    entering both sides).  No closed form is conjectured.
    """
    from .efp_reps import efp_mir_n, efp_mir_s
    case = IdentityCase("hierarchy-2nd", "exact", {"N": N, "r": 3, "s": 2})
    q = EfpQuery(N, 3, 2)
    case.lhs = efp_mir_s(q, w, "efpMIR2")
    case.rhs = efp_mir_n(q, w)
    fam = family(w)
    record = {}
    for M in (N, N - 1, N - 2):
        h = fam.h(M)
        d1, d2 = h.derivative(), h.derivative().derivative()
        record[f"h_{M}(0)"] = h.eval(Fraction(0))
        record[f"h_{M}'(0)"] = d1.eval(Fraction(0))
        record[f"h_{M}''(0)"] = d2.eval(Fraction(0))
        record[f"h_{M}'(1)"] = d1.eval(Fraction(1))
        record[f"h_{M}''(1)"] = d2.eval(Fraction(1))
    return _finish(case), record


# ---------------------------------------------------------------------------
# suite runner
# ---------------------------------------------------------------------------

def _resampling(rng, draw, check, tries=200):
    for _ in range(tries):
        args = draw()
        try:
            return check(*args)
        except SamplePoleHit:
            continue
    raise SamplePoleHit("could not find a clean sample")


def run_suite(suite: str, trials: int = 20, seed: int = 0):
    """Run one named identity suite; returns a JSON-ready report."""
    rng = random.Random(seed)
    cases = []

    def rand_weights():
        while True:
            a = rand_fraction(rng, 1, 12, 8)
            b = rand_fraction(rng, 1, 12, 8)
            c = rand_fraction(rng, 1, 12, 8)
            if a > 0 and b > 0 and c > 0:
                return WeightTriple(a, b, c)

    if suite == "kmst":
        for _ in range(trials):
            s = rng.randint(1, 3)
            lams, nus, eta = _trig_draw(rng, s, s)
            cases.append(check_kmst(s, lams, nus, eta))
    elif suite == "cantini":
        for _ in range(trials):
            s = rng.randint(1, 4)
            delta = rand_fraction(rng, -8, 8, 8)
            cases.append(_resampling(
                rng,
                lambda: (s, delta,
                         _distinct_fractions(rng, s),
                         _distinct_fractions(rng, s)),
                check_cantini))
        for s in (2, 3):
            delta = rand_fraction(rng, -8, 8, 8)
            cases.append(_resampling(
                rng, lambda: (s, delta, rng), check_wpoly_degree))
    elif suite == "psxx":
        for _ in range(trials):
            s = rng.randint(1, 4)
            delta = rand_fraction(rng, -8, 8, 8)
            cases.append(_resampling(
                rng,
                lambda: (s, delta,
                         _distinct_fractions(rng, s, guard=lambda v: v != 0)),
                check_psxx))
    elif suite == "whom":
        for _ in range(trials):
            s = rng.randint(1, 3)
            w = rand_weights()
            cases.append(_resampling(
                rng, lambda: (s, _distinct_fractions(rng, s), w), check_whom))
    elif suite == "bigid":
        for _ in range(trials):
            s = rng.randint(1, 3)
            n_max = s + rng.randint(0, 2)
            rs = sorted(rng.sample(range(1, n_max + 1), s))
            lams, nus, eta = _trig_draw(rng, max(rs), s)
            cases.append(check_bigid(s, rs, lams, nus, eta))
    elif suite == "c4":
        for _ in range(trials):
            s = rng.randint(1, 3)
            lams, nus, eta = _trig_draw(rng, s, s)
            cases.append(check_c4(s, lams, nus, eta))
    elif suite == "tangent":
        for _ in range(trials):
            s = rng.randint(1, 3)
            r = s + rng.randint(0, 2)
            lams, nus, eta = _trig_draw(rng, max(r, s), s)
            cases.append(check_tangent(s, r, lams, nus, eta))
    elif suite == "hierarchy":
        for N in range(2, 11):
            cases.append(check_hierarchy(N, WeightTriple(1, 1, 1)))
        for _ in range(max(1, trials // 4)):
            w = rand_weights()
            N = rng.randint(2, 8)
            cases.append(check_hierarchy(N, w))
        case2, record = second_order_hierarchy_instance(4, rand_weights())
        case2.params.update(record)  # expose the derivative data
        cases.append(case2)
    elif suite == "crossing":
        cases.extend(_crossing_cases(rng, trials))
    elif suite == "claim":
        from .hankel_orthopoly import verify_claim
        for _ in range(trials):
            N = rng.randint(1, 6)
            lam = rng.uniform(0.7, 1.3)
            eta = rng.uniform(0.2, 0.5)
            deg = rng.randint(0, 3)
            fc = [complex(rng.uniform(-2, 2)) for _ in range(deg + 1)]
            res = verify_claim(N, lam, eta, fc)
            case = IdentityCase("claim", "numeric", {"N": N})
            case.lhs, case.rhs, case.residual = res, 0.0, res
            case.ok = res <= 1e-7
            cases.append(case)
    elif suite == "all":
        report = {"suites": {}, "failures": 0}
        for name in ("kmst", "cantini", "psxx", "whom", "bigid", "c4",
                     "tangent", "hierarchy", "crossing", "claim"):
            sub = run_suite(name, trials, seed)
            report["suites"][name] = sub
            report["failures"] += sub["failures"]
        return report
    else:
        raise ValueError(f"unknown suite {suite!r}")

    return {
        "suite": suite,
        "trials": trials,
        "seed": seed,
        "cases": [c.as_json() for c in cases],
        "failures": sum(0 if c.ok else 1 for c in cases),
        "max_residual": max((c.residual for c in cases), default=0.0),
    }


def _crossing_cases(rng, trials):
    """Duality of the sublattice partition functions under
    lam -> pi - lam, nu -> -nu, cfg -> complement."""
    cases = []
    for _ in range(trials):
        N = rng.randint(2, 4)
        s = rng.randint(1, N - 1)
        lams, nus, eta = _trig_draw(rng, N, N)
        pos = tuple(sorted(rng.sample(range(1, N + 1), s)))
        cfg = RowConfig(N, pos)
        p = TrigParams(lams, nus, eta)
        lhs = psi_top(cfg, p.weight_matrix())
        p2 = _crossed_params(p, s)
        rhs = psi_bot(cfg.complement(), p2.weight_matrix())
        case = IdentityCase("crossing-oracle", "numeric",
                            {"N": N, "s": s, "pos": pos})
        case.lhs, case.rhs = lhs, rhs
        cases.append(_finish(case))

        lhs2 = psi_top_sum(cfg, p)
        rhs2 = psi_bot_sum(cfg.complement(), p2)
        case2 = IdentityCase("crossing-sum", "numeric",
                             {"N": N, "s": s, "pos": pos})
        case2.lhs, case2.rhs = lhs2, rhs2
        cases.append(_finish(case2))
    return cases
