"""The four seeded workloads, as rounds of checked queries.

A run repeats rounds until its time is up and it holds at least 100
queries, so the 90th percentile has at least ten samples beyond it.
Every round of a workload has the same query kinds; the sizes that set
their cost are dealt from seeded decks (`Draws.spread`), so throughput
and percentiles depend little on the seed or on how many rounds fit in
a run.

A query is a `run` callable, timed, and a `check` callable, called on
the answer after the timed region.  Checks use independent references:
`reference.py` for the lattice observables, the lattice oracle for the
closed-form routes, and the complex-weight transfer oracle (within
`DEFAULT_RTOL`) for the numeric routes.
"""

import importlib
import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from itertools import combinations
from math import comb

import reference as ref
import speed

WORKLOADS = ("oracle-fresh", "residue-routes", "efp-session", "cli-batch")

# modules whose import is the workload's set-up
SETUP_MODULES = {
    "oracle-fresh": ("dwbc.lattice_oracle",),
    "residue-routes": ("dwbc.lattice_oracle", "dwbc.bethe_reps",
                       "dwbc.efp_reps"),
    "efp-session": ("dwbc.lattice_oracle", "dwbc.efp_reps"),
    "cli-batch": ("dwbc.cli", "dwbc.lattice_oracle", "dwbc.ik_engine",
                  "dwbc.bethe_reps", "dwbc.efp_reps", "dwbc.hankel_orthopoly",
                  "dwbc.identity_suite"),
}

TRACE_W = (1, 2, 2)  # the weights of acceptance criterion 5


class Lib:
    """The program's modules, imported on first use, and the numeric
    references the cli-batch checks need."""

    def __getitem__(self, name):
        return importlib.import_module(f"dwbc.{name}")

    @property
    def rtol(self):
        return self["exact_core"].DEFAULT_RTOL

    def _hom(self, lam, eta):
        ik = self["ik_engine"]
        return ik.NumericTriple(*ik.homogeneous_abc(lam, eta))

    def _inhom(self, lams, nus, eta):
        return self["ik_engine"].TrigParams(lams, nus, eta).weight_matrix()

    def numeric_z(self, n, lam, eta):
        return self["lattice_oracle"].enumerate_Z(n, self._hom(lam, eta),
                                                  "transfer")

    def inhom_z(self, n, lams, nus, eta):
        return self["lattice_oracle"].enumerate_Z(
            n, self._inhom(lams, nus, eta), "transfer")

    def numeric_efp(self, n, r, s, lam, eta):
        return self["lattice_oracle"].efp_oracle(n, r, s, self._hom(lam, eta))

    def inhom_psi_bot(self, n, pos, lams, nus, eta):
        lo = self["lattice_oracle"]
        return lo.psi_bot(lo.RowConfig(n, pos), self._inhom(lams, nus, eta))

    def numeric_psi_top(self, n, pos, lam, eta):
        lo = self["lattice_oracle"]
        return lo.psi_top(lo.RowConfig(n, pos), self._hom(lam, eta))

    def suite_report(self, suite, trials, seed):
        report = self["identity_suite"].run_suite(suite, trials, seed)
        return json.loads(json.dumps(report))


class Query:
    __slots__ = ("label", "run", "check")

    def __init__(self, label, run, check):
        self.label, self.run, self.check = label, run, check


def draw_weights(rng):
    """A rational weight triple, drawn as the acceptance tests draw them."""
    return tuple(Fraction(rng.randint(1, 8), rng.randint(1, 6))
                 for _ in range(3))


def draw_positions(rng, n, s):
    return tuple(sorted(rng.sample(range(1, n + 1), s)))


class Weights:
    """Duck-typed (a, b, c) holder for the reference."""

    def __init__(self, abc):
        self.a, self.b, self.c = abc


def ref_efp(n, r, s, abc):
    """F_N^(r,s) from the reference by both summation definitions, which
    must agree; F_N^(N,s) must be 1."""
    w = Weights(abc)
    f = ref.RowSplit(n, s, w).probability(combinations(range(1, r + 1), s))
    # efpn: row r with positions 1..s frozen and r - s more up arrows
    frozen = tuple(range(1, s + 1))
    fn = ref.RowSplit(n, r, w).probability(
        frozen + extra for extra in combinations(range(s + 1, n + 1), r - s))
    if f != fn or (r == n and f != 1):
        raise AssertionError(f"reference identity broken at {(n, r, s)}")
    return f


# ---------------------------------------------------------------------------
# oracle-fresh: transfer-backend observables, a fresh weight triple each
# ---------------------------------------------------------------------------

def oracle_round(rng, lib):
    lo = lib["lattice_oracle"]
    out = []

    def add(label, run, check):
        out.append(Query(label, run, check))

    for n in (7, 8, 9):
        w = draw_weights(rng)
        add(f"enumerate_Z N={n}",
            lambda n=n, w=w: lo.enumerate_Z(n, lo.WeightTriple(*w), "transfer"),
            lambda v, n=n, w=w: v == ref.RowSplit(n, n // 2, Weights(w)).z())
    for n in (5, 6, 7):
        w = draw_weights(rng)

        def check_h(h, n=n, w=w):
            split = ref.RowSplit(n, 1, Weights(w))
            want = [split.probability([(r,)]) for r in range(1, n + 1)]
            return list(h.coeffs) == want and h.eval(1) == 1

        add(f"boundary_generating_poly N={n}",
            lambda n=n, w=w: lo.boundary_generating_poly(n, lo.WeightTriple(*w)),
            check_h)
    for n in (6, 7, 8):
        w = draw_weights(rng)
        pos = draw_positions(rng, n, rng.spread(("rcp", n), range(1, n)))
        add(f"row_config_probability N={n}",
            lambda n=n, w=w, pos=pos: lo.row_config_probability(
                lo.RowConfig(n, pos), lo.WeightTriple(*w)),
            lambda v, n=n, w=w, pos=pos: v == ref.RowSplit(
                n, len(pos), Weights(w)).probability([pos]))
    for n in (5, 6, 7):
        w = draw_weights(rng)
        r, s = rng.spread(("efp", n), [(r, s) for s in (1, 2)
                                       for r in range(s, n + 1)])
        add(f"efp_oracle N={n}",
            lambda n=n, r=r, s=s, w=w: lo.efp_oracle(n, r, s, lo.WeightTriple(*w)),
            lambda v, n=n, r=r, s=s, w=w: v == ref_efp(n, r, s, w))
    for n in (5, 6, 7):
        w = draw_weights(rng)
        s = rng.spread(("pol", n), (1, 2, 3))
        r = rng.randint(1, n)

        def check_g(v, n=n, r=r, s=s, w=w):
            cfgs = [c for c in combinations(range(1, n + 1), s) if r in c]
            return v == ref.RowSplit(n, s, Weights(w)).probability(cfgs)

        add(f"polarization_oracle N={n}",
            lambda n=n, r=r, s=s, w=w: lo.polarization_oracle(
                n, r, s, lo.WeightTriple(*w)),
            check_g)
    return out


# ---------------------------------------------------------------------------
# residue-routes: the closed-form routes at N = 4..7, fresh weights each
# ---------------------------------------------------------------------------

def _trace_query(lib, n, r, s):
    er, lo = lib["efp_reps"], lib["lattice_oracle"]
    w = lo.WeightTriple(*TRACE_W)

    def check(steps):
        want = lo.efp_oracle(n, r, s, w)
        return all(v == want for _, v in steps)

    return Query(f"efp_double_contour_trace {(n, r, s)}",
                 lambda: er.efp_double_contour_trace(er.EfpQuery(n, r, s), w),
                 check)


def _psi_query(rng, lib, label, fn, oracle, n, s):
    lo = lib["lattice_oracle"]
    w = draw_weights(rng)
    pos = draw_positions(rng, n, s)
    return Query(f"{label} N={n} s={s}",
                 lambda: fn(lo.RowConfig(n, pos), lo.WeightTriple(*w)),
                 lambda v: v == oracle(lo.RowConfig(n, pos),
                                       lo.WeightTriple(*w)))


def _efp_query(rng, lib, label, fn, n, r, s):
    er, lo = lib["efp_reps"], lib["lattice_oracle"]
    w = draw_weights(rng)
    return Query(f"{label} {(n, r, s)}",
                 lambda: fn(er.EfpQuery(n, r, s), lo.WeightTriple(*w)),
                 lambda v: v == lo.efp_oracle(n, r, s, lo.WeightTriple(*w)))


def _residue_block(rng, lib):
    br, er, lo = lib["bethe_reps"], lib["efp_reps"], lib["lattice_oracle"]
    out = []

    def psi(label, fn, oracle, n, s):
        out.append(_psi_query(rng, lib, label, fn, oracle, n, s))

    def efp(label, fn, n, r, s):
        out.append(_efp_query(rng, lib, label, fn, n, r, s))

    def both(cfg, w):
        return lo.psi_top(cfg, w), lo.psi_bot(cfg, w)

    def rs_pairs(n):
        return [(r, s) for s in (1, 2) for r in range(s, n + 1)]

    for n in (4, 5, 6):
        psi("psi_bot_mir", br.psi_bot_mir, lo.psi_bot, n,
            rng.spread(("bot", n), range(1, 4 if n < 6 else 3)))
    for n in (4, 5, 6, 7):
        psi("psi_top_mir_new", br.psi_top_mir_new, lo.psi_top, n,
            rng.spread(("new", n), range(1, 4)))
    for n in (4, 5, 6, 7):
        psi("psi_top_mir_coordinate", br.psi_top_mir_coordinate, lo.psi_top,
            n, rng.spread(("coord", n), range(1, 4)))
    for n in (4, 5, 6):
        psi("psi_dual_mirs", br.psi_dual_mirs, both, n,
            n - rng.spread(("dual", n), range(1, 4 if n < 6 else 3)))
    # N = 7 is left to the other routes: a tenth of the block at
    # N = 7 here would put p90 on the edge of that class
    for i, n in enumerate((4, 5, 5, 6)):
        r, s = rng.spread(("mir2", n, i), rs_pairs(n))
        efp("efp_mir_s/efpMIR2", er.efp_mir_s, n, r, s)
    for n in (5, 6):
        r, s = rng.spread(("mir1", n), rs_pairs(n))
        efp("efp_mir_s/efpMIR1",
            lambda q, w: er.efp_mir_s(q, w, "efpMIR1"), n, r, s)
    for n in (4, 5, 6, 7):
        k, s = rng.spread(("mirn", n), [(k, s) for k in (1, 2)
                                        for s in range(1, n - k + 1)])
        efp("efp_mir_n", er.efp_mir_n, n, s + k, s)
    r, s = rng.spread("trace", ((1, 1), (2, 1), (2, 2), (3, 1), (3, 2)))
    out.append(_trace_query(lib, 3, r, s))
    return out


def residue_round(rng, lib):
    """Six blocks of every route, plus one instance of each known cost
    cliff, so that the targets of the tower, `hns_poly` and sweep work
    are measured rather than extrapolated."""
    br, er, lo = lib["bethe_reps"], lib["efp_reps"], lib["lattice_oracle"]
    out = []
    for _ in range(3):
        out += _residue_block(rng, lib)
    # mid-round, so the speed probes bracket the long cliff queries
    out += [
        # the derivation-chain trace at (3,3,3): double-contour towers
        _trace_query(lib, 3, 3, 3),
        # s = 4: bound by the cofactor determinant in hns_poly
        _psi_query(rng, lib, "psi_bot_mir", br.psi_bot_mir, lo.psi_bot, 5, 4),
        # n = s: the class of (8,8,4), at an affordable size
        _efp_query(rng, lib, "efp_mir_n", er.efp_mir_n, 6, 6, 3),
    ]
    for _ in range(3):
        out += _residue_block(rng, lib)
    return out


# ---------------------------------------------------------------------------
# efp-session: the whole (r, s) grid at one weight triple, three routes
# ---------------------------------------------------------------------------

def session(rng, lib, n):
    er, lo = lib["efp_reps"], lib["lattice_oracle"]
    abc = draw_weights(rng)
    w = lo.WeightTriple(*abc)
    expected = {}

    def want(r, s):
        if (r, s) not in expected:
            expected[(r, s)] = ref_efp(n, r, s, abc)
        return expected[(r, s)]

    out = []
    for r in range(1, n + 1):
        for s in range(1, r + 1):
            q = er.EfpQuery(n, r, s)
            # every cell by each route that is affordable there, and
            # at least one
            routes = []
            if r - s <= 3:
                routes.append(("mir-n", lambda q=q: er.efp_mir_n(q, w)))
            if s <= 2 or not routes:
                routes.append(("mir-s", lambda q=q: er.efp_mir_s(q, w)))
            if comb(r, s) <= 4:
                routes.append(("sum", lambda q=q: er.efp_by_summation(q, w)))
            for name, run in routes:
                out.append(Query(f"efp {name} {(n, r, s)}", run,
                                 lambda v, r=r, s=s: v == want(r, s)))
    return out


def session_round(rng, lib):
    return session(rng, lib, 6) + session(rng, lib, 7) + session(rng, lib, 6)


# ---------------------------------------------------------------------------
# cli-batch: one `dwbc` subprocess per query, each invocation made twice
# ---------------------------------------------------------------------------

def _frac(v):
    v = Fraction(v)
    return str(v.numerator) if v.denominator == 1 else \
        f"{v.numerator}/{v.denominator}"


class Cli:
    """Runs `dwbc` invocations from the checkout's sources."""

    def __init__(self, root, tracer_out=None):
        self.env = dict(os.environ)
        self.env.pop("DWBC_MAX_N", None)
        src = os.path.join(root, "src")
        self.env["PYTHONPATH"] = src
        if tracer_out is None:
            self.prefix = [sys.executable, "-m", "dwbc.cli"]
        else:
            shim = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                "cli_traced.py")
            self.prefix = [sys.executable, shim]
            self.env["PERFBENCH_TRACE_OUT"] = tracer_out
        self.calls = 0

    def calibrate(self):
        return speed.spawn_sample(self.env)

    def run(self, args, extra_env=None):
        env = dict(self.env, **(extra_env or {}))
        env["PERFBENCH_QUERY"] = str(self.calls)
        self.calls += 1
        p = subprocess.run(self.prefix + list(args), env=env,
                           capture_output=True, text=True, timeout=170)
        return p.returncode, p.stdout, p.stderr


def _numeric_close(got, want, rtol):
    got = complex(got)
    return abs(got - want) <= rtol * max(1.0, abs(want))


def cli_round(rng, lib, cli):
    """22 valid invocations over every subcommand plus the 4 malformed
    ones, then the same 26 again (the determinism check)."""
    specs = []  # (args, extra_env, check(stdout_json) or None)

    def exact(n, s, w):
        return ref.RowSplit(n, s, Weights(w))

    def wflags(w):
        return ["--weights"] + [_frac(x) for x in w]

    def trig(rng):
        return round(rng.uniform(0.7, 1.3), 6), round(rng.uniform(0.2, 0.5), 6)

    def inhom(rng, n):
        lams = sorted(round(rng.uniform(0.2, 2.4), 6) for _ in range(n))
        nus = sorted(round(rng.uniform(-0.6, 0.6), 6) for _ in range(n))
        return lams, nus, round(rng.uniform(0.2, 0.6), 6)

    def add(args, check, extra_env=None):
        specs.append(([str(a) for a in args], extra_env, check))

    # zn: transfer, enum, auto (exact); ik homogeneous and inhomogeneous
    for n, method in ((rng.randint(6, 7), "transfer"), (4, "enum"),
                      (5, "auto")):
        w = draw_weights(rng)
        add(["zn", "--size", n, "--method", method] + wflags(w),
            lambda o, n=n, w=w: o["Z"] == _frac(exact(n, n // 2, w).z()))
    n = rng.randint(5, 8)
    lam, eta = trig(rng)
    add(["zn", "--size", n, "--method", "ik", "--lambda", lam, "--eta", eta],
        lambda o, n=n, lam=lam, eta=eta: _numeric_close(
            o["Z"], lib.numeric_z(n, lam, eta), lib.rtol))
    n = rng.randint(3, 4)
    lams, nus, eta = inhom(rng, n)
    add(["zn", "--size", n, "--method", "ik", "--lambdas", *lams,
         "--nus", *nus, "--eta", eta],
        lambda o, n=n, p=(lams, nus, eta): _numeric_close(
            o["Z"], lib.inhom_z(n, *p), lib.rtol))
    # hrow and boundary
    for n in (5, 6):
        w = draw_weights(rng)
        pos = draw_positions(rng, n, rng.randint(1, n - 1))
        add(["hrow", "--size", n, "--positions", ",".join(map(str, pos))]
            + wflags(w),
            lambda o, n=n, w=w, pos=pos: o["H"] == _frac(
                exact(n, len(pos), w).probability([pos])))
    w = draw_weights(rng)
    add(["boundary", "--size", 6] + wflags(w),
        lambda o, w=w: o["h_coeffs"] == [
            _frac(exact(6, 1, w).probability([(r,)])) for r in range(1, 7)])
    # efp by every exact method, and ortho
    for method, extra in (("sum", ["--route", "efpn"]),
                          ("mir-s", ["--variant", "efpMIR1"]),
                          ("mir-n", []), ("enum", [])):
        w = draw_weights(rng)
        s = rng.randint(1, 2)
        r = s + rng.randint(0, 2)  # mir-n takes seconds a query from n = 4
        add(["efp", "--size", 5, "--r", r, "--s", s, "--method", method]
            + extra + wflags(w),
            lambda o, r=r, s=s, w=w: o["F"] == _frac(ref_efp(5, r, s, w)))
    n = rng.randint(3, 4)
    s = rng.randint(1, 2)
    r = rng.randint(s, n)
    lam, eta = trig(rng)
    add(["efp", "--size", n, "--r", r, "--s", s, "--method", "ortho",
         "--lambda", lam, "--eta", eta],
        lambda o, q=(n, r, s), lam=lam, eta=eta: _numeric_close(
            o["F"], lib.numeric_efp(*q, lam, eta), lib.rtol))
    # psi: oracle and closed forms (exact), sums and ortho (numeric)
    for which, method in (("top", "oracle"), ("bottom", "mir"),
                          ("top", "mir-new"), ("top", "mir-origin"),
                          ("bottom", "dual")):
        w = draw_weights(rng)
        pos = draw_positions(rng, 5, rng.randint(2, 3))
        get = "psi_top" if which == "top" else "psi_bot"
        add(["psi", "--size", 5, "--which", which, "--positions",
             ",".join(map(str, pos)), "--method", method] + wflags(w),
            lambda o, w=w, pos=pos, get=get: o["psi"] == _frac(
                getattr(exact(5, len(pos), w), get)(pos)))
    n = rng.randint(3, 4)
    lams, nus, eta = inhom(rng, n)
    pos = draw_positions(rng, n, 2)
    add(["psi", "--size", n, "--which", "bottom", "--positions",
         ",".join(map(str, pos)), "--method", "sum", "--lambdas", *lams,
         "--nus", *nus, "--eta", eta],
        lambda o, n=n, pos=pos, p=(lams, nus, eta): _numeric_close(
            o["psi"], lib.inhom_psi_bot(n, pos, *p), lib.rtol))
    n = rng.randint(3, 4)
    lam, eta = trig(rng)
    pos = draw_positions(rng, n, 2)
    add(["psi", "--size", n, "--which", "top", "--positions",
         ",".join(map(str, pos)), "--method", "ortho", "--lambda", lam,
         "--eta", eta],
        lambda o, n=n, pos=pos, lam=lam, eta=eta: _numeric_close(
            o["psi"], lib.numeric_psi_top(n, pos, lam, eta), lib.rtol))
    # verify: small identity suites (claim runs the Hankel module),
    # compared with an in-process run
    suite = rng.spread("verify", ("cantini", "claim"))
    seed = rng.randint(0, 10 ** 6)
    add(["verify", "--suite", suite, "--trials", 3, "--seed", seed],
        lambda o, suite=suite, seed=seed: o["failures"] == 0
        and o == lib.suite_report(suite, 3, seed))
    # trace-efp at a cheap point of the criterion-5 grid
    r, s = rng.spread("trace", ((2, 1), (2, 2)))
    w = draw_weights(rng)
    add(["trace-efp", "--size", 3, "--r", r, "--s", s] + wflags(w),
        lambda o, r=r, s=s, w=w: o["chain_breaks"] == 0 and all(
            st["value"] == _frac(ref_efp(3, r, s, w)) for st in o["steps"]))
    # malformed input: the contract is exit 2 without a traceback
    for args, env in ((["zn", "--size", 4, "--weights", 1, 0, 1], None),
                      (["zn", "--size", 4, "--weights", 1, "1/0", 1], None),
                      (["hrow", "--size", 4, "--positions", "1,a",
                        "--weights", 1, 1, 1], None),
                      (["zn", "--size", 3, "--weights", 1, 1, 1],
                       {"DWBC_MAX_N": "abc"})):
        add(args, None, env)

    first = {}
    out = []
    for rep in range(2):
        for i, (args, env, check) in enumerate(specs):
            out.append(Query(
                ("dwbc " if check else "malformed: dwbc ") + " ".join(args),
                lambda args=args, env=env: cli.run(args, env),
                _cli_check(i, rep, check, first)))
    return out


def _cli_check(i, rep, check, first):
    """Contract of a valid invocation: exit 0, one JSON object on stdout,
    equal to the reference, byte-identical to its twin.  A malformed one
    is never a failure here: its outcome is tallied as a breach."""

    def run_check(result):
        rc, stdout, stderr = result
        if check is None:
            return "breach" if rc != 2 or "Traceback" in stderr else True
        if rep == 0:
            first[i] = stdout
        elif stdout != first.get(i):
            return False
        if rc != 0:
            return False
        return bool(check(json.loads(stdout)))

    return run_check


def round_queries(workload, rng, lib, cli=None):
    if workload == "cli-batch":
        return cli_round(rng, lib, cli)
    return {"oracle-fresh": oracle_round, "residue-routes": residue_round,
            "efp-session": session_round}[workload](rng, lib)


class Draws(random.Random):
    """The seeded draws of one run.  `spread` deals the sizes that set a
    query's cost from a shuffled deck per query kind, so every run sees
    nearly the same mix of sizes and seeds differ in the inputs, not in
    the amount of work."""

    def __init__(self, seed):
        super().__init__(seed)
        self._decks = {}

    def spread(self, key, values):
        deck = self._decks.get(key)
        if not deck:
            deck = list(values)
            self.shuffle(deck)
            self._decks[key] = deck
        return deck.pop()


def make_rng(workload, seed):
    return Draws(f"{workload}/{seed}")
