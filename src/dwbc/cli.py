"""Command-line frontend emitting machine-readable results.

Every subcommand prints one JSON object (or CSV with a header row) on
stdout; exact rationals are emitted as 'p/q' strings, numeric values as
17-significant-digit decimals, so identical invocations are
byte-identical.  Exit codes: 0 success, 1 computation error (the error
name is reported), 2 usage error.

    dwbc zn --size 3 --weights 1 1 1 --method enum
    dwbc efp --size 3 --r 2 --s 1 --weights 1 1 1 --method mir-n
    dwbc hrow --size 4 --positions 1,3 --weights 2 3 4
    dwbc boundary --size 5 --weights 1 1 1
    dwbc psi --size 4 --which top --positions 2,4 --weights 1 2 2 --method mir-new
    dwbc verify --suite cantini --trials 5 --seed 42
    dwbc trace-efp --size 3 --r 2 --s 1 --weights 1 1 1

The DWBC_MAX_N environment variable overrides the lattice size guards.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from fractions import Fraction

from .errors import DwbcError
from .rational import format_rational, parse_rational


def _fmt(v):
    if isinstance(v, Fraction):
        return format_rational(v)
    if isinstance(v, complex):
        if abs(v.imag) < 1e-300:
            return f"{v.real:.17g}"
        return f"{v.real:.17g}{v.imag:+.17g}j"
    if isinstance(v, float):
        return f"{v:.17g}"
    if isinstance(v, (list, tuple)):
        return [_fmt(x) for x in v]
    return v


def _emit_csv(args, payload: dict):
    """The CSV form of a payload (RFC 4180: a field holding a comma is
    quoted): `verify` one summary row, `trace-efp` one row per step,
    `boundary` one `N,k,h_k` row per coefficient, every other
    subcommand its one record, a position list as one field."""
    import csv
    out = csv.writer(sys.stdout, lineterminator="\n")
    if args.command == "verify":
        # suite `all` nests one report per suite: its row takes the worst
        reports = list(payload.get("suites", {}).values()) or [payload]
        out.writerow(["suite", "trials", "seed", "failures", "max_residual"])
        out.writerow([args.suite, args.trials, args.seed, payload["failures"],
                      max(r["max_residual"] for r in reports)])
    elif args.command == "trace-efp":
        out.writerow(["step", "value"])
        out.writerows([st["step"], st["value"]] for st in payload["steps"])
    elif args.command == "boundary":
        out.writerow(["N", "k", "h_k"])
        out.writerows([payload["N"], k, h]
                      for k, h in enumerate(payload["h_coeffs"]))
    else:
        out.writerow(payload.keys())
        out.writerow(",".join(map(str, v)) if isinstance(v, list) else v
                     for v in payload.values())


def _positive_rational(text):
    """argparse type of one --weights entry: a positive 'p' or 'p/q'."""
    try:
        q = parse_rational(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not a rational: {text!r}") from None
    if q <= 0:
        raise argparse.ArgumentTypeError(f"weights must be positive: {text!r}")
    return q


def _count(text):
    """argparse type of --size and --trials: a non-negative integer."""
    try:
        n = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if n < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0: {text!r}")
    return n


def _finite(text):
    """argparse type of --lambda, --eta, --lambdas and --nus: a float x
    with 4x finite, so that the weights' sums and doubles of parameters
    cannot overflow to inf (or reach nan) inside a sine."""
    try:
        x = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None
    if not math.isfinite(4 * x):
        raise argparse.ArgumentTypeError(
            f"must be finite, |x| below about 4.49e307: {text!r}")
    return x


def _positions(text):
    """argparse type of --positions: comma-separated integers, or ''."""
    try:
        return tuple(int(p) for p in text.split(",")) if text else ()
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"not a comma-separated integer list: {text!r}") from None


def _weights_from_args(args):
    """Resolve exactly one weight specification mode."""
    modes = [args.weights is not None,
             args.lam is not None,
             args.lambdas is not None]
    if sum(modes) != 1:
        _usage_error("specify exactly one of --weights, --lambda/--eta, "
                     "--lambdas/--nus/--eta")
    if args.weights is not None:
        from .lattice_oracle import WeightTriple
        return ("exact", WeightTriple(*args.weights))
    if args.lam is not None:
        if args.eta is None:
            _usage_error("--lambda requires --eta")
        return ("hom", (args.lam, args.eta))
    if args.eta is None or args.nus is None:
        _usage_error("--lambdas requires --nus and --eta")
    if not len(args.lambdas) == len(args.nus) == args.size:
        _usage_error("--lambdas and --nus need --size values each")
    from .trig import TrigParams
    return ("inhom", TrigParams(args.lambdas, args.nus, args.eta))


def _usage_error(msg):
    print(f"usage error: {msg}", file=sys.stderr)
    sys.exit(2)


def _add_weight_flags(p):
    p.add_argument("--weights", nargs=3, metavar=("A", "B", "C"),
                   type=_positive_rational,
                   help="exact positive rational weights, e.g. 1 2 5/3")
    p.add_argument("--lambda", dest="lam", type=_finite,
                   help="homogeneous spectral parameter")
    p.add_argument("--lambdas", type=_finite, nargs="+",
                   help="inhomogeneous vertical parameters")
    p.add_argument("--nus", type=_finite, nargs="+",
                   help="inhomogeneous horizontal parameters")
    p.add_argument("--eta", type=_finite, help="coupling parameter")


def _oracle_weights(mode, w):
    """The weights the lattice oracle takes in each weight mode: the
    exact triple, the homogeneous complex triple, or the inhomogeneous
    weight matrix."""
    if mode == "exact":
        return w
    if mode == "hom":
        from .trig import NumericTriple, homogeneous_abc
        return NumericTriple(*homogeneous_abc(*w))
    return w.weight_matrix()


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_zn(args):
    from .lattice_oracle import enumerate_Z
    mode, w = _weights_from_args(args)
    n = args.size
    method = args.method
    if method == "ik":
        from .ik_numeric import ik_determinant, ik_homogeneous
        if mode == "inhom":
            z = ik_determinant(w)
        elif mode == "hom":
            z = ik_homogeneous(n, *w)
        else:
            _usage_error("--method ik needs trigonometric parameters")
    else:
        z = enumerate_Z(n, _oracle_weights(mode, w), method)
    return {"N": n, "method": method, "Z": _fmt(z)}


def cmd_hrow(args):
    from .lattice_oracle import RowConfig, row_config_probability
    mode, w = _weights_from_args(args)
    cfg = RowConfig(args.size, args.positions)
    h = row_config_probability(cfg, _oracle_weights(mode, w), args.method)
    return {"N": args.size, "positions": list(cfg.positions), "H": _fmt(h)}


def cmd_efp(args):
    from .lattice_oracle import EfpQuery, efp_oracle
    mode, w = _weights_from_args(args)
    q = EfpQuery(args.size, args.r, args.s)
    method = args.method
    if method == "ortho":
        if mode != "hom":
            _usage_error("--method ortho needs --lambda/--eta")
        from .hankel_orthopoly import efp_ortho
        f = efp_ortho(q, *w)
    elif mode != "exact":
        _usage_error(f"--method {method} needs exact --weights")
    elif method == "enum":
        f = efp_oracle(q.N, q.r, q.s, w, method="enum")
    elif method == "sum":
        f = efp_oracle(q.N, q.r, q.s, w, args.route)
    elif method == "mir-s":
        from .efp_reps import efp_mir_s
        f = efp_mir_s(q, w, args.variant)
    elif method == "mir-n":
        from .efp_reps import efp_mir_n
        f = efp_mir_n(q, w)
    else:
        _usage_error(f"unknown efp method {method!r}")
    return {"N": q.N, "r": q.r, "s": q.s, "method": method, "F": _fmt(f)}


def cmd_boundary(args):
    from .lattice_oracle import boundary_generating_poly
    mode, w = _weights_from_args(args)
    if mode == "inhom":
        _usage_error("boundary needs --weights or --lambda/--eta")
    h = boundary_generating_poly(args.size, _oracle_weights(mode, w))
    coeffs = h.coeffs if mode == "exact" else list(h)
    return {"N": args.size, "h_coeffs": [_fmt(c) for c in coeffs]}


def cmd_psi(args):
    from .lattice_oracle import RowConfig, psi_bot, psi_top
    mode, w = _weights_from_args(args)
    cfg = RowConfig(args.size, args.positions)
    which, method = args.which, args.method
    if method in ("sum", "sum-dual", "coordinate"):
        if mode != "inhom":
            _usage_error("sum representations need --lambdas/--nus/--eta")
        from . import ik_numeric as ikn
        fn = {("top", "sum"): ikn.psi_top_sum,
              ("top", "sum-dual"): ikn.psi_top_dual_sum,
              ("top", "coordinate"): ikn.psi_top_coordinate,
              ("bottom", "sum"): ikn.psi_bot_sum}.get((which, method))
        if fn is None:
            _usage_error(f"no {method!r} representation for psi_{which}")
        val = fn(cfg, w)
    elif method == "ortho":
        if mode != "hom":
            _usage_error("--method ortho needs --lambda/--eta")
        from .hankel_orthopoly import psi_bot_ortho, psi_top_ortho
        val = (psi_top_ortho if which == "top" else psi_bot_ortho)(cfg, *w)
    elif method == "oracle" or method == "enum":
        fn = psi_top if which == "top" else psi_bot
        val = fn(cfg, _oracle_weights(mode, w),
                 "transfer" if method == "oracle" else "enum")
    elif mode != "exact":
        _usage_error(f"--method {method} needs exact --weights")
    elif (which, method) == ("top", "mir-origin"):
        # the one psi route of efp_reps, which needs no bethe_reps
        from .efp_reps import psi_top_mir_origin
        val = psi_top_mir_origin(cfg.n, 0, cfg.positions, w)
    else:
        from . import bethe_reps as br
        fn = {("top", "mir-new"): br.psi_top_mir_new,
              ("top", "mir-coordinate"): br.psi_top_mir_coordinate,
              ("top", "dual"): br.psi_top_mir_dual,
              ("bottom", "mir"): br.psi_bot_mir,
              ("bottom", "dual"): br.psi_bot_mir_dual}.get((which, method))
        if fn is None:
            _usage_error(f"no {method!r} representation for psi_{which}")
        val = fn(cfg, w)
    return {"N": args.size, "which": which, "positions": list(cfg.positions),
            "method": method, "psi": _fmt(val)}


def cmd_verify(args):
    from .identity_suite import run_suite
    report = run_suite(args.suite, args.trials, args.seed)
    return report


def cmd_trace_efp(args):
    from .efp_reps import EfpQuery, efp_double_contour_trace
    mode, w = _weights_from_args(args)
    if mode != "exact":
        _usage_error("trace-efp needs exact --weights")
    q = EfpQuery(args.size, args.r, args.s)
    steps = efp_double_contour_trace(q, w)
    return {"N": q.N, "r": q.r, "s": q.s, "chain_breaks": 0,
            "steps": [{"step": name, "value": _fmt(v)} for name, v in steps]}


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser():
    top = argparse.ArgumentParser(
        prog="dwbc",
        description="Six-vertex model with domain wall boundary conditions: "
                    "exact partition functions, correlation functions and "
                    "identity verification.")
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("zn", help="partition function Z_N")
    p.add_argument("--size", type=_count, required=True)
    p.add_argument("--method", default="auto",
                   choices=["auto", "enum", "transfer", "ik"])
    _add_weight_flags(p)
    p.set_defaults(func=cmd_zn)

    p = sub.add_parser("hrow", help="row configuration probability")
    p.add_argument("--size", type=_count, required=True)
    p.add_argument("--positions", required=True, type=_positions,
                   help="comma-separated up-arrow positions, e.g. 1,3")
    p.add_argument("--method", default="transfer",
                   choices=["transfer", "enum"])
    _add_weight_flags(p)
    p.set_defaults(func=cmd_hrow)

    p = sub.add_parser("efp", help="emptiness formation probability")
    p.add_argument("--size", type=_count, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--method", default="mir-n",
                   choices=["enum", "sum", "mir-s", "mir-n", "ortho"])
    p.add_argument("--route", default="efp", choices=["efp", "efpn"],
                   help="summation route for --method sum")
    p.add_argument("--variant", default="efpMIR2",
                   choices=["efpMIR1", "efpMIR2"],
                   help="integrand variant for --method mir-s")
    _add_weight_flags(p)
    p.set_defaults(func=cmd_efp)

    p = sub.add_parser("boundary", help="h_N(z) coefficients")
    p.add_argument("--size", type=_count, required=True)
    _add_weight_flags(p)
    p.set_defaults(func=cmd_boundary)

    p = sub.add_parser("psi", help="top/bottom sublattice partition function")
    p.add_argument("--size", type=_count, required=True)
    p.add_argument("--which", required=True, choices=["top", "bottom"])
    p.add_argument("--positions", required=True, type=_positions)
    p.add_argument("--method", default="oracle",
                   choices=["oracle", "enum", "mir", "mir-new",
                            "mir-coordinate", "mir-origin", "dual", "sum",
                            "sum-dual", "coordinate", "ortho"])
    _add_weight_flags(p)
    p.set_defaults(func=cmd_psi)

    p = sub.add_parser("verify", help="run an identity suite")
    p.add_argument("--suite", required=True,
                   choices=["kmst", "cantini", "psxx", "whom", "bigid", "c4",
                            "tangent", "hierarchy", "crossing", "claim",
                            "all"])
    p.add_argument("--trials", type=_count, default=20)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("trace-efp", help="derivation-chain diagnostic")
    p.add_argument("--size", type=_count, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--s", type=int, required=True)
    _add_weight_flags(p)
    p.set_defaults(func=cmd_trace_efp)

    for sp in sub.choices.values():
        sp.add_argument("--format", default="json", choices=["json", "csv"])
    return top


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    max_n = os.environ.get("DWBC_MAX_N")
    if max_n:
        try:
            int(max_n)
        except ValueError:
            _usage_error(f"DWBC_MAX_N must be an integer, got {max_n!r}")
    try:
        payload = args.func(args)
    except DwbcError as exc:
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}),
              file=sys.stderr)
        return 1
    if args.format == "csv":
        _emit_csv(args, payload)
    else:
        print(json.dumps(payload, default=_fmt))
    return 0


if __name__ == "__main__":
    sys.exit(main())
