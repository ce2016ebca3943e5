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
import os
import sys
from fractions import Fraction

from .errors import DwbcError
from .exact_core import format_rational, parse_rational


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


def _emit(payload: dict, fmt: str):
    if fmt == "json":
        print(json.dumps(payload))
    else:
        keys = list(payload)
        rows = [payload]
        print(",".join(keys))
        for row in rows:
            print(",".join(str(row[k]) for k in keys))


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
    from .ik_engine import TrigParams
    return ("inhom", TrigParams(args.lambdas, args.nus, args.eta))


def _usage_error(msg):
    print(f"usage error: {msg}", file=sys.stderr)
    sys.exit(2)


def _add_weight_flags(p):
    p.add_argument("--weights", nargs=3, metavar=("A", "B", "C"),
                   type=_positive_rational,
                   help="exact positive rational weights, e.g. 1 2 5/3")
    p.add_argument("--lambda", dest="lam", type=float,
                   help="homogeneous spectral parameter")
    p.add_argument("--lambdas", type=float, nargs="+",
                   help="inhomogeneous vertical parameters")
    p.add_argument("--nus", type=float, nargs="+",
                   help="inhomogeneous horizontal parameters")
    p.add_argument("--eta", type=float, help="coupling parameter")


def _numeric_triple(lam, eta):
    from .ik_engine import NumericTriple, homogeneous_abc
    return NumericTriple(*homogeneous_abc(lam, eta))


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_zn(args):
    from .ik_engine import ik_determinant, ik_homogeneous
    from .lattice_oracle import enumerate_Z
    mode, w = _weights_from_args(args)
    n = args.size
    method = args.method
    if method == "ik":
        if mode == "inhom":
            z = ik_determinant(w)
        elif mode == "hom":
            z = ik_homogeneous(n, *w)
        else:
            _usage_error("--method ik needs trigonometric parameters")
    else:
        target = (w if mode == "exact"
                  else _numeric_triple(*w) if mode == "hom"
                  else w.weight_matrix())
        z = enumerate_Z(n, target, method)
    return {"N": n, "method": method, "Z": _fmt(z)}


def cmd_hrow(args):
    from .lattice_oracle import RowConfig, row_config_probability
    mode, w = _weights_from_args(args)
    cfg = RowConfig(args.size, args.positions)
    target = (w if mode == "exact"
              else _numeric_triple(*w) if mode == "hom"
              else w.weight_matrix())
    h = row_config_probability(cfg, target, args.method)
    return {"N": args.size, "positions": list(cfg.positions), "H": _fmt(h)}


def cmd_efp(args):
    from .efp_reps import EfpQuery, efp_by_summation, efp_mir_n, efp_mir_s
    from .lattice_oracle import efp_oracle
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
        f = efp_by_summation(q, w, args.route)
    elif method == "mir-s":
        f = efp_mir_s(q, w, args.variant)
    elif method == "mir-n":
        f = efp_mir_n(q, w)
    else:
        _usage_error(f"unknown efp method {method!r}")
    return {"N": q.N, "r": q.r, "s": q.s, "method": method, "F": _fmt(f)}


def cmd_boundary(args):
    from .lattice_oracle import boundary_generating_poly
    mode, w = _weights_from_args(args)
    if mode == "inhom":
        _usage_error("boundary needs --weights or --lambda/--eta")
    target = w if mode == "exact" else _numeric_triple(*w)
    h = boundary_generating_poly(args.size, target)
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
        from . import bethe_reps as br
        fn = {("top", "sum"): br.psi_top_sum,
              ("top", "sum-dual"): br.psi_top_dual_sum,
              ("top", "coordinate"): br.psi_top_coordinate,
              ("bottom", "sum"): br.psi_bot_sum}.get((which, method))
        if fn is None:
            _usage_error(f"no {method!r} representation for psi_{which}")
        val = fn(cfg, w)
    elif method == "ortho":
        if mode != "hom":
            _usage_error("--method ortho needs --lambda/--eta")
        from .hankel_orthopoly import psi_bot_ortho, psi_top_ortho
        val = (psi_top_ortho if which == "top" else psi_bot_ortho)(cfg, *w)
    elif method == "oracle" or method == "enum":
        target = (w if mode == "exact"
                  else _numeric_triple(*w) if mode == "hom"
                  else w.weight_matrix())
        fn = psi_top if which == "top" else psi_bot
        val = fn(cfg, target, "transfer" if method == "oracle" else "enum")
    else:
        if mode != "exact":
            _usage_error(f"--method {method} needs exact --weights")
        from . import bethe_reps as br
        from .efp_reps import psi_top_mir_origin
        fn = {("top", "mir-new"): br.psi_top_mir_new,
              ("top", "mir-coordinate"): br.psi_top_mir_coordinate,
              ("top", "mir-origin"): lambda cfg, w: psi_top_mir_origin(
                  cfg.n, 0, cfg.positions, w),
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
    if args.format == "csv" and args.command == "verify":
        print("suite,trials,seed,failures,max_residual")
        print(f"{payload.get('suite', 'all')},{payload.get('trials', '')},"
              f"{payload.get('seed', '')},{payload['failures']},"
              f"{payload.get('max_residual', '')}")
    elif args.format == "csv" and args.command == "trace-efp":
        print("step,value")
        for step in payload["steps"]:
            print(f"{step['step']},{step['value']}")
    elif args.format == "csv":
        _emit({k: v for k, v in payload.items()
               if not isinstance(v, (list, dict))}, "csv")
    else:
        print(json.dumps(payload, default=_fmt))
    return 0


if __name__ == "__main__":
    sys.exit(main())
