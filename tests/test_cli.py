import contextlib
import csv
import io
import json
import os
import subprocess
import sys
import textwrap

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import dwbc
from dwbc.cli import main


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr().out
    return code, out


# inhomogeneous parameters whose b weight at site (alpha, k) = (2, 4) is
# sin(0.9 - 0.5 - 0.4), exactly 0 in floats
_ZERO_B = ["--lambdas", "0.3", "0.9", "1.4", "2.0", "--nus", "-0.3", "0.0",
           "0.2", "0.5", "--eta", "0.4"]


class TestSubcommands:
    def test_zn_enum(self, capsys):
        code, out = run_cli(["zn", "--size", "3", "--weights", "1", "1", "1",
                             "--method", "enum"], capsys)
        assert code == 0
        assert json.loads(out) == {"N": 3, "method": "enum", "Z": "7"}

    def test_efp_mir_n(self, capsys):
        code, out = run_cli(["efp", "--size", "3", "--r", "2", "--s", "1",
                             "--weights", "1", "1", "1",
                             "--method", "mir-n"], capsys)
        assert code == 0
        assert json.loads(out)["F"] == "5/7"

    def test_efp_enum_backend(self, capsys):
        # --method enum runs the enumeration backend: it agrees with the
        # transfer backend at N <= 6 and refuses N = 8 as zn --method enum
        # does
        for n, r, s in ((3, 2, 1), (5, 4, 2), (6, 3, 3)):
            outs = [run_cli(["efp", "--size", str(n), "--r", str(r),
                             "--s", str(s), "--weights", "3/2", "2", "5/3",
                             "--method", m], capsys) for m in ("enum", "sum")]
            assert [c for c, _ in outs] == [0, 0]
            assert json.loads(outs[0][1])["F"] == json.loads(outs[1][1])["F"]
        for cmd in (["efp", "--size", "8", "--r", "4", "--s", "2"],
                    ["zn", "--size", "8"]):
            capsys.readouterr()
            code = main(cmd + ["--weights", "1", "1", "1", "--method", "enum"])
            assert code == 1
            assert json.loads(capsys.readouterr().err)["error"] == "SizeLimit"

    def test_verify(self, capsys):
        code, out = run_cli(["verify", "--suite", "cantini", "--trials", "5",
                             "--seed", "42"], capsys)
        assert code == 0
        assert json.loads(out)["failures"] == 0

    def test_hrow(self, capsys):
        code, out = run_cli(["hrow", "--size", "3", "--positions", "2",
                             "--weights", "1", "1", "1"], capsys)
        assert json.loads(out)["H"] == "3/7"
        # the empty lattice on both backends
        for method in ("transfer", "enum"):
            code, out = run_cli(["hrow", "--size", "0", "--positions", "",
                                 "--method", method, "--weights", "1", "1",
                                 "1"], capsys)
            assert code == 0
            assert json.loads(out)["H"] == "1"

    def test_boundary(self, capsys):
        code, out = run_cli(["boundary", "--size", "3",
                             "--weights", "1", "1", "1"], capsys)
        assert json.loads(out)["h_coeffs"] == ["2/7", "3/7", "2/7"]

    def test_psi_methods_agree(self, capsys):
        base = ["psi", "--size", "4", "--which", "top", "--positions", "2,4",
                "--weights", "1", "2", "2"]
        vals = set()
        for method in ("oracle", "enum", "mir-new", "mir-coordinate",
                       "dual", "mir-origin"):
            code, out = run_cli(base + ["--method", method], capsys)
            assert code == 0
            vals.add(json.loads(out)["psi"])
        assert len(vals) == 1

    def test_psi_bottom_methods_agree(self, capsys):
        base = ["psi", "--size", "3", "--which", "bottom",
                "--positions", "1,3", "--weights", "1", "2", "2"]
        vals = set()
        for method in ("oracle", "enum", "mir", "dual"):
            code, out = run_cli(base + ["--method", method], capsys)
            assert code == 0
            vals.add(json.loads(out)["psi"])
        assert len(vals) == 1

    def test_trace(self, capsys):
        code, out = run_cli(["trace-efp", "--size", "3", "--r", "2", "--s",
                             "1", "--weights", "1", "1", "1"], capsys)
        data = json.loads(out)
        assert data["chain_breaks"] == 0
        assert all(step["value"] == "5/7" for step in data["steps"])

    def test_rational_weights(self, capsys):
        code, out = run_cli(["zn", "--size", "2", "--weights", "1/2", "3/4",
                             "5/6"], capsys)
        assert code == 0
        assert json.loads(out)["Z"] == "325/576"

    def test_inhomogeneous_ik(self, capsys):
        code, out = run_cli(["zn", "--size", "2", "--lambdas", "0.3", "0.7",
                             "--nus", "0.1", "0.2", "--eta", "0.4",
                             "--method", "ik"], capsys)
        assert code == 0
        code2, out2 = run_cli(["zn", "--size", "2", "--lambdas", "0.3", "0.7",
                               "--nus", "0.1", "0.2", "--eta", "0.4",
                               "--method", "enum"], capsys)
        z1 = float(json.loads(out)["Z"])
        z2 = float(json.loads(out2)["Z"])
        assert abs(z1 - z2) <= 1e-9 * max(1, abs(z1))


class TestContracts:
    def test_verify_all_suites(self, capsys):
        code, out = run_cli(["verify", "--suite", "all", "--trials", "2",
                             "--seed", "5"], capsys)
        assert code == 0
        data = json.loads(out)
        assert data["failures"] == 0
        assert set(data["suites"]) == {"kmst", "cantini", "psxx", "whom",
                                       "bigid", "c4", "tangent", "hierarchy",
                                       "crossing", "claim"}

    def test_verify_all_csv_row(self, capsys):
        # the `all` row carries the invocation's trials and seed and the
        # worst residual of its suites
        args = ["verify", "--suite", "all", "--trials", "1", "--seed", "5"]
        _, out = run_cli(args, capsys)
        report = json.loads(out)
        _, out = run_cli(args + ["--format", "csv"], capsys)
        worst = max(sub["max_residual"] for sub in report["suites"].values())
        assert out.splitlines() == [
            "suite,trials,seed,failures,max_residual",
            f"all,1,5,{report['failures']},{worst}"]

    def test_byte_identical_runs(self, capsys):
        args = ["verify", "--suite", "kmst", "--trials", "4", "--seed", "11"]
        _, out1 = run_cli(args, capsys)
        _, out2 = run_cli(args, capsys)
        assert out1 == out2

    def test_csv_format(self, capsys):
        code, out = run_cli(["zn", "--size", "3", "--weights", "1", "1", "1",
                             "--format", "csv"], capsys)
        lines = out.strip().splitlines()
        assert lines[0] == "N,method,Z"
        assert lines[1] == "3,auto,7"

    def test_csv_keeps_lists(self, capsys):
        # `boundary` writes one N,k,h_k row per coefficient; a position
        # list is one quoted field (RFC 4180), so no column is lost
        w = ["--weights", "1", "1", "1"]
        _, out = run_cli(["boundary", "--size", "4"] + w, capsys)
        coeffs = json.loads(out)["h_coeffs"]
        _, out = run_cli(["boundary", "--size", "4", "--format", "csv"] + w,
                         capsys)
        assert out.splitlines() == ["N,k,h_k"] + [
            f"4,{k},{h}" for k, h in enumerate(coeffs)]
        for args in (["hrow", "--size", "4", "--positions", "1,3"],
                     ["psi", "--size", "4", "--which", "top", "--positions",
                      "2,4", "--method", "dual"]):
            _, out = run_cli(args + w, capsys)
            record = json.loads(out)
            _, out = run_cli(args + w + ["--format", "csv"], capsys)
            rows = list(csv.reader(io.StringIO(out)))
            assert rows[0] == list(record)
            positions = ",".join(map(str, record["positions"]))
            assert rows[1] == [positions if k == "positions" else str(v)
                               for k, v in record.items()]

    def test_computation_error_exit_code(self, capsys, monkeypatch):
        code = main(["zn", "--size", "99", "--weights", "1", "1", "1"])
        assert code == 1
        # c = sin 2eta = 0 sits on a pole of the ortho prefactor: a JSON
        # error record, not a ZeroDivisionError traceback
        capsys.readouterr()
        code = main(["psi", "--size", "3", "--which", "top", "--positions",
                     "1", "--method", "ortho", "--lambda", "0.9",
                     "--eta", "0"])
        err = capsys.readouterr().err
        assert code == 1
        assert json.loads(err)["error"] == "Singular"
        # lam + eta and lam - eta round to the same float: phi would be
        # exactly 0, so the Hankel route refuses rather than print Z = 0
        code = main(["zn", "--size", "3", "--method", "ik", "--lambda",
                     "1e17", "--eta", "0.3"])
        err = capsys.readouterr().err
        assert code == 1
        assert json.loads(err)["error"] == "NearDegenerate"
        # a zero b weight, which the IK determinant and the sum's phi
        # matrix would divide by
        for args in (["zn", "--size", "4", "--method", "ik"],
                     ["psi", "--size", "4", "--which", "bottom",
                      "--positions", "1,3", "--method", "sum"]):
            code = main(args + _ZERO_B)
            err = capsys.readouterr().err
            assert code == 1
            assert "Traceback" not in err
            record = json.loads(err)
            assert record["error"] == "Singular"
            assert "b = 0 at site (alpha, k) = (2, 4)" in record["message"]
        # past the float range: at N = 13 and N = 19 (ab)^(N^2) / prod
        # k!^2 underflows to 0 (at N = 19 the Hankel determinant
        # overflows too), at N = 25 the product of the a and b weights
        # underflows to 0 (|Z| is about 1e-84), and at N = 30 the
        # product of the d-factors does; a record, not Z = 0, nan or a
        # ZeroDivisionError traceback
        lams = [repr(0.2 + 0.05 * k) for k in range(30)]
        nus = [repr(-0.6 + 0.04 * k) for k in range(30)]
        lams25 = ("0.22 0.24 0.25 0.303 0.325 0.598 0.632 0.882 0.895 0.958 "
                  "0.981 1.006 1.258 1.259 1.473 1.75 1.85 1.863 1.933 2.001 "
                  "2.059 2.245 2.272 2.301 2.345").split()
        nus25 = ("-0.556 -0.542 -0.506 -0.491 -0.47 -0.421 -0.406 -0.387 "
                 "-0.225 -0.22 -0.192 -0.191 0.03 0.054 0.133 0.227 0.298 "
                 "0.331 0.357 0.432 0.502 0.509 0.535 0.584 0.596").split()
        for args in (["zn", "--size", "13", "--method", "ik", "--lambda",
                      "0.35", "--eta", "0.3"],
                     ["zn", "--size", "19", "--method", "ik", "--lambda",
                      "0.9", "--eta", "0.3"],
                     ["zn", "--size", "25", "--method", "ik", "--eta",
                      "0.413", "--lambdas"] + lams25 + ["--nus"] + nus25,
                     ["zn", "--size", "30", "--method", "ik", "--lambdas"]
                     + lams + ["--nus"] + nus + ["--eta", "0.4"]):
            capsys.readouterr()
            code = main(args)
            captured = capsys.readouterr()
            assert code == 1
            assert captured.out == ""
            record = json.loads(captured.err)
            assert record["error"] == "SizeLimit"
            assert "float range" in record["message"]
        # h_N needs a first row; no size cap is to blame, so the error
        # names none, whatever DWBC_MAX_N says
        for max_n in (None, "20"):
            if max_n is None:
                monkeypatch.delenv("DWBC_MAX_N", raising=False)
            else:
                monkeypatch.setenv("DWBC_MAX_N", max_n)
            capsys.readouterr()
            code = main(["boundary", "--size", "0", "--weights", "1", "1",
                         "1"])
            record = json.loads(capsys.readouterr().err)
            assert code == 1
            assert record["error"] == "InvalidRegion"
            assert "DWBC_MAX_N" not in record["message"]

    def test_coincident_lambdas(self, capsys):
        # the lattice and the coordinate wavefunction are defined at
        # equal lambdas; the routes that divide by d(l_i, l_j) refuse
        # them
        params = ["--lambdas", "0.7", "0.7", "0.7", "--nus", "0.05", "0.31",
                  "0.6", "--eta", "0.35"]
        psi = ["psi", "--size", "3", "--which", "top", "--positions", "1,3"]
        values = []
        for method in ("coordinate", "oracle", "enum"):
            code, out = run_cli(psi + ["--method", method] + params, capsys)
            assert code == 0
            values.append(complex(json.loads(out)["psi"]))
        assert all(abs(v - values[1]) <= 1e-12 for v in values)
        for args in (["zn", "--size", "3", "--method", "ik"],
                     psi + ["--method", "sum"], psi + ["--method", "sum-dual"]):
            code = main(args + params)
            assert code == 1
            assert json.loads(capsys.readouterr().err)["error"] \
                == "NearDegenerate"

    def test_ortho_refusals_name_the_given_lambda(self, capsys):
        # psi_top is psi_bot at pi - lam, but a refusal names the lam the
        # user gave; at lam = eta the bottom route refuses with a record
        # before its prefactor divides by b = sin(lam - eta) = 0
        for which in ("top", "bottom"):
            code = main(["psi", "--size", "3", "--which", which,
                         "--positions", "1", "--method", "ortho",
                         "--lambda", "1e300", "--eta", "0.3"])
            record = json.loads(capsys.readouterr().err)
            assert code == 1
            assert record["error"] == "DegenerateHankel"
            assert record["message"].startswith(
                "lam = 1e+300 swamps eta = 0.3:"), record
            code = main(["psi", "--size", "3", "--which", which,
                         "--positions", "1", "--method", "ortho",
                         "--lambda", "0.3", "--eta", "0.3"])
            assert code == 1
            assert json.loads(capsys.readouterr().err)["error"] == "Singular"

    def test_empty_lattice(self, capsys):
        # s = 0 is the empty top lattice: psi_top = 1 by every route, the
        # sum's determinant of the empty matrix included
        for method in ("sum", "sum-dual", "oracle"):
            code, out = run_cli(["psi", "--size", "3", "--which", "top",
                                 "--positions", "", "--method", method,
                                 "--lambdas", "0.3", "0.8", "1.2", "--nus",
                                 "0.1", "0.25", "0.42", "--eta", "0.35"],
                                capsys)
            assert code == 0
            assert abs(complex(json.loads(out)["psi"]) - 1) <= 1e-12

    def test_usage_error_exit_code(self, capsys, monkeypatch):
        with pytest.raises(SystemExit) as exc:
            main(["zn", "--size", "3"])
        assert exc.value.code == 2
        # malformed values: exit 2 with a usage message, never a traceback
        malformed = [
            (["zn", "--size", "4", "--weights", "1", "0", "1"], None),
            (["zn", "--size", "4", "--weights", "1", "1/0", "1"], None),
            (["hrow", "--size", "4", "--positions", "1,a",
              "--weights", "1", "1", "1"], None),
            (["zn", "--size", "3", "--weights", "1", "1", "1"], "abc"),
            (["psi", "--size", "3", "--which", "bottom", "--positions",
              "1,3", "--lambdas", "0.3", "0.8", "1.2", "--eta", "0.35",
              "--method", "sum"], None),
            (["zn", "--size", "3", "--lambdas", "0.3", "0.8", "1.2",
              "--nus", "0.1", "0.25", "--eta", "0.35"], None),
            (["zn", "--size", "4", "--lambdas", "0.3", "0.8", "1.2",
              "--nus", "0.1", "0.25", "0.4", "--eta", "0.35"], None),
            (["zn", "--size", "-2", "--lambda", "0.9", "--eta", "0.3",
              "--method", "ik"], None),
            (["boundary", "--size", "3", "--lambdas", "0.3", "0.8", "1.2",
              "--nus", "0.1", "0.25", "0.42", "--eta", "0.35"], None),
            (["verify", "--suite", "cantini", "--trials", "-3"], None),
            # trigonometric parameters must be finite, 4x included
            (["zn", "--size", "3", "--method", "ik", "--lambda", "0.9",
              "--eta", "inf"], None),
            (["zn", "--size", "3", "--method", "ik", "--lambda", "inf",
              "--eta", "0.3"], None),
            (["zn", "--size", "3", "--method", "ik", "--lambda", "0.9",
              "--eta", "1e308"], None),
            (["zn", "--size", "3", "--method", "ik", "--lambdas", "0.3",
              "inf", "1.2", "--nus", "0", "0.1", "0.2", "--eta", "0.3"],
             None),
            (["psi", "--size", "3", "--which", "top", "--positions", "1",
              "--method", "ortho", "--lambda", "0.9", "--eta", "inf"], None),
            (["zn", "--size", "3", "--method", "ik", "--lambda", "nan",
              "--eta", "0.3"], None),
        ]
        for args, max_n in malformed:
            capsys.readouterr()
            if max_n is None:
                monkeypatch.delenv("DWBC_MAX_N", raising=False)
            else:
                monkeypatch.setenv("DWBC_MAX_N", max_n)
            with pytest.raises(SystemExit) as exc:
                main(args)
            err = capsys.readouterr().err
            assert exc.value.code == 2, args
            assert "Traceback" not in err and err.strip(), args

    def test_console_script(self):
        # the child imports the same dwbc as this process
        root = os.path.dirname(os.path.dirname(dwbc.__file__))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (root, env.get("PYTHONPATH")) if p)
        proc = subprocess.run(
            [sys.executable, "-m", "dwbc.cli", "zn", "--size", "1",
             "--weights", "2", "3", "7"],
            capture_output=True, text=True, env=env)
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["Z"] == "7"


# Imports every dwbc module and runs each invocation through `main` in
# one child process; prints {"numpy": whether numpy got loaded, "runs":
# [[exit, stdout], ...]}.
_CHILD = textwrap.dedent("""
    import contextlib, io, json, sys
    import dwbc
    from dwbc import (bethe_reps, cli, efp_reps, elimination, errors,
                      exact_core, hankel_orthopoly, identity_suite,
                      ik_engine, lattice_oracle)
    runs = []
    for args in json.loads(sys.argv[1]):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(args)
        runs.append([code, buf.getvalue()])
    print(json.dumps({"numpy": "numpy" in sys.modules, "runs": runs}))
""")

_W = ["--weights", "3/2", "2", "5/3"]
_EXACT_INVOCATIONS = [
    ["zn", "--size", "4", "--method", "transfer"] + _W,
    ["zn", "--size", "3", "--method", "enum"] + _W,
    ["zn", "--size", "4"] + _W,
    ["hrow", "--size", "4", "--positions", "1,3"] + _W,
    ["boundary", "--size", "4"] + _W,
    ["efp", "--size", "3", "--r", "2", "--s", "1", "--method", "sum"] + _W,
    ["efp", "--size", "3", "--r", "2", "--s", "1", "--method", "mir-s"] + _W,
    ["efp", "--size", "3", "--r", "2", "--s", "1", "--method", "mir-n"] + _W,
    ["efp", "--size", "3", "--r", "2", "--s", "1", "--method", "enum"] + _W,
    ["psi", "--size", "4", "--which", "top", "--positions", "2,4",
     "--method", "oracle"] + _W,
    ["psi", "--size", "3", "--which", "bottom", "--positions", "1,3",
     "--method", "mir"] + _W,
    ["psi", "--size", "4", "--which", "top", "--positions", "2,4",
     "--method", "mir-new"] + _W,
    ["psi", "--size", "4", "--which", "top", "--positions", "2,4",
     "--method", "mir-origin"] + _W,
    ["psi", "--size", "3", "--which", "bottom", "--positions", "1,3",
     "--method", "dual"] + _W,
    ["trace-efp", "--size", "3", "--r", "2", "--s", "1"] + _W,
    ["verify", "--suite", "cantini", "--trials", "3", "--seed", "42"],
]

# the float determinants and solves: IK, Hankel, sums, and a suite
_NUMERIC_INVOCATIONS = [
    ["zn", "--size", "3", "--method", "ik", "--lambda", "0.9",
     "--eta", "0.3"],
    ["psi", "--size", "3", "--which", "top", "--positions", "1",
     "--method", "ortho", "--lambda", "0.9", "--eta", "0.3"],
    ["verify", "--suite", "kmst", "--trials", "2"],
    ["psi", "--size", "3", "--which", "top", "--positions", "1",
     "--method", "sum-dual", "--lambdas", "0.3", "0.8", "1.2", "--nus",
     "0.1", "0.25", "0.42", "--eta", "0.35"],
]


def _stub_numpy(tmp_path):
    """A `numpy` package under tmp_path whose import fails, and the
    package root of dwbc, for a child's PYTHONPATH."""
    stub = tmp_path / "numpy"
    stub.mkdir()
    (stub / "__init__.py").write_text(
        "raise ImportError('numpy is stubbed out')\n")
    return str(tmp_path), os.path.dirname(os.path.dirname(dwbc.__file__))


class TestNumpyFree:
    def test_exact_paths_never_load_numpy(self, tmp_path):
        # a `numpy` whose import fails shadows the real one: every
        # subcommand, exact or numeric, must run as well and print the
        # same bytes
        stub, root = _stub_numpy(tmp_path)
        env = {k: v for k, v in os.environ.items() if k != "DWBC_MAX_N"}
        invocations = _EXACT_INVOCATIONS + _NUMERIC_INVOCATIONS
        results = []
        for path in ([stub, root], [root]):
            env["PYTHONPATH"] = os.pathsep.join(path)
            proc = subprocess.run(
                [sys.executable, "-c", _CHILD, json.dumps(invocations)],
                capture_output=True, text=True, env=env, timeout=60)
            assert proc.returncode == 0, proc.stderr
            results.append(json.loads(proc.stdout))
        stubbed, plain = results
        # without the stub numpy is importable, yet nothing imports it
        assert not plain["numpy"]
        assert [code for code, _ in stubbed["runs"]] == [0] * len(invocations)
        assert stubbed["runs"] == plain["runs"]

    @pytest.mark.parametrize("args", _NUMERIC_INVOCATIONS)
    def test_numeric_routes_without_numpy(self, tmp_path, args):
        # a numeric route needs no numpy: under the stub it exits 0 and
        # prints byte for byte what it prints with numpy importable
        stub, root = _stub_numpy(tmp_path)
        env = {k: v for k, v in os.environ.items() if k != "DWBC_MAX_N"}
        outs = []
        for path in ([stub, root], [root]):
            env["PYTHONPATH"] = os.pathsep.join(path)
            proc = subprocess.run([sys.executable, "-m", "dwbc.cli", *args],
                                  capture_output=True, text=True, env=env,
                                  timeout=60)
            assert proc.returncode == 0, proc.stderr
            assert proc.stderr == ""
            outs.append(proc.stdout)
        assert outs[0] == outs[1] != ""


# Runs one invocation through `main` in a fresh child process; prints
# {"code": exit code, "modules": every module loaded by then}.
_BUDGET_CHILD = textwrap.dedent("""
    import contextlib, io, json, sys
    from dwbc import cli
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(json.loads(sys.argv[1]))
    print(json.dumps({"code": code, "modules": sorted(sys.modules)}))
""")

_ORACLE = {"dwbc.exact_core"}
_REPS = {"dwbc.bethe_reps", "dwbc.efp_reps"}
_ORTHO = ["--lambda", "0.9", "--eta", "0.3"]
_INHOM = ["--lambdas", "0.3", "0.9", "1.4", "2.0",
          "--nus", "-0.3", "0.0", "0.2", "0.45", "--eta", "0.4"]
_ENGINE = {"dwbc.exact_core", "dwbc.ik_engine", "dwbc.elimination"}
# the float IK determinants and psi sums of dwbc.ik_numeric
_NUMERIC = {"dwbc.exact_core", "dwbc.ik_engine", "dwbc.bethe_reps",
            "dwbc.efp_reps", "dwbc.hankel_orthopoly"}
_INHOM3 = ["--lambdas", "0.3", "0.8", "1.2", "--nus", "0.1", "0.25", "0.42",
           "--eta", "0.35"]

# (invocation, the dwbc modules it must not load); no invocation loads
# the standard library's class generator or what it imports
_NEVER = {"dataclasses", "inspect"}
_IMPORT_BUDGET = [
    # the lattice-oracle subcommands take their rationals from
    # dwbc.rational: the exact engine is never imported
    (["zn", "--size", "6", "--method", "transfer"] + _W, _ORACLE),
    (["hrow", "--size", "5", "--positions", "1,3"] + _W, _ORACLE),
    (["boundary", "--size", "5"] + _W, _ORACLE),
    (["psi", "--size", "5", "--which", "top", "--positions", "2,4",
      "--method", "oracle"] + _W, _ORACLE),
    (["efp", "--size", "5", "--r", "3", "--s", "2", "--method", "enum"] + _W,
     _ORACLE),
    (["efp", "--size", "5", "--r", "4", "--s", "2", "--method", "sum",
      "--route", "efpn"] + _W, _ORACLE),
    # given trigonometric parameters they take the weights from
    # dwbc.trig, and still load no part of the exact engine
    (["zn", "--size", "6", "--method", "transfer"] + _ORTHO, _ENGINE),
    (["hrow", "--size", "5", "--positions", "1,3"] + _ORTHO, _ENGINE),
    (["boundary", "--size", "5"] + _ORTHO, _ENGINE),
    (["psi", "--size", "5", "--which", "top", "--positions", "2,4",
      "--method", "oracle"] + _ORTHO, _ENGINE),
    (["hrow", "--size", "4", "--positions", "1,3"] + _INHOM, _ENGINE),
    (["psi", "--size", "4", "--which", "top", "--positions", "2,4",
      "--method", "enum"] + _INHOM, _ENGINE),
    # the float IK determinants and psi sums load no part of the exact
    # engine and no route module
    (["zn", "--size", "3", "--method", "ik"] + _ORTHO, _NUMERIC),
    (["zn", "--size", "3", "--method", "ik"] + _INHOM3, _NUMERIC),
    (["psi", "--size", "3", "--which", "bottom", "--positions", "1,3",
      "--method", "sum"] + _INHOM3, _NUMERIC),
    (["psi", "--size", "3", "--which", "top", "--positions", "1,3",
      "--method", "sum"] + _INHOM3, _NUMERIC),
    (["psi", "--size", "3", "--which", "top", "--positions", "1",
      "--method", "sum-dual"] + _INHOM3, _NUMERIC),
    (["psi", "--size", "3", "--which", "top", "--positions", "1",
      "--method", "coordinate"] + _INHOM3, _NUMERIC),
    # the psi residue routes live in bethe_reps alone
    (["psi", "--size", "4", "--which", "bottom", "--positions", "1,3",
      "--method", "mir"] + _W, {"dwbc.efp_reps", "dwbc.ik_numeric"}),
    (["psi", "--size", "4", "--which", "top", "--positions", "2,4",
      "--method", "mir-new"] + _W, {"dwbc.efp_reps", "dwbc.ik_numeric"}),
    (["psi", "--size", "4", "--which", "top", "--positions", "2,4",
      "--method", "dual"] + _W, {"dwbc.efp_reps", "dwbc.ik_numeric"}),
    # the Hankel routes need neither residue-route module, nor the
    # h_M family of ik_engine
    (["efp", "--size", "4", "--r", "3", "--s", "2", "--method", "ortho"]
     + _ORTHO, _REPS | {"dwbc.ik_engine"}),
    (["psi", "--size", "4", "--which", "top", "--positions", "2",
      "--method", "ortho"] + _ORTHO, _REPS | {"dwbc.ik_engine"}),
    (["psi", "--size", "4", "--which", "bottom", "--positions", "2",
      "--method", "ortho"] + _ORTHO, _REPS | {"dwbc.ik_engine"}),
    # the rational identity suites need no route module
    (["verify", "--suite", "cantini", "--trials", "3", "--seed", "42"],
     _REPS | {"dwbc.hankel_orthopoly"}),
    (["verify", "--suite", "psxx", "--trials", "3", "--seed", "42"],
     _REPS | {"dwbc.hankel_orthopoly"}),
    (["verify", "--suite", "whom", "--trials", "3", "--seed", "42"],
     _REPS | {"dwbc.hankel_orthopoly"}),
    # the EFP routes and their trace need efp_reps and nothing of
    # bethe_reps, nor any float route; the hierarchy suite loads
    # ik_numeric with identity_suite
    (["psi", "--size", "4", "--which", "top", "--positions", "2,4",
      "--method", "mir-origin"] + _W, {"dwbc.bethe_reps", "dwbc.ik_numeric"}),
    (["efp", "--size", "4", "--r", "3", "--s", "2", "--method", "mir-s"]
     + _W, {"dwbc.bethe_reps", "dwbc.ik_numeric"}),
    (["efp", "--size", "4", "--r", "3", "--s", "2", "--method", "mir-n"]
     + _W, {"dwbc.bethe_reps", "dwbc.ik_numeric"}),
    (["trace-efp", "--size", "3", "--r", "2", "--s", "1"] + _W,
     {"dwbc.bethe_reps", "dwbc.ik_numeric"}),
    (["verify", "--suite", "hierarchy", "--trials", "1", "--seed", "1"],
     {"dwbc.bethe_reps"}),
    # the rest loads what it runs, and only _NEVER is excluded
    (["verify", "--suite", "all", "--trials", "1", "--seed", "1"], set()),
]


def _budget_ids(budget):
    """The subcommand and the values that pick its route, and the weight
    flag of a row whose route an earlier row already names."""
    ids = []
    for args, _ in budget:
        name = " ".join([args[0]] + [args[args.index(flag) + 1]
                                     for flag in ("--which", "--method",
                                                  "--suite")
                                     if flag in args])
        if name in ids:
            name += " " + next(flag for flag in ("--weights", "--lambda",
                                                 "--lambdas")
                               if flag in args)
        ids.append(name)
    return ids


class TestImportBudget:
    @pytest.mark.parametrize("args, banned", _IMPORT_BUDGET,
                             ids=_budget_ids(_IMPORT_BUDGET))
    def test_loads_only_what_it_runs(self, args, banned):
        # one interpreter per invocation: what it loads is its own
        env = {k: v for k, v in os.environ.items() if k != "DWBC_MAX_N"}
        env["PYTHONPATH"] = os.path.dirname(os.path.dirname(dwbc.__file__))
        proc = subprocess.run(
            [sys.executable, "-c", _BUDGET_CHILD, json.dumps(args)],
            capture_output=True, text=True, env=env, timeout=60)
        assert proc.returncode == 0, proc.stderr
        record = json.loads(proc.stdout)
        assert record["code"] == 0
        assert not (_NEVER | banned) & set(record["modules"])


# Binary fractions: l - nu + eta and l - nu - eta are exact in floats,
# so the draws hit the exact zeros of the a and b weights
_EIGHTHS = st.sampled_from([k / 8 for k in range(-4, 13)])
_METHODS = {
    "zn": ["auto", "enum", "transfer", "ik"],
    "hrow": ["transfer", "enum"],
    "efp": ["enum", "sum", "mir-s", "mir-n", "ortho"],
    "boundary": [None],
    "psi": ["oracle", "enum", "mir", "mir-new", "mir-coordinate",
            "mir-origin", "dual", "sum", "sum-dual", "coordinate", "ortho"],
    "trace-efp": [None],
}
_SUITES = ["kmst", "cantini", "psxx", "whom", "bigid", "c4", "tangent",
           "hierarchy", "crossing", "claim", "all"]


@st.composite
def _invocations(draw):
    """A `dwbc` argv: a subcommand, one of its methods, small sizes and
    positions (some out of range), and exact, homogeneous or
    inhomogeneous weights (some malformed)."""
    cmd = draw(st.sampled_from(sorted(_METHODS) + ["verify"]))
    if cmd == "verify":
        return ["verify", "--suite", draw(st.sampled_from(_SUITES)),
                "--trials", str(draw(st.integers(0, 2))),
                "--seed", str(draw(st.integers(0, 99)))]
    n = draw(st.integers(-1, 5))
    args = [cmd, "--size", str(n)]
    method = draw(st.sampled_from(_METHODS[cmd]))
    if method is not None:
        args += ["--method", method]
    if cmd == "psi":
        args += ["--which", draw(st.sampled_from(["top", "bottom"]))]
    if cmd in ("hrow", "psi"):
        pos = draw(st.lists(st.integers(0, n + 1), max_size=max(n, 0) + 1))
        args += ["--positions", ",".join(map(str, pos))]
    if cmd in ("efp", "trace-efp"):
        args += ["--r", str(draw(st.integers(0, n + 1))),
                 "--s", str(draw(st.integers(0, n + 1)))]
    if cmd == "efp" and draw(st.booleans()):
        args += ["--route", draw(st.sampled_from(["efp", "efpn"]))]
    mode = draw(st.sampled_from(["exact", "hom", "inhom"]))
    if mode == "exact":
        args += ["--weights"] + draw(st.lists(
            st.sampled_from(["1", "2", "3/2", "5/3", "0", "-1"]),
            min_size=3, max_size=3))
    elif mode == "hom":
        args += ["--lambda", repr(draw(_EIGHTHS)),
                 "--eta", repr(draw(_EIGHTHS))]
    else:
        # mostly --size values per list, sometimes one too many
        m = draw(st.sampled_from([max(n, 1), max(n, 1), n + 1]))
        for flag in ("--lambdas", "--nus"):
            args += [flag] + [repr(x) for x in draw(
                st.lists(_EIGHTHS, min_size=m, max_size=m))]
        args += ["--eta", repr(draw(_EIGHTHS))]
    if draw(st.booleans()):
        args += ["--format", "csv"]
    return args


class TestFuzz:
    @given(_invocations())
    @example(["zn", "--size", "4", "--method", "ik"] + _ZERO_B)
    @example(["psi", "--size", "4", "--which", "bottom", "--positions",
              "1,3", "--method", "sum"] + _ZERO_B)
    # a = sin(0.25 - 0.5 + 0.25) = 0 at site (1, 1), which the
    # coordinate sum divides by
    @example(["psi", "--size", "3", "--which", "top", "--positions", "2,3",
              "--method", "coordinate", "--lambdas", "0.25", "0.5", "1.0",
              "--nus", "0.5", "0.75", "0.125", "--eta", "0.25"])
    # e = sin(l_i - l_j + 2 eta) = 0 for a lambda pair of the dual sum
    @example(["psi", "--size", "3", "--which", "top", "--positions", "",
              "--method", "sum-dual", "--lambdas", "-0.5", "-0.375", "-0.25",
              "--nus", "-0.5", "-0.375", "-0.25", "--eta", "-0.125"])
    # c = 0 at eta = 0: Z_1 = c = 0, so h_1 is 0/0
    @example(["boundary", "--size", "1", "--lambda", "-0.5", "--eta", "0.0"])
    # the empty lattice has no Hankel family, and psi = 1
    @example(["psi", "--size", "0", "--which", "top", "--positions", "",
              "--method", "ortho", "--lambda", "-0.5", "--eta", "-0.375"])
    @settings(max_examples=300, deadline=None)
    def test_every_invocation_exits_cleanly(self, args):
        # exit 0, 1 with one JSON error record, or 2 with a usage
        # message; any other exception escapes main and fails the test.
        # 300 examples take about 2 s of a 5 s budget
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(args)
            except SystemExit as exc:
                code = exc.code
        err = err.getvalue()
        assert code in (0, 1, 2), args
        assert "Traceback" not in err, args
        if code == 1:
            assert set(json.loads(err)) == {"error", "message"}, args
