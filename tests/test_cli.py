import json
import os
import subprocess
import sys

import pytest

import dwbc
from dwbc.cli import main


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr().out
    return code, out


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

    def test_computation_error_exit_code(self, capsys):
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
