"""Benchmark of the exact DWBC engine, end to end and layer by layer.

    python3 perfbench/run.py --workload W --seed N --seconds T --trace 0|1

Run from the root of a checkout; the `dwbc` sources are taken from its
`src/`.  Workloads (see workloads.py and BENCHMARK.json for why each
exists): oracle-fresh, residue-routes, efp-session, cli-batch.  Load is
a closed loop with one client: every query runs after the previous one
has returned, in one worker process (cli-batch: one `dwbc` subprocess at
a time).  No threads.

--trace 0 prints the end-to-end metrics: queries_per_s, latency_p50_s,
latency_p90_s (with the sample count), peak_rss_mb and setup_s, the
median time from a fresh interpreter until the workload's modules are
imported.  Times are rescaled to a reference host speed by a
calibration probe timed next to every measurement (speed.py); the
unscaled figures are printed in the stamp line.  --trace 1 runs the workload traced, replays the same rounds
untraced to measure the tracing overhead, and prints the per-layer
metrics, normalised per query.  Every answer is checked against an
independent reference; the last line of stdout is one JSON record.
"""

import argparse
import hashlib
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_build", "perfbench")
sys.path.insert(0, HERE)

import speed  # noqa: E402
from workloads import SETUP_MODULES, WORKLOADS  # noqa: E402

SETUP_REPEATS = 7
DEADLINE_S = 170.0

BETHE_ROUTES = ("psi_bot_mir", "psi_top_mir_new", "psi_top_mir_coordinate",
                "psi_dual_mirs", "psi_top_mir_dual", "psi_bot_mir_dual")
EFP_ROUTES = ("efp_mir_s", "efp_mir_n", "efp_double_contour_trace",
              "efp_by_summation")
IK_NUMERIC = ("ik_determinant", "ik_homogeneous", "phi_derivatives",
              "partially_inhomogeneous_Z", "family_numeric", "cantini_W_value")


class RunError(Exception):
    pass


def spawn(cmd, deadline, env=None):
    """Run a child in its own process group; kill the group on timeout."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise RunError("out of time")
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, env=env, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RunError(f"timed out: {' '.join(cmd[:4])}")
    return proc.returncode, out, err


def median_spawn_seconds(cmd, deadline, env=None):
    """Median rescaled wall time of SETUP_REPEATS runs of `cmd`, after
    one unmeasured run (so byte-compilation is not counted).  Each run
    is rescaled by the bare-interpreter spawns timed on either side."""
    times = []
    probe = speed.spawn_sample(env)
    for i in range(SETUP_REPEATS + 1):
        t0 = time.perf_counter()
        rc, _, err = spawn(cmd, deadline, env)
        dt = time.perf_counter() - t0
        if rc != 0:
            raise RunError(f"{' '.join(cmd[-3:])} failed: {err[-300:]}")
        before, probe = probe, speed.spawn_sample(env)
        if i:
            times.append(dt * speed.factor([before, probe],
                                           speed.REF_SPAWN_S))
    return statistics.median(times)


def setup_seconds(workload, deadline):
    """Time from a fresh interpreter until the workload's modules are
    imported."""
    code = (f"import sys; sys.path.insert(0, {SRC!r}); import "
            + ", ".join(SETUP_MODULES[workload]))
    return median_spawn_seconds([sys.executable, "-c", code], deadline)


def cli_startup_seconds(deadline):
    """Time of a trivial `dwbc` invocation (one that loads only the
    lattice oracle)."""
    env = dict(os.environ, PYTHONPATH=SRC)
    env.pop("DWBC_MAX_N", None)
    cmd = [sys.executable, "-m", "dwbc.cli", "hrow", "--size", "1",
           "--positions", "1", "--weights", "1", "1", "1"]
    return median_spawn_seconds(cmd, deadline, env)


def run_worker(args, deadline, rounds=None, trace_dir=None):
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds)]
    if rounds is not None:
        cmd += ["--rounds", str(rounds)]
    if trace_dir is not None:
        cmd += ["--trace-dir", trace_dir]
    rc, out, err = spawn(cmd, deadline)
    sys.stderr.write(err)
    if rc != 0 or not out.strip():
        raise RunError(f"worker exited with {rc}")
    return json.loads(out.strip().splitlines()[-1])


def percentile(values, q):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def git_revision():
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
    except OSError:
        return "unknown"
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    try:
        with open(os.path.join(git, ref)) as fh:
            return fh.read().strip()
    except OSError:
        pass
    try:
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def source_digest():
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "dwbc")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()[:16]


def numpy_version():
    try:
        from importlib.metadata import version
        return version("numpy")
    except Exception:  # metadata missing: report, do not fail the run
        return "unknown"


def layer_metrics(layers, queries, scale):
    """Per-query layer metrics; self times are rescaled by `scale`, the
    traced run's speed factor."""
    calls, self_s, counts = layers["calls"], layers["self_s"], layers["counts"]

    def per(x):
        return x / queries

    def self_of(*names):
        return scale * sum(self_s.get(n, 0.0) for n in names)

    def self_module(module):
        return scale * sum(v for k, v in self_s.items()
                           if k.startswith(module + "."))

    rd = calls.get("exact_core.residue_drive", 0)
    z_calls = calls.get("lattice_oracle.enumerate_Z", 0)
    m = {
        "exact_core.residue_drive.calls": (per(rd), "count/query"),
        "exact_core.residue_drive.retries": (
            per(counts.get("exact_core.residue_drive.towers", 0) - rd),
            "count/query"),
        "exact_core.residue_drive.self_s": (
            per(self_of("exact_core.residue_drive")), "s/query"),
        "exact_core.residue_drive.max_prec": (layers["max_prec"], "count"),
        "exact_core.series_mul.calls": (
            per(counts.get("exact_core.series_mul.calls", 0)), "count/query"),
        "exact_core.series_inverse.calls": (
            per(counts.get("exact_core.series_inverse.calls", 0)),
            "count/query"),
        "exact_core.poly_det.calls": (
            per(calls.get("exact_core.poly_det", 0)), "count/query"),
        "exact_core.poly_det.self_s": (
            per(self_of("exact_core.poly_det")), "s/query"),
        "lattice_oracle.transfer.self_s": (
            per(self_of("lattice_oracle._transfer_bracket")), "s/query"),
        "lattice_oracle.enum.self_s": (
            per(self_of("lattice_oracle.enumerate_region",
                        "lattice_oracle.region_state_weights",
                        "lattice_oracle.row_state_weights")), "s/query"),
        "lattice_oracle.psi.calls": (
            per(calls.get("lattice_oracle.psi_top", 0)
                + calls.get("lattice_oracle.psi_bot", 0)), "count/query"),
        "lattice_oracle.enumerate_Z.calls": (per(z_calls), "count/query"),
        # useful work over attempts; vacuously 1 when Z is never asked for
        "lattice_oracle.enumerate_Z.unique_ratio": (
            layers["z_distinct"] / z_calls if z_calls else 1.0, "ratio"),
        "ik_engine.h_M.calls": (
            per(counts.get("ik_engine.h_M.calls", 0)), "count/query"),
        "ik_engine.hns_poly.calls": (
            per(calls.get("ik_engine.hns_poly", 0)), "count/query"),
        "ik_engine.hns_poly.self_s": (
            per(self_of("ik_engine.hns_poly")), "s/query"),
        "ik_engine.hns_poly.terms": (
            per(counts.get("ik_engine.hns_poly.terms", 0)), "count/query"),
        "ik_engine.family.cache_size": (layers["family_cache_size"], "count"),
        "ik_engine.numeric.self_s": (
            per(self_of(*(f"ik_engine.{n}" for n in IK_NUMERIC))), "s/query"),
    }
    # a route's own code: its body and the integrands it builds
    for route in [f"bethe_reps.{r}" for r in BETHE_ROUTES] + \
            [f"efp_reps.{r}" for r in EFP_ROUTES]:
        m[f"{route}.self_s"] = (per(self_of(route, f"{route}.build")),
                                "s/query")
    m["hankel_orthopoly.self_s"] = (per(self_module("hankel_orthopoly")),
                                    "s/query")
    m["identity_suite.run_suite.self_s"] = (
        per(self_module("identity_suite")), "s/query")
    return m


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(SRC, "dwbc", "__init__.py")):
        print(f"no dwbc sources under {SRC}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    try:
        if args.trace:
            result, stamp = traced(args, deadline)
        else:
            result, stamp = untraced(args, deadline)
    except RunError as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1

    stamp.update({
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "numpy": numpy_version(), "git_revision": git_revision(),
        "source_sha256": source_digest(),
        "failed_ratio": result["failed"] / result["attempted"],
    })
    print(json.dumps({"stamp": stamp}))
    for name, metric in result["metrics"].items():
        print(f"{args.workload} {name} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps(result))
    return 0


def untraced(args, deadline):
    setup = setup_seconds(args.workload, deadline)
    w = run_worker(args, deadline)
    lat = w["latencies"]
    metrics = {
        "queries_per_s": (len(lat) / sum(lat), "1/s"),
        "latency_p50_s": (statistics.median(lat), "s"),
        "latency_p90_s": (percentile(lat, 0.9), "s"),
        "peak_rss_mb": (w["peak_rss_mb"], "MB"),
        "setup_s": (setup, "s"),
    }
    result = {
        "correct": w["failed"] == 0,
        "attempted": w["queries"],
        "failed": w["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    raw = w["raw_latencies"]
    stamp = {"queries": w["queries"], "rounds": w["rounds"],
             "latency_samples": len(lat),
             "speed_factor": w["speed_factor"],
             "unscaled": {"queries_per_s": len(raw) / sum(raw),
                          "latency_p50_s": statistics.median(raw),
                          "latency_p90_s": percentile(raw, 0.9)},
             "malformed_invocations": w["malformed"],
             "malformed_contract_breaches": w["malformed_breaches"]}
    return result, stamp


def traced(args, deadline):
    trace_dir = os.path.join(OUT, f"{args.workload}-seed{args.seed}")
    os.makedirs(trace_dir, exist_ok=True)
    for name in os.listdir(trace_dir):
        os.remove(os.path.join(trace_dir, name))
    t = run_worker(args, deadline, trace_dir=trace_dir)
    # query ids in the span log index this list
    with open(os.path.join(trace_dir, "queries.json"), "w") as fh:
        json.dump({"labels": t["labels"], "latencies": t["latencies"]}, fh)
    # the same rounds again, untraced: the difference is the overhead
    u = run_worker(args, deadline, rounds=t["rounds"])
    overhead = sum(t["latencies"]) / sum(u["latencies"]) - 1.0
    metrics = layer_metrics(t["layers"], t["queries"], t["speed_factor"])
    startup = compute = breach_ratio = 0.0
    if args.workload == "cli-batch":
        startup = cli_startup_seconds(deadline)
        compute = statistics.mean(u["latencies"]) - startup
        breach_ratio = t["malformed_breaches"] / t["malformed"]
    metrics["cli.startup_s"] = (startup, "s")
    metrics["cli.compute_s"] = (compute, "s/query")
    metrics["cli.malformed_breach_ratio"] = (breach_ratio, "ratio")
    metrics["trace.overhead_ratio"] = (overhead, "ratio")
    failed = t["failed"] + u["failed"]
    result = {
        "correct": failed == 0,
        "attempted": t["queries"] + u["queries"],
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u_} for k, (v, u_) in metrics.items()},
    }
    stamp = {"queries": t["queries"], "rounds": t["rounds"],
             "tracing_overhead": overhead,
             "trace_dir": os.path.relpath(trace_dir, ROOT),
             "malformed_invocations": t["malformed"],
             "malformed_contract_breaches": t["malformed_breaches"]}
    return result, stamp


if __name__ == "__main__":
    sys.exit(main())
