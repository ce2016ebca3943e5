"""One measured pass over one workload, in a fresh process.

    python3 perfbench/worker.py --workload W --seed N --seconds T
                                [--rounds R] [--trace-dir DIR]

Imports the workload's modules, then runs rounds of queries one after
another (a closed loop with one client) until T seconds have passed and
at least MIN_SAMPLES queries are done, or exactly R rounds when --rounds
is given.  Each query is timed alone, after a calibration probe (see
speed.py) that rescales its time; its answer is checked after the timed
region.  With --trace-dir the layers are traced and the span log
and layer totals are written there.  Prints one JSON record.
"""

import argparse
import importlib
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import reference as ref  # noqa: E402
import speed  # noqa: E402
import workloads as wl  # noqa: E402

# p90 then has at least ten samples beyond it
MIN_SAMPLES = 100


def measure(workload, seed, seconds, rounds, trace_dir):
    tracer = None
    cli = None
    if workload != "cli-batch":
        for name in wl.SETUP_MODULES[workload]:
            importlib.import_module(name)
    if workload == "cli-batch":
        cli = wl.Cli(ROOT, tracer_out=trace_dir)
    elif trace_dir is not None:
        from tracer import Tracer, install
        tracer = Tracer()
        install(tracer)
    lib = wl.Lib()
    rng = wl.make_rng(workload, seed)
    if cli is not None:
        calibrate, ref_s = cli.calibrate, speed.REF_SPAWN_S
    else:
        calibrate, ref_s = speed.sample, speed.REF_S

    records = []
    cals = []  # (start, probe time) of the probe before each query
    spans = []  # (start, duration) of each query
    done = 0
    clock = time.perf_counter
    start = clock()
    while True:
        for q in wl.round_queries(workload, rng, lib, cli):
            cals.append((clock(), calibrate()))
            if tracer is not None:
                tracer.query = len(records)
            t0 = clock()
            try:
                value, error = q.run(), None
            except Exception as exc:  # a raise is a failed query
                value, error = None, f"{type(exc).__name__}: {exc}"
            records.append((q, clock() - t0, value, error))
            spans.append((t0, records[-1][1]))
        done += 1
        if rounds is not None:
            if done >= rounds:
                break
        elif clock() - start >= seconds and len(records) >= MIN_SAMPLES:
            break

    who = resource.RUSAGE_CHILDREN if cli is not None else resource.RUSAGE_SELF
    peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024.0

    layers = None
    if tracer is not None:
        tracer.query = None
        layers = json.loads(json.dumps(tracer.summary()))
        tracer.write_spans(os.path.join(trace_dir, "spans.jsonl"))
    elif cli is not None and trace_dir is not None:
        from tracer import merge
        parts = []
        for i in range(cli.calls):
            path = os.path.join(trace_dir, f"q{i}.json")
            if os.path.exists(path):
                with open(path) as fh:
                    parts.append(json.load(fh))
        layers = merge(parts)

    failed, breaches, malformed = 0, 0, 0
    for q, _, value, error in records:
        ok = False
        if error is None:
            try:
                ok = q.check(value)
            except Exception as exc:  # a check that raises is a failure
                error = f"check raised {type(exc).__name__}: {exc}"
        if q.label.startswith("malformed"):
            malformed += 1
        if ok == "breach":
            breaches += 1
        elif ok is not True:
            failed += 1
            print(f"FAILED {q.label}: {error or 'wrong answer'}",
                  file=sys.stderr)
    if workload == "oracle-fresh":
        # Z at the ice point is the alternating sign matrix count
        lo = lib["lattice_oracle"]
        for n in (7, 8, 9):
            if lo.enumerate_Z(n, lo.ICE_POINT) != ref.ASM_COUNTS[n]:
                failed += 1
                print(f"FAILED ice point Z_{n}", file=sys.stderr)

    return {
        "workload": workload,
        "seed": seed,
        "rounds": done,
        "queries": len(records),
        "labels": [q.label for q, _, _, _ in records],
        "raw_latencies": [dt for _, dt, _, _ in records],
        "latencies": [dt * f for (t0, dt), f
                      in zip(spans, speed.factors(cals, spans, ref_s))],
        "speed_factor": speed.factor([p for _, p in cals], ref_s),
        "failed": failed,
        "malformed": malformed,
        "malformed_breaches": breaches,
        "peak_rss_mb": peak_rss_mb,
        "layers": layers,
    }


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--rounds", type=int)
    ap.add_argument("--trace-dir")
    a = ap.parse_args()
    result = measure(a.workload, a.seed, a.seconds, a.rounds, a.trace_dir)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
