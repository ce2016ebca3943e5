"""Machine-speed calibration.

The hosts this benchmark runs on change speed by a third within a
minute (shared cores, frequency scaling), far more than the effects the
benchmark must resolve.  So every measurement is taken next to a fixed
calibration probe and rescaled by the probe's reference time over the
median probe time of its neighbourhood.  Reported times are thus
seconds on the reference host, and drift common to probe and
measurement cancels.  The probes are benchmark code: no change to
`dwbc` moves them.

* In-process queries: a pure-Python kernel of `Fraction` arithmetic,
  the leaf work of the exact engine (reference time REF_S).
* Process start-ups (set-up, `dwbc` invocations): the spawn of a bare
  interpreter, which tracks the operating system's process costs that
  the kernel does not (reference time REF_SPAWN_S).
"""

import bisect
import statistics
import subprocess
import sys
import time
from fractions import Fraction

# probe times on the reference host (2-core x86-64 VM, CPython 3.11)
REF_S = 0.0033
REF_SPAWN_S = 0.08
WINDOW_S = 1.0  # reach of the smoothing median, in seconds


def kernel():
    acc = Fraction(0)
    for i in range(1, 400):
        acc += Fraction(i, i + 7) * Fraction(3, i + 1)
    return acc


def sample():
    """Wall time of one kernel run."""
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0


def spawn_sample(env=None):
    """Wall time of starting and stopping a bare interpreter."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "pass"], env=env, check=True)
    return time.perf_counter() - t0


def factors(samples, spans, ref=REF_S):
    """Rescaling factors, one per measurement: ref over the median probe
    time in a window around it.

    `samples` are (start time, probe time) pairs; `spans` the (start,
    duration) of the measurements.  The window reaches WINDOW_S, or the
    measurement's own duration if longer, past either end, so a long
    measurement is rescaled by the speed over a span as long as itself.
    """
    starts = [t for t, _ in samples]
    out = []
    for t0, dt in spans:
        h = max(WINDOW_S, dt)
        lo = bisect.bisect_left(starts, t0 - h)
        hi = bisect.bisect_right(starts, t0 + dt + h)
        out.append(ref / statistics.median(p for _, p in samples[lo:hi]))
    return out


def factor(probes, ref=REF_S):
    """One rescaling factor from a list of probe times."""
    return ref / statistics.median(probes)
