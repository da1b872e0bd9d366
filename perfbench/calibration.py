"""How fast the host runs right now, measured next to every op.

On a shared host the speed of a vCPU changes by up to 1.5x within minutes,
for reasons the benchmark cannot see from inside (a busy sibling
hyperthread, frequency, time stolen by the hypervisor).  Those phases
outlast a run, so no statistic over one run removes them.  The worker
therefore times :func:`calibrate` right before every op and once after the
last, and ``run.py`` scales each op's wall time by the reference time over
the geometric mean of the calibrations on either side of it: the op's time
on a host where the calibration takes the reference time.

An in-process op is calibrated by a fixed mix of small complex matrix
products and Python bookkeeping like qdblab's own at d <= 4.  A cold op,
which is mostly interpreter start and imports, is calibrated by a fresh
interpreter importing numpy; the in-process mix does not follow the speed of
process start-up.  Neither calibration runs qdblab code, so a change to
qdblab moves the scaled times exactly as it moves the wall times.
"""

from __future__ import annotations

import math
import subprocess
import sys
from time import perf_counter

import numpy as np

# Each calibration's median on the host the benchmark was tuned on (2 vCPUs
# of a shared Intel Xeon, Python 3.11.7, numpy 2.4.6), so that scaled times
# read close to that host's wall times.  Never change them: scaled times from
# before and after a change would no longer compare.
IN_PROCESS_REFERENCE_S = 0.0041
COLD_REFERENCE_S = 0.2
ROUNDS = 70
REPEATS = 3  # an interruption only ever slows a repeat, so take the fastest

_A = (np.arange(256).reshape(16, 16) / 256.0).astype(complex)
_B = _A[:4, :4].copy()


def _round() -> float:
    t0 = perf_counter()
    for _ in range(ROUNDS):
        prod = _A @ _A
        pair = np.kron(_B, _B)
        float(np.abs(prod).sum()) + float(pair.real.trace())
        sum(x * 1.5 for x in range(60))
    return perf_counter() - t0


def _cold_start() -> float:
    t0 = perf_counter()
    subprocess.run([sys.executable, "-c", "import numpy"], check=True, capture_output=True)
    return perf_counter() - t0


def calibrate(cold: bool) -> float:
    """Wall seconds of one calibration for cold or in-process ops."""
    return _cold_start() if cold else min(_round() for _ in range(REPEATS))


def reference_s(cold: bool) -> float:
    return COLD_REFERENCE_S if cold else IN_PROCESS_REFERENCE_S


def scaled(seconds: list, calibrations: list, cold: bool) -> list:
    """``seconds[i]`` at the reference speed; ``calibrations`` has one more
    entry than ``seconds``: before every op, and after the last."""
    return [
        s * reference_s(cold) / math.sqrt(before * after)
        for s, before, after in zip(seconds, calibrations, calibrations[1:])
    ]
