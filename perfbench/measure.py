"""Order statistics, process figures and the machine description."""

from __future__ import annotations

import math
import os
import platform
import resource
import statistics
import time

import numpy as np


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (q in (0, 100]); 0.0 for no samples."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100 * len(ordered)))
    return ordered[rank - 1]


def beyond(count: int, q: float) -> int:
    """Samples strictly above the nearest-rank q-th percentile of `count` samples."""
    return count - max(1, math.ceil(q / 100 * count)) if count else 0


def median(values) -> float:
    return statistics.median(values) if values else 0.0


def quartile_spread(values) -> float:
    """(Q3 - Q1) / median, with quartiles as statistics.quantiles(n=4) gives them."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else math.inf


def peak_rss_mb(children: bool = False) -> float:
    """Peak resident set size in MiB of this process, or of its waited-for children."""
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024  # ru_maxrss is KiB on Linux


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read().strip()
    except OSError:
        return "unknown"


def machine() -> dict:
    """nproc, CPU model, cache sizes, Python and numpy versions."""
    import numpy

    model = "unknown"
    for line in _read("/proc/cpuinfo").splitlines():
        if line.startswith("model name"):
            model = line.split(":", 1)[1].strip()
            break
    caches = {}
    for index in range(8):
        base = f"/sys/devices/system/cpu/cpu0/cache/index{index}"
        if not os.path.isdir(base):
            break
        lvl, kind = _read(f"{base}/level"), _read(f"{base}/type")
        if kind != "Instruction":
            caches[f"L{lvl}"] = _read(f"{base}/size")
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": model,
        "caches": caches,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


# -- machine speed ---------------------------------------------------------------

# kernel_seconds() on the reference machine (see README.md); times are
# reported as if the machine ran at that speed throughout
REFERENCE_S = 0.003


def kernel_seconds() -> float:
    """Time of a fixed reference job, independent of extsquare.

    It mixes the two kinds of work the workloads do: python-level integer
    arithmetic with indexing, and small int64 matrix products.
    """
    t0 = time.perf_counter()
    acc, m = 1, 2**31 - 1
    table = [(i * 7919) % 97 for i in range(256)]
    for i in range(8000):
        acc = (acc * 48271 + table[i & 255]) % m
    a = np.arange(225, dtype=np.int64).reshape(15, 15) % 97
    x = a
    for _ in range(200):
        x = (x @ a) % 97
    return time.perf_counter() - t0


class Pace:
    """Samples the reference job between operations, at most every `interval` s."""

    def __init__(self, interval: float = 0.25):
        self.interval = interval
        self.times: list[float] = []
        self.seconds: list[float] = []
        self._last = -math.inf

    def __call__(self) -> None:
        now = time.perf_counter()
        if now - self._last >= self.interval:
            self.times.append(now)
            self.seconds.append(kernel_seconds())
            self._last = time.perf_counter()

    def local(self, t: float, window: float = 2.0) -> float:
        """Mean reference time within `window` s of t (the nearest sample if none).

        The mean, not the median: an operation's time adds up the machine's
        speed over its whole interval, fast and slow stretches alike.
        """
        near = [s for ts, s in zip(self.times, self.seconds) if abs(ts - t) <= window]
        if not near:
            near = [min(zip(self.times, self.seconds), key=lambda p: abs(p[0] - t))[1]]
        return statistics.fmean(near)
