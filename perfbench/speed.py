"""Machine-speed sampler, so that timings survive a host whose speed drifts.

On a shared host the same work can take up to twice as long from one
half-minute to the next, and the host can flip between a fast and a slow
state several times a second. Both effects are far larger than the bounds.
So during an untraced run a timer signal interrupts the program every 0.2 s,
and the handler times one pass of a fixed kernel. The kernel mixes Python
object churn with small dense numpy steps, like the pipeline does. Because
the handler runs between the program's own bytecodes, the passes sample the
host's speed inside long library calls too, such as a whole training run.

Every timed unit (a build step call, a load, a batch file, one record) is
measured on a clock that leaves out the time spent in kernel passes, and is
rescaled to a reference machine on which one pass takes ``REFERENCE_S``:

    reported = measured * REFERENCE_S / mean(passes during the unit, +-0.2 s)

The mean leaves out the fastest and slowest tenth of the passes once there
are ten or more. The kernel is benchmark code, so a change to the program
moves the reported time exactly as it moves the measured one. The run's
detail line keeps every figure as measured and the kernel statistics.
"""

from __future__ import annotations

import bisect
import gc
import signal
import statistics
import time
from dataclasses import dataclass

import numpy as np

#: kernel seconds on the reference machine (about its fast state on a
#: 2-CPU x86-64 virtual machine with numpy 2.4, one BLAS thread)
REFERENCE_S = 0.010

_rng = np.random.default_rng(12345)
_X = _rng.standard_normal((1, 32))
_W = _rng.standard_normal((32, 128)) * 0.1


def _kernel() -> float:
    rows = []
    for i in range(6000):
        rows.append({"id": i, "key": (i % 7, str(i))})
    x = _X
    for _ in range(1000):
        z = x @ _W
        x = np.tanh(z[:, :32]) * 0.5
    return float(x.sum()) + len(rows)


class SpeedSampler:
    """Kernel passes from a SIGALRM handler, every ``interval_s``; use as a
    context manager around the timed work."""

    def __init__(self, interval_s: float = 0.2) -> None:
        self.interval_s = interval_s
        self.starts: list[float] = []
        self.passes: list[float] = []
        self.stolen = 0.0
        self._previous = None

    def _on_alarm(self, signum, frame) -> None:
        # the collector stays off so the kernel never collects the program's heap
        collecting = gc.isenabled()
        gc.disable()
        start = time.perf_counter()
        _kernel()
        end = time.perf_counter()
        if collecting:
            gc.enable()
        self.starts.append(start)
        self.passes.append(end - start)
        self.stolen += end - start

    def __enter__(self) -> "SpeedSampler":
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, self.interval_s, self.interval_s)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def now(self) -> tuple[float, float]:
        """(wall clock, clock without kernel passes), read consistently
        even if a pass runs in between."""
        while True:
            stolen = self.stolen
            wall = time.perf_counter()
            if stolen == self.stolen:
                return wall, wall - stolen

    def kernel_s(self, start: float, end: float) -> float:
        """Mean pass time around the wall-clock interval [start, end]."""
        lo = bisect.bisect_left(self.starts, start - self.interval_s)
        hi = bisect.bisect_right(self.starts, end + self.interval_s)
        if lo == hi:  # no pass close by: take the nearest one
            lo = max(min(lo, len(self.starts) - 1), 0)
            hi = lo + 1
        window = sorted(self.passes[lo:hi])
        cut = len(window) // 10
        return statistics.fmean(window[cut : len(window) - cut])

    def scale(self, start: float, end: float) -> float:
        """Factor that turns a time measured over [start, end] into
        reference-machine seconds."""
        return REFERENCE_S / self.kernel_s(start, end)

    def summary(self) -> dict:
        return {
            "reference_s": REFERENCE_S,
            "passes": len(self.passes),
            "kernel_median_s": statistics.median(self.passes),
            "kernel_min_s": min(self.passes),
            "kernel_max_s": max(self.passes),
        }


@dataclass(frozen=True)
class Timing:
    """One timed call: wall-clock start and end, and its seconds without
    kernel passes."""

    start: float
    end: float
    seconds: float


class Stopwatch:
    """Times calls; with a sampler, also in reference-machine seconds once
    the sampler has the passes around the call."""

    def __init__(self, sampler: SpeedSampler | None = None) -> None:
        self.sampler = sampler

    def time(self, fn) -> tuple[Timing, object]:
        if self.sampler is None:
            start = time.perf_counter()
            result = fn()
            end = time.perf_counter()
            return Timing(start, end, end - start), result
        wall0, work0 = self.sampler.now()
        result = fn()
        wall1, work1 = self.sampler.now()
        return Timing(wall0, wall1, work1 - work0), result

    def scaled(self, timing: Timing) -> float:
        if self.sampler is None:
            return timing.seconds
        return timing.seconds * self.sampler.scale(timing.start, timing.end)
