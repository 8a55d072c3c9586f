"""Machine speed, sampled while items run, to scale timings to a fixed speed.

The benchmark runs on a shared host whose speed drifts with load outside
the process: the same item can take 0.30 s in one phase and 0.50 s in
the next, in phases of seconds to minutes.  A wall time alone then says
more about the phase than about the program.  So a fixed pure-Python
kernel, which no change to the package can touch, runs once before each
measurement and then every ``period_s`` seconds from a ``SIGALRM``
handler while the measured code runs.  Its time is taken out of the
measurement, and what is left is scaled by ``REFERENCE_S`` over the mean
kernel time sampled during the measurement: the time the work would have
taken with the kernel at its reference speed.  On the host the benchmark
was defined on, the scaled item times of a run spread several times less
than the wall times.

The kernel is pure Python so that set-up can be sampled from its first
import on without importing numpy early.
"""

from __future__ import annotations

import contextlib
import signal
import statistics
import time
from dataclasses import dataclass

# Median kernel time on the reference machine (2-core x86-64 Xeon at
# 2.1 GHz, Python 3.11) in a quiet phase.
REFERENCE_S = 0.0017
PERIOD_S = 0.05


def kernel() -> float:
    """Fixed interpreter work: integer and float arithmetic and dict stores."""
    s = 0
    f = 0.0
    table = {}
    for i in range(6000):
        s = (s * 31 + i) % 1000003
        table[i & 63] = s
        f += (s & 255) * 0.5
    return f + len(table)


@dataclass
class Timing:
    wall_s: float
    own_s: float  # wall_s minus the kernel runs inside it
    scaled_s: float  # own_s at the reference kernel speed
    factor: float  # mean sampled kernel time over REFERENCE_S; above 1 is slower


def scale(wall_s: float, inside_s: list[float], samples_s: list[float]) -> Timing:
    """Timing of a measurement from its kernel samples.

    ``inside_s`` are the kernel runs that fell inside the measured
    interval; ``samples_s`` are every sample taken for it, the one just
    before it included.
    """
    own = wall_s - sum(inside_s)
    factor = statistics.fmean(samples_s) / REFERENCE_S
    return Timing(wall_s, own, own / factor, factor)


class Speedometer:
    """Samples the kernel around and during measurements.

    Use as a context manager: it owns the ``SIGALRM`` handler for its
    lifetime, and the interval timer runs only inside ``measure``.  With
    ``period_s`` 0 the kernel runs only before each measurement, never
    inside it, which a traced run needs so that no span holds kernel time.
    """

    def __init__(self, period_s: float = PERIOD_S):
        self.period_s = period_s
        self._samples: list[tuple[float, float]] = []  # (start, duration)
        self._previous = None

    def _sample(self, *_signal) -> None:
        start = time.perf_counter()
        kernel()
        self._samples.append((start, time.perf_counter() - start))

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    @contextlib.contextmanager
    def measure(self):
        """Time the body; the yielded Timing is filled in when it exits,
        also when it raises."""
        timing = Timing(float("nan"), float("nan"), float("nan"), float("nan"))
        self._sample()
        first = len(self._samples) - 1
        start = time.perf_counter()
        if self.period_s > 0:
            signal.setitimer(signal.ITIMER_REAL, self.period_s, self.period_s)
        try:
            yield timing
        finally:
            # Stop the timer before reading the clock: a tick that lands
            # after the read would otherwise count kernel time outside
            # the interval.
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            end = time.perf_counter()
            taken = self._samples[first:]
            inside = [d for t, d in taken if start <= t and t + d <= end]
            result = scale(end - start, inside, [d for _, d in taken])
            timing.wall_s, timing.own_s = result.wall_s, result.own_s
            timing.scaled_s, timing.factor = result.scaled_s, result.factor
