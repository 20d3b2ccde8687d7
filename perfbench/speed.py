"""Host speed meter: turns clock time into reference seconds.

The benchmark's CPU is a share of a shared host. Each vCPU runs at one of two
speeds about 1.7x apart and switches between them every second or so, by
what else shares its core; the two vCPUs switch independently, and CPU time
follows clock time, so neither a longer run nor CPU time removes it.
SpeedMeter samples the speed of the process's own CPU while the measured
work runs: every INTERVAL_S a timer signal runs two fixed kernels that
belong to the benchmark (one interpreter-bound, one numpy-bound) and records
the time they took. Over an interval with clock time T, of which H went into
the kernels,

    reference seconds = (T - H) * REF_SAMPLE_S / geometric mean of the samples

where a sample is the geometric mean of the two kernel times. A CPU on which
a sample takes REF_SAMPLE_S reports clock time; a program that does twice the
work reports twice the reference seconds whatever the host's speed.
"""

from __future__ import annotations

import math
import signal
import time

import numpy

INTERVAL_S = 0.05
# a sample's time on the CPU the benchmark was written on, in its faster state
REF_SAMPLE_S = 0.25e-3

_VECTOR = numpy.arange(4096, dtype=float)


def _interpreter_kernel() -> None:
    d: dict[int, float] = {}
    for i in range(1500):
        d[i % 97] = d.get(i % 97, 0.0) + i * 0.5


def _numpy_kernel() -> None:
    x = _VECTOR
    for _ in range(40):
        x = numpy.sqrt(x * 1.0001 + 1.0)


class SpeedMeter:
    """Samples the CPU's speed on SIGALRM between start() and stop().

    Python runs the handler between bytecodes of the main thread, so a
    sample waits for a long native call to return; the kernels' own time is
    kept and taken out of the interval they fell in.
    """

    def __init__(self) -> None:
        self.log_samples: list[float] = []
        self.overheads: list[float] = []
        self._previous = None

    def _sample(self, signum=None, frame=None) -> None:
        t0 = time.perf_counter()
        _interpreter_kernel()
        t1 = time.perf_counter()
        _numpy_kernel()
        t2 = time.perf_counter()
        self.log_samples.append(0.5 * (math.log(t1 - t0) + math.log(t2 - t1)))
        self.overheads.append(time.perf_counter() - t0)

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL if self._previous is None else self._previous)

    def mark(self) -> int:
        """The start of an interval, to pass to window()."""
        return len(self.log_samples)

    def window(self, since: int) -> tuple[float, float]:
        """(kernel time, speed) over the interval that began at mark()
        `since`. speed is REF_SAMPLE_S over the geometric mean of its
        samples; an interval that caught no timer sample is measured by one
        taken now, whose time is not in the interval."""
        overhead = math.fsum(self.overheads[since:])
        if len(self.log_samples) == since:
            self._sample()
        logs = self.log_samples[since:]
        return overhead, REF_SAMPLE_S / math.exp(math.fsum(logs) / len(logs))


def reference_seconds(clock_s: float, overhead: float, speed: float) -> float:
    """Clock time, less the kernels' time, in reference seconds."""
    return (clock_s - overhead) * speed
