"""Host speed, sampled by a fixed reference kernel while timed calls run.

On a shared virtual machine the speed of the processor drifts by up to a
factor of two, in phases from seconds to minutes, with CPU time equal to wall
time and no steal. Raw wall times of runs made minutes apart then differ by
more than any useful bound. The benchmark therefore runs a fixed kernel that
shares no code with catenv every ``INTERVAL_S`` seconds of a timed batch, from
a timer signal handled on the main thread, and reports each call's time at
the reference speed: wall time, less the time spent in the kernel, times the
mean of ``REF_S`` over each kernel time taken during the call. The samples
are spread evenly in time, so that mean is the host's mean speed during the
call relative to the reference. A change to catenv cannot move the kernel,
so it moves a scaled time as it moves the wall time at a steady host speed.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time
from contextlib import contextmanager

import numpy as np

# The reference speed: one kernel run takes REF_S seconds. A 2.0 GHz x86-64
# vCPU runs it in 1.2-2.5 ms, so scaled times there are close to wall times.
REF_S = 0.002
# Kernel runs per speed sample; their median outvotes a run that an interrupt
# or a cold cache slowed down.
RUNS = 5
# Seconds between speed samples: the host's phases last seconds or more, and
# a sample takes about 10 ms, so this costs 5% of a batch's wall time.
INTERVAL_S = 0.2

_MATRIX = np.random.default_rng(0).standard_normal((16, 16))


def _kernel() -> float:
    start = time.perf_counter()
    acc = 0
    for i in range(10_000):
        acc += i * i % 7
    m = _MATRIX
    for _ in range(160):
        m = np.tanh(m @ _MATRIX * 0.1)
    return time.perf_counter() - start


def reference_s() -> float:
    """Median wall time of RUNS runs of the reference kernel: an interpreter
    loop and small numpy products, the two kinds of work catenv's layers do.
    One such sample takes about ten milliseconds.
    The collector is off, so garbage the program left cannot be collected
    inside the kernel."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        return statistics.median(_kernel() for _ in range(RUNS))
    finally:
        if enabled:
            gc.enable()


class Sampler:
    """Speed samples taken every INTERVAL_S seconds while ``during`` is open,
    or when asked, and the wall time spent taking them, which timed calls
    leave out."""

    def __init__(self):
        self.kernel_s: list[float] = []
        self.spent_s = 0.0

    def sample(self, *_signal):
        start = time.perf_counter()
        self.kernel_s.append(reference_s())
        self.spent_s += time.perf_counter() - start

    @contextmanager
    def during(self):
        previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)


def to_reference(kernel_s) -> float:
    """Factor that turns wall time into time at the reference speed: the mean
    ratio of the reference speed to the speed of each sample taken meanwhile."""
    return statistics.fmean(REF_S / k for k in kernel_s)
