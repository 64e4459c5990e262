"""Timing in reference seconds: wall time scaled by the machine's speed.

The benchmark runs on a few cores of a shared host.  There, the same work
takes up to twice as long in some seconds as in others: the host switches
between speed states that last from under a second to tens of seconds.  A
fixed reference kernel measures the speed.  It does the kind of work dyncov
does per slot, Python bytecode around small numpy linear algebra on 2x2 and
4x4 complex matrices, and it calls no dyncov code, so a change to dyncov
cannot change it.

``timed`` samples the speed around a call and, with ``inside``, every
``TICK_S`` during it: an interval timer interrupts the call, runs the
kernel once and leaves that time out of the call's wall time.  The call's
time in reference seconds is its wall time times the mean of the sampled
speeds, where a speed is ``REFERENCE_S`` over one kernel time.  A
reference second is a second of a machine on which the kernel takes
``REFERENCE_S``.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

# About the median time of ``kernel()`` on the reference machine (2-vCPU
# virtual machine, Python 3.11, numpy 2.4, one BLAS thread).  It fixes the
# unit only; changing it would rescale every timing of the benchmark.
REFERENCE_S = 0.0024

# Kernel calls per probe around a call; the probe is their median.
PROBE_CALLS = 3

# Interval of the speed samples taken inside a call.
TICK_S = 0.1

_ROUNDS = 60


def kernel() -> float:
    """A fixed amount of work; returns a value so that none of it is skipped."""
    rng = np.random.default_rng(0)
    acc = 0.0
    for k in range(_ROUNDS):
        n = 4 if k % 4 == 0 else 2
        g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        m = g @ g.conj().T + np.eye(n)
        w = np.linalg.eigvalsh(m)
        chol = np.linalg.cholesky(m)
        acc += float(np.log(w).sum()) + float(np.real(np.trace(chol)))
        for j in range(n * n):
            acc += (j % 3) * 1e-9 * w[j % n]
    return acc


def probe() -> float:
    """The speed now: ``REFERENCE_S`` over the median of ``PROBE_CALLS``
    kernel times."""
    times = []
    for _ in range(PROBE_CALLS):
        t0 = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - t0)
    return REFERENCE_S / statistics.median(times)


class _Ticks:
    """Speed samples taken by SIGALRM inside a call, and the time they took."""

    def __init__(self):
        self.speeds: list[float] = []
        self.paused_s = 0.0

    def __call__(self, signum, frame):
        t0 = time.perf_counter()
        kernel()
        dt = time.perf_counter() - t0
        self.speeds.append(REFERENCE_S / dt)
        self.paused_s += time.perf_counter() - t0


def timed(fn, inside: bool = True):
    """Call ``fn``; returns its value, its wall time and that time in
    reference seconds."""
    speeds = [probe()]
    ticks = _Ticks()
    previous = None
    if inside:
        previous = signal.signal(signal.SIGALRM, ticks)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
    t0 = time.perf_counter()
    try:
        value = fn()
    finally:
        if inside:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
    wall = time.perf_counter() - t0 - ticks.paused_s
    speeds += ticks.speeds
    speeds.append(probe())
    return value, wall, wall * statistics.mean(speeds)
