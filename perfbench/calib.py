"""Machine-speed calibration interleaved with the work being timed.

The speed this kind of shared VM gives a process drifts by tens of percent
within seconds, and a process's CPU time drifts with it. A timer signal
therefore interrupts the worker every ``INTERVAL_S`` and runs a short fixed
burst of benchmark-owned code (a Python loop, small numpy calls, a 4x4
eigensolve, one vectorised pass; nothing from dickepair) while the work
waits. The bursts sample the speed the work itself is getting at that moment.

* :meth:`Calibrator.clock` is ``perf_counter`` minus the time spent in
  bursts, so every duration read from it excludes the calibration.
* A duration is scaled to the reference speed by multiplying it with
  ``REF_BURST_S / mean burst time`` over the bursts taken while it ran.

A signal handler runs between bytecodes, so the bursts follow the work
through any code path; a long C call only delays the next burst.
"""
from __future__ import annotations

import signal
import time
from array import array

import numpy as np

INTERVAL_S = 0.05
# set-up takes about 0.2 s, so it is sampled more densely
SETUP_INTERVAL_S = 0.01
# mean burst time on the reference machine (2-vCPU Xeon VM, Python 3.11,
# numpy 2.4 with OpenBLAS on one thread); scaled times read as seconds there
REF_BURST_S = 0.00055

_M4 = np.array([[2.0, 0.3, 0.1, 0.0], [0.3, 1.5, 0.2, 0.1],
                [0.1, 0.2, 1.0, 0.4], [0.0, 0.1, 0.4, 0.5]])
_V = np.linspace(-3.0, 3.0, 4096)
_X9 = np.arange(9.0)


def kernel() -> float:
    acc = 0.0
    for i in range(1000):
        acc += i * i % 7
    for i in range(8):
        acc += float(np.linalg.eigvalsh(_M4 + i * 1e-3)[0])
    for _ in range(20):
        acc += float(np.logaddexp.reduce(_X9 * 1.0001)) + complex(np.exp(1j * _X9).sum()).real
    acc += float(np.log1p(np.exp(_V)).sum())
    return acc


class Calibrator:
    def __init__(self):
        self.bursts = array("d")
        self.spent = 0.0

    def burst(self, *_signal_args) -> None:
        t0 = time.perf_counter()
        kernel()
        dt = time.perf_counter() - t0
        self.bursts.append(dt)
        self.spent += dt

    def start(self, interval: float = INTERVAL_S) -> None:
        t0 = time.perf_counter()
        kernel()  # first call loads numpy's linalg paths; not a sample
        self.spent += time.perf_counter() - t0
        signal.signal(signal.SIGALRM, self.burst)
        self.set_interval(interval)

    def set_interval(self, interval: float) -> None:
        signal.setitimer(signal.ITIMER_REAL, interval, interval)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def clock(self) -> float:
        """Seconds of work: ``perf_counter`` without the burst time."""
        while True:
            spent = self.spent
            now = time.perf_counter()
            if spent == self.spent:
                return now - spent

    def mean_burst(self, first: int) -> float | None:
        """Mean time of the bursts from index ``first`` on."""
        window = self.bursts[first:]
        return sum(window) / len(window) if window else None
