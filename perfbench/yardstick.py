"""Yardstick kernel: a fixed adaptive G7/K15 integration.

The benchmark runs this kernel on an interval timer (Sampler) all through
a run, between operations and inside long ones, and divides each timing
of the program by the kernel's mean time around it.  The kernel does the
same kind of work as the program (interpreter control flow, a heap,
15-element numpy arrays and scalar float loops), so a machine that runs slower for a while slows
both alike and the ratio stays put.  It imports nothing from the program,
so no change to the program can move it.

Y0 is the kernel's mean time, in seconds, on the machine the reference
figures in README.md were taken on.  A timing t is reported as t * Y0 / Y
("reference-speed units"): what t would have been on that machine.
"""
from __future__ import annotations

import heapq
import math
import signal
import time

import numpy as np

Y0 = 1.0e-3

# 15-point Kronrod extension of the 7-point Gauss rule on [-1, 1]
_XK = np.array([0.9914553711208126, 0.9491079123427585, 0.8648644233597691,
                0.7415311855993945, 0.5860872354676911, 0.4058451513773972,
                0.2077849550078985, 0.0])
_WK = np.array([0.0229353220105292, 0.0630920926299786, 0.1047900103222502,
                0.1406532597155259, 0.1690047266392679, 0.1903505780647854,
                0.2044329400752989, 0.2094821410847278])
_WG = np.array([0.1294849661688697, 0.2797053914892767, 0.3818300505051189,
                0.4179591836734694])
NODES = np.concatenate([-_XK[:-1], _XK[::-1]])
WK = np.concatenate([_WK[:-1], _WK[::-1]])
WG = np.zeros(15)
WG[1:14:2] = np.concatenate([_WG[:-1], _WG[::-1]])

TOL = 1e-12
AGM_POINTS = 512
# the kernel's exact output: a change here changes what it measures
EXPECTED_PANELS = 41


def _integrand(u: np.ndarray) -> np.ndarray:
    # sqrt(x) cos(12 x) / (1 + x^2) on [0, 4], through x = 4 u^2
    x = 4.0 * u * u
    return 8.0 * u * np.sqrt(x) * np.cos(12.0 * x) / (1.0 + x * x)


def _panel(a: float, b: float) -> tuple[float, float]:
    half = 0.5 * (b - a)
    y = _integrand(0.5 * (a + b) + half * NODES)
    rk = half * float(np.sum(WK * y))
    rg = half * float(np.sum(WG * y))
    return rk, abs(rk - rg)


def _agm_sum() -> float:
    """Interpreter-only part: the AGM of (1, x) for AGM_POINTS moduli x."""
    total = 0.0
    for i in range(1, AGM_POINTS + 1):
        a, b = 1.0, i / (AGM_POINTS + 1.0)
        while a - b > 1e-15 * a:
            a, b = 0.5 * (a + b), math.sqrt(a * b)
        total += a
    return total


def kernel() -> tuple[float, int]:
    """Integrate the fixed integrand to TOL, then run _agm_sum();
    returns (integral + AGM sum, panels)."""
    val, err = _panel(0.0, 1.0)
    heap = [(-err, 0.0, 1.0, val, err)]
    total, total_err, panels = val, err, 1
    while total_err > TOL:
        _, a, b, pval, perr = heapq.heappop(heap)
        mid = 0.5 * (a + b)
        v1, e1 = _panel(a, mid)
        v2, e2 = _panel(mid, b)
        panels += 2
        total += v1 + v2 - pval
        total_err += e1 + e2 - perr
        heapq.heappush(heap, (-e1, a, mid, v1, e1))
        heapq.heappush(heap, (-e2, mid, b, v2, e2))
    return total + _agm_sum(), panels


class Sampler:
    """Runs kernel() every `period` seconds from a SIGALRM handler.

    The handler runs in the main thread between bytecodes, so the run stays
    one thread and one caller.  It records each kernel run as (wall start,
    duration) and adds its duration to `stolen`; net() is a clock that
    stops while the kernel runs, so timings taken with it leave the kernel
    out.
    """

    def __init__(self, period: float):
        self.period = period
        self.start_s: list[float] = []
        self.dur_s: list[float] = []
        self.stolen = 0.0

    def _tick(self, signum, frame) -> None:
        t0 = time.perf_counter()
        kernel()
        t1 = time.perf_counter()
        self.start_s.append(t0)
        self.dur_s.append(t1 - t0)
        self.stolen += t1 - t0

    def net(self) -> float:
        while True:  # a tick between the two reads would skew the result
            stolen = self.stolen
            t = time.perf_counter()
            if stolen == self.stolen:
                return t - stolen

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
