"""Adaptive Gauss-Kronrod quadrature with endpoint substitutions.

The engine is a global-adaptive G7/K15 scheme: the panel with the worst
error estimate is split until the summed estimate meets the tolerance or
the panel budget runs out.  Integrable endpoint singularities are removed
analytically by the substitution x = a + (b - a) u^2 (and its mirror), so
the engine itself only ever sees smooth integrands.  Integrands take a
numpy array of nodes and return the array of values.
"""
from __future__ import annotations

import cmath
import heapq
import math
from typing import Callable, Sequence

import numpy as np

from .errors import AccuracyError, DomainError

__all__ = [
    "integrate_singular",
    "integrate_segment",
    "integrate_arc",
]

DEFAULT_TOL = 1e-10
DEFAULT_BUDGET = 2000

# 15-point Kronrod extension of 7-point Gauss (positive abscissae).
_XGK_HALF = np.array([
    0.9914553711208126392068547,
    0.9491079123427585245261897,
    0.8648644233597690727897128,
    0.7415311855993944398638648,
    0.5860872354676911302941448,
    0.4058451513773971669066064,
    0.2077849550078984676006894,
    0.0,
])
_WGK_HALF = np.array([
    0.0229353220105292249637320,
    0.0630920926299785532907007,
    0.1047900103222501838398763,
    0.1406532597155259187451896,
    0.1690047266392679028265834,
    0.1903505780647854099132564,
    0.2044329400752988924141620,
    0.2094821410847278280129992,
])
_WG_HALF = np.array([
    0.1294849661688696932706114,
    0.2797053914892766679014678,
    0.3818300505051189449503698,
    0.4179591836734693877551020,
])

# full symmetric node/weight arrays; Gauss nodes sit at Kronrod odd indices
_NODES = np.concatenate([-_XGK_HALF[:-1], _XGK_HALF[::-1]])
_WK = np.concatenate([_WGK_HALF[:-1], _WGK_HALF[::-1]])
_WG = np.zeros(15)
_WG[1:14:2] = np.concatenate([_WG_HALF[:-1], _WG_HALF[::-1]])

_EPS = np.finfo(float).eps


def _panel(f: Callable, a: float, b: float) -> tuple[complex, float]:
    """One G7/K15 panel on [a, b]: (kronrod value, error estimate)."""
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    fx = f(mid + half * _NODES)
    resk = half * np.sum(_WK * fx)
    resg = half * np.sum(_WG * fx)
    mean = resk / (b - a)
    # |half|: panels may run right-to-left (reversed arcs), but the
    # error magnitudes must stay nonnegative
    resabs = abs(half) * float(np.sum(_WK * np.abs(fx)))
    resasc = abs(half) * float(np.sum(_WK * np.abs(fx - mean)))
    err = abs(resk - resg)
    if resasc != 0.0 and err != 0.0:
        err = resasc * min(1.0, (200.0 * err / resasc) ** 1.5)
    err = max(err, 50.0 * _EPS * resabs)  # round-off floor
    return complex(resk), err


class _Budget:
    """Shared panel counter across the pieces of one integral."""

    def __init__(self, limit: int):
        self.limit = limit
        self.used = 0

    def take(self, n: int = 1) -> bool:
        if self.used + n > self.limit:
            return False
        self.used += n
        return True


def _adaptive(f: Callable, a: float, b: float, tol: float,
              budget: _Budget) -> tuple[complex, float]:
    """Globally adaptive integration of f over the real interval [a, b].

    Returns (value, error_estimate); raises AccuracyError (carrying the
    best estimate) if the budget is exhausted first.
    """
    budget.take()
    val, err = _panel(f, a, b)
    # heap of splittable panels, worst error first
    seq = 0
    heap = [(-err, seq, a, b, val, err)]
    total, total_err = val, err
    frozen_err = 0.0
    while total_err > tol and heap:
        _, _, pa, pb, pval, perr = heapq.heappop(heap)
        width = pb - pa
        if width <= 64.0 * math.ulp(max(abs(pa), abs(pb), 1.0)):
            frozen_err += perr  # cannot split further at this precision
            continue
        if not budget.take(2):
            raise AccuracyError(
                f"quadrature budget exhausted (err ~ {total_err:.3e}, tol {tol:.3e})",
                best=total, err_est=total_err)
        pm = 0.5 * (pa + pb)
        v1, e1 = _panel(f, pa, pm)
        v2, e2 = _panel(f, pm, pb)
        total += (v1 + v2) - pval
        total_err += (e1 + e2) - perr
        for item in ((pa, pm, v1, e1), (pm, pb, v2, e2)):
            seq += 1
            heapq.heappush(heap, (-item[3], seq, *item))
    if total_err > tol and not heap:
        raise AccuracyError(
            f"quadrature stalled at machine resolution (err ~ {frozen_err:.3e})",
            best=total, err_est=total_err)
    return total, total_err


def _run_pieces(pieces: Sequence[tuple[Callable, float, float]], tol: float,
                budget_limit: int) -> tuple[complex, float]:
    """Integrate a list of (f, a, b) pieces under one budget.

    Tolerance is split evenly.  If a piece fails, its best estimate still
    enters the total and the failure is re-raised with the combined sum;
    a non-finite total or error estimate fails the same way.
    """
    budget = _Budget(budget_limit)
    per_tol = tol / len(pieces)
    total = 0.0 + 0.0j
    total_err = 0.0
    failed = None
    for f, a, b in pieces:
        try:
            val, err = _adaptive(f, a, b, per_tol, budget)
        except AccuracyError as exc:
            val = exc.best if exc.best is not None else 0.0
            err = exc.err_est if exc.err_est is not None else math.inf
            failed = exc
        total += val
        total_err += err
    if failed is None and not (cmath.isfinite(total) and math.isfinite(total_err)):
        failed = f"non-finite integral {total} (err ~ {total_err:.3e})"
    if failed is not None:
        raise AccuracyError(str(failed), best=total, err_est=total_err)
    return total, total_err


def _from_end(g: Callable, h: float, p: float = 0.0) -> tuple[Callable, float, float]:
    """The piece (F, 0, 1) whose integral is int_0^h d^p g(d) dd.

    d = h u^2 folds the weight d^p, p > -1, into the smooth
    F(u) = 2 h^(p+1) u^(2p+1) g(h u^2); g takes the displacement d from
    the end, so nodes crowding the end keep their full precision.
    """
    scale, power = 2.0 * h ** (p + 1.0), 2.0 * p + 1.0
    return (lambda u: scale * u ** power * g(h * u * u), 0.0, 1.0)


def integrate_singular(f: Callable, a: float, b: float,
                       exponents: tuple[float, float],
                       tol: float = DEFAULT_TOL,
                       budget: int = DEFAULT_BUDGET) -> tuple[float, float]:
    """Integral of f(x) (x-a)^p (b-x)^q over (a, b) for smooth f.

    exponents = (p, q), both > -1.  Each half is folded through
    _from_end, one from a and one from b, so the engine sees a smooth
    integrand.  Returns (value, error_estimate).
    """
    if not a < b:
        raise DomainError(f"need a < b, got a={a!r}, b={b!r}")
    p, q = exponents
    if not (p > -1.0 and q > -1.0):
        raise DomainError(f"endpoint exponents must exceed -1, got ({p}, {q})")
    mid = 0.5 * (a + b)
    left = _from_end(lambda d: f(a + d) * (b - (a + d)) ** q, mid - a, p)
    right = _from_end(lambda d: f(b - d) * ((b - d) - a) ** p, b - mid, q)
    val, err = _run_pieces([left, right], tol, budget)
    return (val.real if val.imag == 0.0 else val), err


def integrate_segment(f: Callable, z0: complex, z1: complex,
                      tol: float = DEFAULT_TOL,
                      sqrt_start: bool = False, sqrt_end: bool = False,
                      budget: int = DEFAULT_BUDGET) -> complex:
    """Line integral of f along the straight segment from z0 to z1.

    sqrt_start / sqrt_end apply the u^2 endpoint substitution, for
    integrands with inverse-square-root behaviour at a segment end
    (e.g. a branch point sitting exactly on the endpoint).
    """
    z0, z1 = complex(z0), complex(z1)
    dz = z1 - z0
    if dz == 0:
        return 0.0 + 0.0j

    def fv(t: np.ndarray) -> np.ndarray:
        return f(z0 + t * dz) * dz

    pieces = [_from_end(fv, 0.5) if sqrt_start else (fv, 0.0, 0.5),
              _from_end(lambda d: fv(1.0 - d), 0.5) if sqrt_end else (fv, 0.5, 1.0)]
    val, _ = _run_pieces(pieces, tol, budget)
    return complex(val)


def integrate_arc(f: Callable, center: complex, radius: float,
                  theta0: float, theta1: float,
                  tol: float = DEFAULT_TOL,
                  budget: int = DEFAULT_BUDGET) -> complex:
    """Integral of f along the circular arc center + radius e^{i theta}."""
    if radius <= 0.0:
        raise DomainError(f"arc radius must be positive, got {radius!r}")
    center = complex(center)

    def g(theta: np.ndarray) -> np.ndarray:
        z = center + radius * np.exp(1j * theta)
        return f(z) * 1j * radius * np.exp(1j * theta)

    val, _ = _run_pieces([(g, theta0, theta1)], tol, budget)
    return complex(val)
