"""Adaptive Gauss-Kronrod quadrature with endpoint substitutions.

The engine is one adaptive G7/K15 loop over the pieces of an integral:
each piece splits its worst panel first until its estimate meets its even
share of the tolerance, and all pieces draw on one fixed budget of
DEFAULT_BUDGET panels.  Integrable endpoint singularities are removed
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

__all__ = ["integrate_singular", "integrate_segment", "integrate_arc"]

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


def _run_pieces(pieces: Sequence[tuple[Callable, float, float]],
                tol: float) -> tuple[complex, float]:
    """Integrate a list of (f, a, b) pieces; (total, error estimate).

    Each piece in turn splits its worst panel first until its estimate
    meets its even share tol / len(pieces); all pieces draw on one count
    of DEFAULT_BUDGET panels.  A piece that runs out of budget or stalls
    at machine resolution keeps its best value in the total, and the
    last such failure is raised with that total; a non-finite total or
    error estimate fails the same way.
    """
    if not (math.isfinite(tol) and tol > 0.0):
        raise DomainError(f"quadrature tolerance must be finite and > 0, got {tol!r}")
    per_tol = tol / len(pieces)
    used = 0
    total, total_err = 0.0 + 0.0j, 0.0
    failed = None
    for f, a, b in pieces:
        val, err = _panel(f, a, b)
        used += 1
        # splittable panels, worst first; the panel count breaks ties in order
        heap = [(-err, used, a, b, val, err)]
        frozen_err = 0.0
        while err > per_tol and heap:
            _, _, pa, pb, pval, perr = heapq.heappop(heap)
            if pb - pa <= 64.0 * math.ulp(max(abs(pa), abs(pb), 1.0)):
                frozen_err += perr  # cannot split further at this precision
                continue
            if used + 2 > DEFAULT_BUDGET:
                failed = f"quadrature budget exhausted (err ~ {err:.3e}, tol {per_tol:.3e})"
                break
            used += 2
            pm = 0.5 * (pa + pb)
            v1, e1 = _panel(f, pa, pm)
            v2, e2 = _panel(f, pm, pb)
            val += (v1 + v2) - pval
            err += (e1 + e2) - perr
            heapq.heappush(heap, (-e1, used - 1, pa, pm, v1, e1))
            heapq.heappush(heap, (-e2, used, pm, pb, v2, e2))
        else:
            if err > per_tol:
                failed = f"quadrature stalled at machine resolution (err ~ {frozen_err:.3e})"
        total += val
        total_err += err
    if failed is None and not (cmath.isfinite(total) and math.isfinite(total_err)):
        failed = f"non-finite integral {total} (err ~ {total_err:.3e})"
    if failed is not None:
        raise AccuracyError(failed, best=total, err_est=total_err)
    return total, total_err


def _from_end(g: Callable, h: float, p: float = 0.0) -> tuple[Callable, float, float]:
    """The piece (F, 0, 1) whose integral is int_0^h d^p g(d) dd.

    d = h u^2 folds the weight d^p, p >= -1/2, into the smooth
    F(u) = 2 h^(p+1) u^(2p+1) g(h u^2); g takes the displacement d from
    the end, so nodes crowding the end keep their full precision.  For
    -1 < p < -1/2, where u^(2p+1) is still singular, d = h u^r with
    r = 1/(p+1) folds the weight away: F(u) = r h^(p+1) g(h u^r).
    """
    if p < -0.5:
        r, scale = 1.0 / (p + 1.0), h ** (p + 1.0) / (p + 1.0)
        return (lambda u: scale * g(h * u ** r), 0.0, 1.0)
    scale, power = 2.0 * h ** (p + 1.0), 2.0 * p + 1.0
    return (lambda u: scale * u ** power * g(h * u * u), 0.0, 1.0)


def integrate_singular(f: Callable, a: float, b: float,
                       exponents: tuple[float, float],
                       tol: float = DEFAULT_TOL) -> tuple[float, float]:
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
    val, err = _run_pieces([left, right], tol)
    return (val.real if val.imag == 0.0 else val), err


def integrate_segment(f: Callable, z0: complex, z1: complex,
                      tol: float = DEFAULT_TOL,
                      sqrt_start: bool = False, sqrt_end: bool = False) -> complex:
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
    val, _ = _run_pieces(pieces, tol)
    return complex(val)


def integrate_arc(f: Callable, center: complex, radius: float,
                  theta0: float, theta1: float,
                  tol: float = DEFAULT_TOL) -> complex:
    """Integral of f along the circular arc center + radius e^{i theta}."""
    if radius <= 0.0:
        raise DomainError(f"arc radius must be positive, got {radius!r}")
    center = complex(center)

    def g(theta: np.ndarray) -> np.ndarray:
        z = center + radius * np.exp(1j * theta)
        return f(z) * 1j * radius * np.exp(1j * theta)

    val, _ = _run_pieces([(g, theta0, theta1)], tol)
    return complex(val)
