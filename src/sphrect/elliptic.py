"""Complete elliptic integrals via the arithmetic-geometric mean.

Argument convention: `m` is the modulus k itself, not the parameter k**2.
K(k) = int_0^1 dt / sqrt((1 - t^2)(1 - k^2 t^2)) and E is its companion
second-kind integral.  Everything here reduces to the AGM iteration, so
the results are accurate to a few ulp without any series tuning.
"""
from __future__ import annotations

import math

from .errors import DomainError

__all__ = ["agm", "ellip_K", "ellip_E"]

_MAX_ITER = 64  # AGM converges quadratically; 64 is far beyond need


def _agm(a: float, b: float, csum: float) -> tuple[float, float]:
    """AGM of (a, b) together with csum + sum_{n>=1} 2^(n-1) c_n^2.

    Iterates (a, b) -> ((a+b)/2, sqrt(ab)) until |a - b| <= 4 ulp(a);
    c_{n+1} = (a_n - b_n)/2, and the weighted sum feeds the second-kind
    integral.  Returns (agm, csum).
    """
    weight = 0.5
    for _ in range(_MAX_ITER):
        if abs(a - b) <= 4.0 * math.ulp(a):
            break
        c = 0.5 * (a - b)
        weight *= 2.0
        csum += weight * c * c
        a, b = 0.5 * (a + b), math.sqrt(a * b)
    return a, csum


def agm(a: float, b: float) -> float:
    """Common limit of the arithmetic-geometric mean iteration.

    Both arguments must be positive.
    """
    if not (a > 0.0 and b > 0.0):
        raise DomainError(f"agm requires positive arguments, got {a!r}, {b!r}")
    return _agm(a, b, 0.0)[0]


def ellip_K(m: float) -> float:
    """Complete elliptic integral of the first kind, modulus convention.

    Requires 0 <= m < 1; K diverges logarithmically as m -> 1.
    """
    kappa = float(m)
    if not (0.0 <= kappa < 1.0):
        raise DomainError(f"ellip_K needs modulus in [0, 1), got {kappa!r}")
    comp = math.sqrt((1.0 - kappa) * (1.0 + kappa))
    return math.pi / (2.0 * agm(1.0, comp))


def ellip_E(m: float) -> float:
    """Complete elliptic integral of the second kind, modulus convention.

    Requires 0 <= m <= 1; E(1) = 1 exactly.
    """
    kappa = float(m)
    if not (0.0 <= kappa <= 1.0):
        raise DomainError(f"ellip_E needs modulus in [0, 1], got {kappa!r}")
    if kappa == 1.0:
        return 1.0
    comp = math.sqrt((1.0 - kappa) * (1.0 + kappa))
    limit, csum = _agm(1.0, comp, 0.5 * kappa * kappa)  # c_0 = kappa
    big_k = math.pi / (2.0 * limit)
    return big_k * (1.0 - csum)
