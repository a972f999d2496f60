"""Critical constants of the quadrilateral family.

The dividing value k_crit between the two solution families comes from
the condition K(kappa') = 2 E(kappa') on the complementary modulus; the
same modulus generates the one-ninth constant Lambda and its companion
b1.  Everything downstream (family selection, sweep layout, forbidden
zones in the CLI) keys off the record computed here.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from .elliptic import ellip_E, ellip_K
from .errors import DomainError
from .modulus import modulus_of_k
from .roots import _brent

__all__ = [
    "CriticalConstants",
    "critical_constants",
    "kappa_prime_crit",
]


@dataclass(frozen=True)
class CriticalConstants:
    """Frozen record of the family-splitting constants.

    kappa_prime_crit solves K = 2E; kappa_crit is its complement;
    k_crit = (1 + kappa_crit)/(1 - kappa_crit); K_crit is the conformal
    modulus at k_crit; lambda_ is the one-ninth constant and b1 the
    period ratio K(kappa'_crit)/K(kappa_crit).
    """

    kappa_prime_crit: float
    kappa_crit: float
    k_crit: float
    K_crit: float
    lambda_: float
    b1: float


def _k_minus_2e(x: float) -> float:
    return ellip_K(x) - 2.0 * ellip_E(x)


def kappa_prime_crit(tol: float = 1e-12) -> float:
    """Unique root of K(x) - 2E(x) on (0, 1), by Brent's method.

    K - 2E is strictly increasing (K' > 0, E' < 0), negative at 0.1 and
    positive at 0.999, so the bracket [0.1, 0.999] contains the root.
    """
    lo, hi = 0.1, 0.999
    f_lo, f_hi = _k_minus_2e(lo), _k_minus_2e(hi)
    if not f_lo < 0.0 < f_hi:
        raise DomainError("bracket for K = 2E lost its sign change")
    return _brent(_k_minus_2e, lo, hi, f_lo, f_hi, tol)


@lru_cache(maxsize=1)
def critical_constants() -> CriticalConstants:
    """All critical constants in one immutable, cached record."""
    kp = kappa_prime_crit()
    kappa = math.sqrt((1.0 - kp) * (1.0 + kp))
    k_crit = (1.0 + kappa) / (1.0 - kappa)
    return CriticalConstants(
        kappa_prime_crit=kp,
        kappa_crit=kappa,
        k_crit=k_crit,
        K_crit=modulus_of_k(k_crit),
        lambda_=math.exp(-math.pi * ellip_K(kappa) / ellip_K(kp)),
        b1=ellip_K(kp) / ellip_K(kappa),
    )
