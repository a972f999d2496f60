"""Conformal modulus of the four-branch-point configuration.

For k > 1 the branch points -k, -1, 1, k cut out a ring domain whose
modulus is expressible through complete elliptic integrals; the same
quantity is also a ratio of two period integrals, kept here as an
independent cross-check.  The modulus is strictly increasing in k and
maps (1, inf) onto (0, inf), so inversion is a bracketed root search.
"""
from __future__ import annotations

import math

import numpy as np

from .elliptic import agm, ellip_K
from .errors import AccuracyError, DomainError
from .quadrature import integrate_singular
from .roots import _brent

__all__ = ["modulus_of_k", "modulus_oracle", "k_of_modulus"]


def _check_k(k: float) -> float:
    k = float(k)
    if not k > 1.0:
        raise DomainError(f"need k > 1, got {k!r}")
    return k


def modulus_of_k(k: float) -> float:
    """Conformal modulus as K(sqrt(1 - 1/k^2)) / (2 K(1/k)).

    The numerator's complementary modulus is exactly 1/k, so its K is
    pi / (2 agm(1, 1/k)) (Borwein & Borwein, Pi and the AGM, 1987): no
    modulus near 1 is ever formed, and every k > 1 stays in range.
    """
    kappa = 1.0 / _check_k(k)
    return math.pi / (4.0 * agm(1.0, kappa) * ellip_K(kappa))


def modulus_oracle(k: float, tol: float = 1e-10) -> float:
    """Modulus as the period ratio H / W computed by direct quadrature.

    W = 2 int_0^1 dt / sqrt((1 - t^2)(k^2 - t^2)),
    H =   int_1^k dt / sqrt((t^2 - 1)(k^2 - t^2)).
    Slower than the closed form; used to validate it.
    """
    k = _check_k(k)

    def fw(t):
        return 1.0 / np.sqrt((1.0 + t) * (k * k - t * t))

    def fh(t):
        return 1.0 / np.sqrt((t + 1.0) * (t + k))

    w_val, _ = integrate_singular(fw, 0.0, 1.0, (0.0, -0.5), tol=tol)
    h_val, _ = integrate_singular(fh, 1.0, k, (-0.5, -0.5), tol=tol)
    return h_val / (2.0 * w_val)


def k_of_modulus(target: float, tol: float = 1e-12) -> float:
    """Inverse of modulus_of_k by Brent's method.

    Mathematically any target in (0, inf) is attainable, but in double
    precision k cannot sit closer to 1 than one ulp, which floors the
    reachable moduli: every target below about 0.054 raises
    AccuracyError, every target above about 0.066 inverts, and targets
    in between may do either.
    """
    target = float(target)
    if not target > 0.0:
        raise DomainError(f"modulus must be positive, got {target!r}")

    def miss(k: float) -> float:
        # a miss within tol counts as a root, which ends the search there
        d = modulus_of_k(k) - target
        return 0.0 if abs(d) <= tol else d

    lo = 1.0 + 1e-15
    hi = 2.0
    while (f_hi := miss(hi)) < 0.0:
        hi *= 4.0
        if hi > 1e300:  # unreachable for any float target
            raise AccuracyError(f"modulus target {target} out of float range")
    f_lo = miss(lo)
    k = lo if f_lo >= 0.0 else _brent(miss, lo, hi, f_lo, f_hi, 0.0)
    reached = modulus_of_k(k)
    if abs(reached - target) > max(tol, 1e-9):
        raise AccuracyError(
            f"k_of_modulus({target}) unattainable in double precision "
            f"(nearest modulus {reached})", best=k, err_est=abs(reached - target))
    return k
