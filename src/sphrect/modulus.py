"""Conformal modulus of the four-branch-point configuration.

For k > 1 the branch points -k, -1, 1, k cut out a ring domain whose
modulus is expressible through complete elliptic integrals; the same
quantity is also a ratio of two period integrals, kept here as an
independent cross-check.  The modulus is strictly increasing in k and
maps (1, inf) onto (0, inf); its inverse is a ratio of theta constants.
"""
from __future__ import annotations

import math

import numpy as np

from .elliptic import agm, ellip_K
from .errors import AccuracyError, DomainError
from .quadrature import integrate_singular

__all__ = ["modulus_of_k", "modulus_oracle", "k_of_modulus"]


def _check_k(k: float) -> float:
    k = float(k)
    if not 1.0 < k < math.inf:
        raise DomainError(f"need finite k > 1, got {k!r}")
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
    if k * k == math.inf:
        raise AccuracyError(f"k^2 overflows at k={k}", best=math.nan)

    def fw(t):
        return 1.0 / np.sqrt((1.0 + t) * (k * k - t * t))

    def fh(t):
        return 1.0 / np.sqrt((t + 1.0) * (t + k))

    w_val, _ = integrate_singular(fw, 0.0, 1.0, (0.0, -0.5), tol=tol)
    h_val, _ = integrate_singular(fh, 1.0, k, (-0.5, -0.5), tol=tol)
    return h_val / (2.0 * w_val)


def k_of_modulus(target: float) -> float:
    """Inverse of modulus_of_k in closed form, from theta constants.

    The nome of 1/k is q = exp(-2 pi M), so k = theta3(q)^2 / theta2(q)^2
    (Borwein & Borwein, Pi and the AGM, 1987), with theta2(q)^2 =
    4 exp(-pi M) (sum q^(n(n+1)))^2.  Below M = 1/2 the complementary nome
    p = exp(-pi/(2M)) is smaller, and k - 1 = (theta3 - theta4)(theta3 +
    theta4)/theta4^2 at p does not cancel.  With either nome at most
    exp(-pi), powers up to the 12th reach double precision.  Raises
    AccuracyError below ~0.041, the modulus of 1 + 2^-52, where k rounds
    to 1, and above ~226, where k overflows.
    """
    target = float(target)
    if not target > 0.0:
        raise DomainError(f"modulus must be positive, got {target!r}")
    if target >= 0.5:
        q = math.exp(-2.0 * math.pi * target)
        a = 2.0 * (q + q ** 4 + q ** 9)   # theta3 - 1
        b = q ** 2 + q ** 6 + q ** 12     # sum q^(n(n+1)) - 1
        d = (a - b) / (1.0 + b)           # theta3 / sum - 1
        try:
            lift = 0.25 * math.exp(math.pi * target)
        except OverflowError:
            lift = math.inf
        k = lift + lift * (d * (2.0 + d))  # lift (1 + d)^2, rounded once
    else:
        p = math.exp(-0.5 * math.pi / target)
        theta4 = 1.0 - 2.0 * (p - p ** 4 + p ** 9)
        k = 1.0 + 8.0 * (p + p ** 9) * (1.0 + 2.0 * p ** 4) / theta4 ** 2
    if k == 1.0 or not math.isfinite(k):
        raise AccuracyError(f"no double k > 1 has modulus {target}: k "
                            f"{'rounds to 1' if k == 1.0 else 'overflows'}")
    return k
