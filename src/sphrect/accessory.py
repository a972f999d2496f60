"""Accessory parameter solvers for the two quadrilateral families.

The developing map has simple poles at c and d = -k/c.  For k below the
critical value the accessory parameter c lies in (0, 1) and solves
F(k, c) = 0, a regularized principal-value condition; past the critical
value c lies in (1, k) and is fixed by a definite integral equalling
-pi.  Both conditions have a single sign change in c, and both
families go through one pipeline that differs only in a table of
per-family parts.  A probe scan brackets the sign change and Brent's
method finishes the root from that bracket, both on the condition at
the one quadrature tolerance 1e-10.  Each value of the condition is
evaluated once per solve and shared by the scan, Brent's method and the
residual gate.  Given a nearby root (the previous point of a sweep), the
scan starts there and evaluates only the probes it walks past; it
returns the same bracket as the full scan whenever that scan succeeds,
so the root comes out bit-identical.
"""
from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache, partial

import numpy as np

from .constants import critical_constants
from .errors import AccuracyError, BracketError, DomainError
from .modulus import _check_k, modulus_of_k
from .quadrature import integrate_singular
from .roots import _brent

__all__ = [
    "Family",
    "QuadParam",
    "AccessorySolution",
    "bethe_h",
    "bigF",
    "amp_A",
    "solve_family1",
    "family2_integral",
    "solve_family2",
]

# solver tolerances: final bracket width on c, and the functional residual
C_TOL = 1e-12
RESIDUAL_TOL = 1e-9


class Family(str, Enum):
    FIRST = "first"
    SECOND = "second"


@dataclass(frozen=True)
class QuadParam:
    """Corner parameter k together with the family it belongs to."""

    k: float
    family: Family

    def __post_init__(self) -> None:
        _check_k(self.k)
        k_crit = critical_constants().k_crit
        if self.family is Family.FIRST and not self.k < k_crit:
            raise DomainError(f"first family requires k < {k_crit}, got {self.k}")
        if self.family is Family.SECOND and not self.k > k_crit:
            raise DomainError(f"second family requires k > {k_crit}, got {self.k}")


@dataclass(frozen=True)
class AccessorySolution:
    """A solved accessory parameter with its derived quantities.

    residual is the value of the defining functional at c (bigF for the
    first family, family2_integral + pi for the second).
    """

    param: QuadParam
    c: float
    A: float
    alpha: float
    modulus: float
    residual: float

    def __post_init__(self) -> None:
        k = self.param.k
        if self.param.family is Family.FIRST:
            if not 0.0 < self.c < 1.0:
                raise DomainError(f"first-family c must lie in (0,1), got {self.c}")
        else:
            if not 1.0 < self.c < k:
                raise DomainError(f"second-family c must lie in (1,k), got {self.c}")
        if not self.A > 0.0:
            raise DomainError(f"amplitude must be positive, got {self.A}")
        if not 0.0 < self.alpha < 1.0:
            raise DomainError(f"alpha must lie in (0,1), got {self.alpha}")
        if not self.modulus > 0.0:
            raise DomainError(f"modulus must be positive, got {self.modulus}")

    @property
    def k(self) -> float:
        """Shape parameter, forwarded from the quad parameters."""
        return self.param.k

    @property
    def d(self) -> float:
        """The second pole -k/c."""
        return -self.param.k / self.c


def bethe_h(k: float, x: float) -> float:
    """The cross-ratio h(x) = (1+x)(k-x)/((1-x)(k+x))."""
    _check_k(k)
    if not math.isfinite(x):
        raise DomainError(f"need finite x, got {x!r}")
    if x == 1.0 or x == -k:
        raise DomainError(f"h has a pole at x = {x}")
    return (1.0 + x) * (k - x) / ((1.0 - x) * (k + x))


# Gauss rule for the edge weight w(x) = sqrt((1+x)/(1-x)) on (-1, 1):
# nodes are the zeros of the third-kind Chebyshev polynomial V_n, and
# both nodes and weights are closed form (Mason & Handscomb,
# Chebyshev Polynomials, 2003).
# Integrands below are analytic on a Bernstein ellipse around [-1, 1],
# so sums converge geometrically in n.
_GAUSS_N0 = 16
_GAUSS_NMAX = 2048


@lru_cache(maxsize=None)
def _gauss_w(n: int) -> tuple[np.ndarray, np.ndarray]:
    """n-point Gauss rule for w: x_j = cos((2j-1) pi/(2n+1)),
    w_j = 2 pi (1 + x_j)/(2n+1), with 1 + x_j written as 2 cos^2."""
    theta = (2.0 * np.arange(1, n + 1) - 1.0) * math.pi / (2 * n + 1)
    rule = np.cos(theta), 4.0 * math.pi * np.cos(0.5 * theta) ** 2 / (2 * n + 1)
    for arr in rule:
        arr.flags.writeable = False  # shared by every caller through the cache
    return rule


def _k_factors(k: float, x: np.ndarray) -> tuple[np.ndarray, ...]:
    """The c-free factors k - x, k + x, sqrt((k-x)/(k+x)) and -2k/(k+x)
    of both divided differences below."""
    kmx, kpx = k - x, k + x
    return kmx, kpx, np.sqrt(kmx / kpx), -2.0 * k / kpx


@lru_cache(maxsize=16)  # one solve uses at most 8 rule sizes
def _gauss_k(k: float, n: int) -> tuple[np.ndarray, ...]:
    """The n-point rule for w followed by the c-free factors of k at its
    nodes, shared by every evaluation of a condition at one k."""
    x, w = _gauss_w(n)
    factors = _k_factors(k, x)
    for arr in factors:
        arr.flags.writeable = False  # shared by every caller through the cache
    return (x, w) + factors


def _w_integral(f, tol: float, what: str, k: float | None = None) -> float:
    """Integral of w(x) f(x) over (-1, 1) for f analytic near [-1, 1];
    given k, of w(x) f(x, *_k_factors(k, x)).

    Doubles the Gauss rule from 16 nodes until two successive sums agree
    within tol; past 2048 nodes (a branch point of f crowding an end,
    as for k -> 1) hands f to the adaptive engine instead.
    """
    if not (math.isfinite(tol) and tol > 0.0):
        raise DomainError(f"quadrature tolerance must be finite and > 0, got {tol!r}")
    prev = math.nan
    n = _GAUSS_N0
    while n <= _GAUSS_NMAX:
        x, w, *factors = _gauss_w(n) if k is None else _gauss_k(k, n)
        total = float(np.dot(w, f(x, *factors)))
        if abs(total - prev) <= tol:
            return total
        prev = total
        n *= 2
    g = f if k is None else (lambda x: f(x, *_k_factors(k, x)))
    val, err = integrate_singular(g, -1.0, 1.0, (0.5, -0.5), tol=tol)
    if not math.isfinite(val):
        raise AccuracyError(f"non-finite value of {what}", best=val, err_est=err)
    return float(val)


def bigF(k: float, c: float, tol: float = 1e-10) -> float:
    """Regularized accessory functional F(k, c) for the first family.

    Integral over (-1, 1) of (g(c,zeta) - 1)/(zeta - c) plus the
    regularizing term log((1-c)/(1+c)).  With g = w g_s and g_c =
    g_s(c) = sqrt((1-c)/(1+c)), the principal values PV int w/(x-c) = pi
    and PV int 1/(x-c) = log((1-c)/(1+c)) leave

        F = int w (g_s(x) - g_c)/(x - c) + pi g_c,

    whose divided difference has x - c cancelled in closed form, so a
    node on c needs no special case.
    """
    if not (k > 1.0 and 0.0 < c < 1.0):
        raise DomainError(f"need k > 1 and c in (0,1), got k={k!r}, c={c!r}")
    _check_k(k)
    big_c = (1.0 - c) * (k + c) / ((1.0 + c) * (k - c))
    g_c = math.sqrt((1.0 - c) / (1.0 + c))
    kc = k / c

    # g_s(x) = q(x) (c + k/c)/(x + k/c) with q(x)^2 = C (k-x)/(k+x) and
    # q(c) = g_c; split g_s - g_c = q (c - x)/(x + k/c) + (q - g_c)
    def divided(x, kmx, kpx, s, m2k):
        q = np.sqrt(big_c * kmx / kpx)
        return -q / (x + kc) - 2.0 * k * big_c / (kpx * (k + c) * (q + g_c))

    return _w_integral(divided, tol, f"F(k={k}, c={c})", k) + math.pi * g_c


def amp_A(k: float, c: float) -> float:
    """Amplitude A = (c + k/c) sqrt(|1-c| (k+c)/((1+c)(k-c))) of both
    families: c in (0, 1) for the first, c in (1, k) for the second."""
    if not (1.0 < k and 0.0 < c < k and c != 1.0):
        raise DomainError(f"need 0 < c < k, c != 1 < k, got c={c!r}, k={k!r}")
    _check_k(k)
    return (c + k / c) * math.sqrt(abs(1.0 - c) * (k + c) / ((1.0 + c) * (k - c)))


def family2_integral(k: float, c: float, tol: float = 1e-10) -> float:
    """Defining integral of the second family (no interior singularity).

    Integral over (-1, 1) of
    (c^2+k)/(cx+k) sqrt((c-1)(k+c)(1+x)(k-x)/((c+1)(k-c)(1-x)(k+x))) / (x-c);
    real and negative, equal to -pi exactly at the accessory root.

    With s(x) = sqrt((k-x)/(k+x)), partial fractions over the poles c and
    p = -k/c turn it into P [I(c) - I(p)], P = sqrt((c-1)(k+c)/((c+1)(k-c))),
    I(q) = int w s/(x-q) = int w (s(x) - s(q))/(x-q) + s(q) H(q), where
    H(q) = int w/(x-q) = pi (1 - sqrt((q+1)/(q-1))) for |q| > 1.  Then
    s(c) = sqrt((k-c)/(k+c)), s(p) = sqrt((c+1)/(c-1)) and the H terms
    collapse to pi (s(c) - s(p)).  The split keeps p, which reaches -1
    as c -> k, out of the sum.
    """
    k_crit = critical_constants().k_crit
    if not k > k_crit:
        raise DomainError(f"second family requires k > {k_crit}, got {k!r}")
    if not 1.0 < c < k:
        raise DomainError(f"need c in (1, k), got c={c!r}")
    _check_k(k)
    s_c = math.sqrt((k - c) / (k + c))
    s_p = math.sqrt((c + 1.0) / (c - 1.0))
    kp = k * (c - 1.0) / c  # k + p, free of cancellation as c -> 1
    scale = math.sqrt((c - 1.0) * (k + c) / ((c + 1.0) * (k - c)))
    if not 0.0 < scale < math.inf:  # a product left the double range
        raise AccuracyError(f"family-2 integral (k={k}, c={c}) out of double "
                            f"range: scale {scale}", best=math.nan)

    # (s(x) - s(q))/(x - q) = -2k/((k+x)(k+q)(s(x)+s(q))), at q = c and p
    def divided(x, kmx, kpx, s, m2k):
        return m2k * (1.0 / ((k + c) * (s + s_c)) - 1.0 / (kp * (s + s_p)))

    total = _w_integral(divided, tol / scale, f"family-2 integral (k={k}, c={c})", k)
    return scale * (total + math.pi * (s_c - s_p))


# probe grid covering both endpoint approaches of (0, 1)
_F1_SCAN = sorted(set(
    [10.0 ** -e for e in range(8, 1, -1)]
    + [i / 20.0 for i in range(1, 20)]
    + [1.0 - 10.0 ** -e for e in range(2, 8)]
))


def _scan_bracket(fun, grid, what: str, near: float | None = None
                  ) -> tuple[float, float]:
    """Locate sign changes of fun over grid; demand exactly one.

    With near, walk instead from the probe interval holding near towards
    the root (both functionals decrease through it: up while both ends
    are positive, down while both are negative) and return the first
    interval with a sign change, evaluating each probe at most once.
    That is the full scan's interval whenever the full scan finds exactly
    one; a second sign change elsewhere on the grid goes unseen.  A
    non-finite probe on the walk, or a walk off the grid, falls back to
    the full scan and its errors.
    """
    values: dict[int, float] = {}

    def value(i: int) -> float:
        if i not in values:
            values[i] = fun(grid[i])
        return values[i]

    def changes_sign(i: int) -> bool:
        return value(i) == 0.0 or (value(i) > 0.0) != (value(i + 1) > 0.0)

    last = len(grid) - 2
    if near is not None:
        i = min(max(bisect.bisect_right(grid, near) - 1, 0), last)
        while 0 <= i <= last and math.isfinite(value(i)) and math.isfinite(value(i + 1)):
            if changes_sign(i):
                return grid[i], grid[i + 1]
            i += 1 if value(i) > 0.0 else -1
    full = [value(i) for i in range(len(grid))]
    for c, v in zip(grid, full):
        if not math.isfinite(v):
            raise BracketError(f"{what} is {v} at the probe {c!r}")
    changes = [(grid[i], grid[i + 1]) for i in range(last + 1) if changes_sign(i)]
    if not changes:
        raise BracketError(f"no sign change of {what} over {len(grid)} probes")
    if len(changes) > 1:
        raise BracketError(f"multiple sign changes of {what}: {changes}")
    return changes[0]


def _family2_grid(k: float) -> list[float]:
    span = k - 1.0
    offsets = np.geomspace(1e-6, 0.45 * span, 22)
    pts = np.concatenate([1.0 + offsets, k - offsets])
    return sorted(set(float(p) for p in pts if 1.0 < p < k))  # k - 1e-6 may round to k


# per family: the condition (zero at the root), the probe grid and the
# condition's name in errors; the conditions look bigF and
# family2_integral up at call time
_PLANS = {
    Family.FIRST: (lambda k, c, tol: bigF(k, c, tol), lambda k: _F1_SCAN,
                   "F(k={k}, .) on (0,1)"),
    Family.SECOND: (lambda k, c, tol: family2_integral(k, c, tol) + math.pi,
                    _family2_grid, "family-2 condition at k={k}"),
}


def _solve(family: Family, k: float, tol: float,
           near: float | None) -> AccessorySolution:
    """Bracket the root of one family's condition by the probe scan,
    finish it by Brent's method, gate the residual and derive the
    solution."""
    param = QuadParam(k=float(k), family=family)
    k = param.k
    fun, grid, what = _PLANS[family]
    cond = lru_cache(maxsize=None)(partial(fun, k, tol=1e-10))  # no c twice per solve
    lo, hi = _scan_bracket(cond, grid(k), what.format(k=k), near)
    c = _brent(cond, lo, hi, cond(lo), cond(hi), tol)
    residual = cond(c)
    if abs(residual) > RESIDUAL_TOL:
        raise AccuracyError(f"{family.value}-family residual {residual} exceeds "
                            f"{RESIDUAL_TOL}", best=c, err_est=abs(residual))
    from .developing import alpha_from_parts  # deferred: developing imports this module's types
    a_val = amp_A(k, c)
    return AccessorySolution(param=param, c=c, A=a_val,
                             alpha=alpha_from_parts(k, c, a_val),
                             modulus=modulus_of_k(k), residual=residual)


@lru_cache(maxsize=16)
def solve_family1(k: float, tol: float = C_TOL, *,
                  near: float | None = None) -> AccessorySolution:
    """Solve the first-family accessory problem at corner parameter k.

    Returns the unique c in (0, 1) with F(k, c) = 0 along with the
    amplitude, the angle parameter alpha, and the conformal modulus.
    near, a guess at c such as the root at a neighbouring k, starts the
    probe scan there (see _scan_bracket): whenever the plain solve
    succeeds, the solution is bit-identical to it, with fewer
    evaluations.  The scan then no longer rules out a second root, but
    the residual gate still applies.
    """
    return _solve(Family.FIRST, k, tol, near)


@lru_cache(maxsize=16)
def solve_family2(k: float, tol: float = C_TOL, *,
                  near: float | None = None) -> AccessorySolution:
    """Solve the second-family accessory problem at corner parameter k.

    Finds c in (1, k) where the family-2 integral equals -pi.  The grid
    scan reports every sign change it sees; more than one is an error
    rather than a silent choice.  near starts the scan at a guess at c,
    with the same guarantee and the same trade as in solve_family1.
    """
    return _solve(Family.SECOND, k, tol, near)
