"""Accessory parameter solvers for the two quadrilateral families.

The developing map has simple poles at c and d = -k/c.  For k below the
critical value the accessory parameter c lies in (0, 1) and solves
F(k, c) = 0, a regularized principal-value condition; past the critical
value c lies in (1, k) and is fixed by a definite integral equalling
-pi.  Both conditions have a single sign change in c, so bracketed
bisection is the whole root-finding story.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

import numpy as np

from .constants import critical_constants
from .errors import AccuracyError, BracketError, DomainError
from .modulus import modulus_of_k
from .quadrature import integrate_singular

__all__ = [
    "Family",
    "QuadParam",
    "AccessorySolution",
    "bethe_h",
    "g_weight",
    "bigF",
    "amp_A",
    "solve_family1",
    "family2_integral",
    "solve_family2",
]

# solver tolerances: bisection width on c, and the functional residual
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
        if not self.k > 1.0:
            raise DomainError(f"need k > 1, got {self.k!r}")
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
        # pole pairing d = -k/c leaves h invariant; a wrong pairing is an
        # O(1) relative mismatch.  Gate loosely: h blows up as c -> 1 and
        # the rounding of d alone then costs ~ eps / (1 - c) relative.
        ha = bethe_h(k, self.c)
        hb = bethe_h(k, -k / self.c)
        if abs(ha - hb) > 1e-9 * max(1.0, abs(ha)):
            raise DomainError(f"pole pairing violated: h(c)={ha!r}, h(-k/c)={hb!r}")

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
    if x == 1.0 or x == -k:
        raise DomainError(f"h has a pole at x = {x}")
    return (1.0 + x) * (k - x) / ((1.0 - x) * (k + x))


def _g_smooth(k: float, c: float, zeta):
    """g_weight with the edge factor sqrt((1+z)/(1-z)) divided out.

    Smooth on all of [-1, 1]; works elementwise on arrays.
    """
    kc = k / c
    return ((c + kc) / (zeta + kc)) * np.sqrt(
        (1.0 - c) * (k + c) * (k - zeta) / ((1.0 + c) * (k - c) * (k + zeta)))


def g_weight(k: float, c: float, zeta: float) -> float:
    """Weight g(c, zeta) of the principal-value condition, real slice.

    Positive square root on (-1, 1); g(c, c) = 1 and g(c, -1) = 0.
    """
    if not (k > 1.0 and 0.0 < c < 1.0):
        raise DomainError(f"need k > 1 and c in (0,1), got k={k!r}, c={c!r}")
    if zeta == 1.0:
        raise DomainError("g is singular at zeta = 1")
    if not -1.0 <= zeta < 1.0:
        raise DomainError(f"real-slice evaluation needs zeta in [-1, 1), got {zeta!r}")
    return float(_g_smooth(k, c, zeta) * math.sqrt((1.0 + zeta) / (1.0 - zeta)))


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


def _w_integral(f, tol: float, what: str) -> float:
    """Integral of w(x) f(x) over (-1, 1) for f analytic near [-1, 1].

    Doubles the Gauss rule from 16 nodes until two successive sums agree
    within tol; past 2048 nodes (a branch point of f crowding an end,
    as for k -> 1) hands f to the adaptive engine instead.
    """
    prev = math.nan
    n = _GAUSS_N0
    while n <= _GAUSS_NMAX:
        x, w = _gauss_w(n)
        total = float(np.dot(w, f(x)))
        if abs(total - prev) <= tol:
            return total
        prev = total
        n *= 2
    val, err = integrate_singular(f, -1.0, 1.0, (0.5, -0.5), tol=tol)
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
    big_c = (1.0 - c) * (k + c) / ((1.0 + c) * (k - c))
    g_c = math.sqrt((1.0 - c) / (1.0 + c))
    kc = k / c

    # g_s(x) = q(x) (c + k/c)/(x + k/c) with q(x)^2 = C (k-x)/(k+x) and
    # q(c) = g_c; split g_s - g_c = q (c - x)/(x + k/c) + (q - g_c)
    def divided(x: np.ndarray) -> np.ndarray:
        q = np.sqrt(big_c * (k - x) / (k + x))
        return -q / (x + kc) - 2.0 * k * big_c / ((k + x) * (k + c) * (q + g_c))

    return _w_integral(divided, tol, f"F(k={k}, c={c})") + math.pi * g_c


def amp_A(k: float, c: float) -> float:
    """First-family amplitude A = (c + k/c) sqrt((1-c)(k+c)/((1+c)(k-c)))."""
    if not 0.0 < c < 1.0 < k:
        raise DomainError(f"need 0 < c < 1 < k, got c={c!r}, k={k!r}")
    return (c + k / c) * math.sqrt((1.0 - c) * (k + c) / ((1.0 + c) * (k - c)))


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
    s_c = math.sqrt((k - c) / (k + c))
    s_p = math.sqrt((c + 1.0) / (c - 1.0))
    kp = k * (c - 1.0) / c  # k + p, free of cancellation as c -> 1
    scale = math.sqrt((c - 1.0) * (k + c) / ((c + 1.0) * (k - c)))

    # (s(x) - s(q))/(x - q) = -2k/((k+x)(k+q)(s(x)+s(q))), at q = c and p
    def divided(x: np.ndarray) -> np.ndarray:
        s = np.sqrt((k - x) / (k + x))
        return (-2.0 * k / (k + x)) * (1.0 / ((k + c) * (s + s_c))
                                       - 1.0 / (kp * (s + s_p)))

    total = _w_integral(divided, tol / scale, f"family-2 integral (k={k}, c={c})")
    return scale * (total + math.pi * (s_c - s_p))


# probe grid covering both endpoint approaches of (0, 1)
_F1_SCAN = sorted(set(
    [10.0 ** -e for e in range(7, 1, -1)]
    + [i / 20.0 for i in range(1, 20)]
    + [1.0 - 10.0 ** -e for e in range(2, 8)]
))


def _scan_bracket(fun, grid, what: str) -> tuple[float, float]:
    """Locate sign changes of fun over grid; demand exactly one."""
    values = [fun(c) for c in grid]
    for c, v in zip(grid, values):
        if not math.isfinite(v):
            raise BracketError(f"{what} is {v} at the probe {c!r}")
    changes = [(grid[i], grid[i + 1]) for i in range(len(grid) - 1)
               if values[i] == 0.0 or (values[i] > 0.0) != (values[i + 1] > 0.0)]
    if not changes:
        raise BracketError(f"no sign change of {what} over {len(grid)} probes")
    if len(changes) > 1:
        raise BracketError(f"multiple sign changes of {what}: {changes}")
    return changes[0]


def _bisect(fun_loose, fun_tight, lo: float, hi: float, ctol: float,
            lo_min: float, hi_max: float) -> float:
    """Two-phase bisection: cheap evaluations down to width 1e-4, then
    tight evaluations to ctol.  The bracket is re-verified at the switch;
    any widening stays inside [lo_min, hi_max]."""
    f_lo = fun_loose(lo)
    while hi - lo > 1e-4:
        mid = 0.5 * (lo + hi)
        fm = fun_loose(mid)
        if fm == 0.0 or (f_lo > 0.0) == (fm > 0.0):
            lo, f_lo = mid, fm
        else:
            hi = mid
    f_lo = fun_tight(lo)
    f_hi = fun_tight(hi)
    if (f_lo > 0.0) == (f_hi > 0.0):
        # loose quadrature noise misplaced an edge; widen step by step
        span = max(hi - lo, ctol)
        for _ in range(60):
            lo = max(lo - span, lo_min)
            hi = min(hi + span, hi_max)
            f_lo, f_hi = fun_tight(lo), fun_tight(hi)
            if (f_lo > 0.0) != (f_hi > 0.0):
                break
        else:
            raise BracketError("bracket lost after tightening quadrature")
    while hi - lo > ctol:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        fm = fun_tight(mid)
        if fm == 0.0:
            return mid
        if (f_lo > 0.0) == (fm > 0.0):
            lo, f_lo = mid, fm
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _family1_root(k: float, tol: float) -> tuple[float, float]:
    lo, hi = _scan_bracket(lambda c: bigF(k, c, 1e-6), _F1_SCAN,
                           f"F(k={k}, .) on (0,1)")
    c = _bisect(lambda c: bigF(k, c, 1e-6), lambda c: bigF(k, c, 1e-10),
                lo, hi, tol, lo_min=1e-8, hi_max=1.0 - 1e-8)
    residual = bigF(k, c, 1e-10)
    return c, residual


@lru_cache(maxsize=16)
def solve_family1(k: float, tol: float = C_TOL) -> AccessorySolution:
    """Solve the first-family accessory problem at corner parameter k.

    Returns the unique c in (0, 1) with F(k, c) = 0 along with the
    amplitude, the angle parameter alpha, and the conformal modulus.
    """
    k = float(k)
    k_crit = critical_constants().k_crit
    if not 1.0 < k < k_crit:
        raise DomainError(f"first family requires 1 < k < {k_crit}, got {k!r}")
    c, residual = _family1_root(k, tol)
    if abs(residual) > RESIDUAL_TOL:
        raise AccuracyError(f"first-family residual {residual} exceeds {RESIDUAL_TOL}",
                            best=c, err_est=abs(residual))
    from .developing import alpha_from_parts  # deferred: developing imports this module's types
    a_val = amp_A(k, c)
    alpha = alpha_from_parts(k, c, a_val)
    return AccessorySolution(
        param=QuadParam(k=k, family=Family.FIRST),
        c=c, A=a_val, alpha=alpha,
        modulus=modulus_of_k(k), residual=residual)


def _family2_grid(k: float) -> list[float]:
    span = k - 1.0
    lo_offsets = np.geomspace(1e-6, 0.45 * span, 22)
    hi_offsets = np.geomspace(1e-6, 0.45 * span, 22)
    pts = np.concatenate([1.0 + lo_offsets, k - hi_offsets])
    return sorted(set(float(p) for p in pts))


@lru_cache(maxsize=16)
def solve_family2(k: float, tol: float = C_TOL) -> AccessorySolution:
    """Solve the second-family accessory problem at corner parameter k.

    Finds c in (1, k) where the family-2 integral equals -pi.  The grid
    scan reports every sign change it sees; more than one is an error
    rather than a silent choice.
    """
    k = float(k)
    k_crit = critical_constants().k_crit
    if not k > k_crit:
        raise DomainError(f"second family requires k > {k_crit}, got {k!r}")

    def g_loose(c: float) -> float:
        return family2_integral(k, c, 1e-9) + math.pi

    def g_tight(c: float) -> float:
        return family2_integral(k, c, 1e-10) + math.pi

    lo, hi = _scan_bracket(g_loose, _family2_grid(k),
                           f"family-2 condition at k={k}")
    c = _bisect(g_loose, g_tight, lo, hi, tol,
                lo_min=1.0 + 1e-9, hi_max=k - 1e-9)
    residual = g_tight(c)
    if abs(residual) > RESIDUAL_TOL:
        raise AccuracyError(f"second-family residual {residual} exceeds {RESIDUAL_TOL}",
                            best=c, err_est=abs(residual))
    d = -k / c
    a_val = (c - d) * math.sqrt((c - 1.0) * (k + c) / ((c + 1.0) * (k - c)))
    from .developing import alpha_from_parts
    alpha = alpha_from_parts(k, c, a_val)
    return AccessorySolution(
        param=QuadParam(k=k, family=Family.SECOND),
        c=c, A=a_val, alpha=alpha,
        modulus=modulus_of_k(k), residual=residual)
