"""Logarithm of the developing map and the three-circle boundary picture.

L(z) = log f(z) is the contour integral of A sigma(zeta) / ((zeta - c)
(zeta + k/c)) from the base point k, where sigma is the square root of
(zeta+1)(zeta-k)/((zeta-1)(zeta+k)) on the branch that is positive on
(k, inf).  Written as a product of principal square roots,

    sigma(z) = sqrt(z+1) sqrt(z-k) / (sqrt(z-1) sqrt(z+k)),

that branch is single-valued on the closed upper half-plane (approaching
the real axis from above) with cuts only on (-k,-1) and (1,k), so no
continuation bookkeeping is needed: real points are evaluated with a
+0.0 imaginary part.  Real targets are reached by marching along the
axis with semicircular arcs over the poles; complex targets by a lifted
polyline.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .accessory import AccessorySolution
from .errors import DomainError
from .quadrature import (DEFAULT_BUDGET, _run_pieces, _vectorized,
                         integrate_arc, integrate_segment)

__all__ = [
    "SideImage",
    "BoundaryImageReport",
    "L_eval",
    "alpha_from_parts",
    "extract_alpha",
    "pole_residue",
    "boundary_check",
]

ARC_FACTOR = 0.02  # arc radius = 0.02 * smallest gap between real singular points


def _integrand(k: float, c: float, A: float):
    kc = k / c

    def f(z):
        z = np.asarray(z, dtype=complex)
        sigma = np.sqrt(z + 1.0) * np.sqrt(z - k) / (np.sqrt(z - 1.0) * np.sqrt(z + k))
        return A * sigma / ((z - c) * (z + kc))

    return f


def _integrand_from(k: float, c: float, A: float, e: float, s: float):
    """L-integrand at z = e + s*delta as a function of the displacement.

    delta is real (>= 0) along a segment, or complex with a positive
    imaginary part along a detour arc around e.  Every factor is an
    offset from e plus the displacement, so nodes close to e keep full
    precision; reconstructing z first and subtracting would zero out
    differences below one ulp of z.
    """
    d = -k / c
    o_p1, o_m1 = e + 1.0, e - 1.0
    o_mk, o_pk = e - k, e + k
    o_c, o_d = e - c, e - d

    def f(delta):
        delta = np.asarray(delta)
        f_p1 = np.asarray(o_p1 + s * delta, dtype=complex)
        f_m1 = np.asarray(o_m1 + s * delta, dtype=complex)
        f_mk = np.asarray(o_mk + s * delta, dtype=complex)
        f_pk = np.asarray(o_pk + s * delta, dtype=complex)
        sigma = np.sqrt(f_p1) * np.sqrt(f_mk) / (np.sqrt(f_m1) * np.sqrt(f_pk))
        return A * sigma / ((o_c + s * delta) * (o_d + s * delta))

    return f


def _real_segment(k: float, c: float, A: float, x0: float, x1: float,
                  tol: float, sqrt_start: bool = False,
                  sqrt_end: bool = False) -> complex:
    """L-integrand integral over the real segment [x0, x1].

    Two halves, each parametrized by the displacement from its own
    endpoint (squared for an inverse-square-root end).  Displacements
    reach the integrand as exact products, which matters when a pole
    crowds a branch point: c -> 1 near the critical shape drives the
    adaptive splitter to nodes whose distance from the endpoint is far
    below one ulp of the coordinate itself.
    """
    if x0 == x1:
        return 0.0 + 0.0j
    s = 1.0 if x1 > x0 else -1.0
    hh = 0.5 * abs(x1 - x0)
    pieces = []
    for e, direction, flag in ((x0, s, sqrt_start), (x1, -s, sqrt_end)):
        g = _vectorized(_integrand_from(k, c, A, e, direction))
        if flag:
            pieces.append((lambda u, g=g: 2.0 * hh * u * g(hh * u * u), 0.0, 1.0))
        else:
            pieces.append((lambda u, g=g: hh * g(hh * u), 0.0, 1.0))
    val, _ = _run_pieces(pieces, tol, DEFAULT_BUDGET)
    return complex(val) * s


def _singular_points(k: float, c: float) -> tuple[list[float], list[float]]:
    """(branch points, poles), each sorted ascending."""
    return [-k, -1.0, 1.0, k], sorted([c, -k / c])


def _min_gap(k: float, c: float) -> float:
    pts = sorted([-k, -1.0, 1.0, k, c, -k / c])
    return min(b - a for a, b in zip(pts, pts[1:]))


def _orbit_reduce(raw: float) -> float:
    """Reduce Im L(1)/pi into (0,1): kept as-is when already there,
    otherwise mod 2 and folded to min{frac, 1-frac} (dihedral orbit)."""
    if 0.0 < raw < 1.0:
        return raw
    frac = (raw % 2.0) % 1.0
    return min(frac, 1.0 - frac)


def _march(k: float, c: float, A: float, targets: list[float],
           tol: float) -> dict[float, complex]:
    """L at real targets, marching from the base point k along the axis.

    Segments stop at every branch point (square-root substitution on the
    touching end) and detour over poles on semicircles through the upper
    half-plane.  Pole radii shrink if a target sits close by.
    """
    branch, poles = _singular_points(k, c)
    branch_set = set(branch)
    r0 = ARC_FACTOR * _min_gap(k, c)
    radius = {}
    for p in poles:
        near = min((abs(t - p) for t in targets), default=math.inf)
        radius[p] = min(r0, 0.5 * near)

    out: dict[float, complex] = {}
    if k in targets:
        out[k] = 0.0 + 0.0j

    right = sorted(t for t in targets if t > k)
    cur, val = k, 0.0 + 0.0j
    for t in right:
        val += _real_segment(k, c, A, cur, t, tol,
                             sqrt_start=cur in branch_set,
                             sqrt_end=t in branch_set)
        out[t] = val
        cur = t

    left = [t for t in targets if t < k]
    if left:
        lowest = min(left)
        events: dict[float, set[str]] = {}
        for t in left:
            events.setdefault(t, set()).add("target")
        for b in branch:
            if lowest < b < k:
                events.setdefault(b, set()).add("branch")
        for p in poles:
            if lowest <= p < k:
                events.setdefault(p, set()).add("pole")
        cur, val = k, 0.0 + 0.0j
        for pos in sorted(events, reverse=True):
            kinds = events[pos]
            if "pole" in kinds:
                r = radius[pos]
                val += _real_segment(k, c, A, cur, pos + r, tol,
                                     sqrt_start=cur in branch_set)
                # leftward travel: upper semicircle from angle 0 to pi,
                # integrated in the displacement from the pole
                val += integrate_arc(_integrand_from(k, c, A, pos, 1.0),
                                     0.0, r, 0.0, math.pi, tol)
                cur = pos - r
            else:
                val += _real_segment(k, c, A, cur, pos, tol,
                                     sqrt_start=cur in branch_set,
                                     sqrt_end=pos in branch_set)
                cur = pos
                if "target" in kinds:
                    out[pos] = val
    return out


def _polyline_eval(k: float, c: float, A: float, z: complex, tol: float,
                   waypoints=None) -> complex:
    """L(z) along k -> k+ih -> Re z + ih -> z, or along given waypoints."""
    f = _integrand(k, c, A)
    branch_reals = {-k, -1.0, 1.0, k}
    if waypoints is None:
        h = max(0.5, z.imag)
        verts = [complex(k, 0.0), complex(k, h), complex(z.real, h), z]
    else:
        verts = [complex(k, 0.0), *(complex(w) for w in waypoints), z]
        for v in verts:
            if v.imag < 0.0:
                raise DomainError(f"waypoint {v} lies below the real axis")
    verts = [complex(v.real, 0.0) if v.imag == 0.0 else v for v in verts]
    total = 0.0 + 0.0j
    for z0, z1 in zip(verts, verts[1:]):
        if z0 == z1:
            continue
        total += integrate_segment(
            f, z0, z1, tol,
            sqrt_start=z0.imag == 0.0 and z0.real in branch_reals,
            sqrt_end=z1.imag == 0.0 and z1.real in branch_reals)
    return total


def L_eval(sol: AccessorySolution, z: complex, tol: float = 1e-10,
           waypoints=None) -> complex:
    """Logarithm of the developing map at z in the closed upper half-plane.

    Branch points are admissible targets (the integral stays finite and
    the endpoint substitution handles them); the poles c and -k/c are
    not.  z = k returns exactly 0 (empty path).  Optional waypoints
    override the default route for path-independence experiments.
    """
    k, c, A = sol.param.k, sol.c, sol.A
    z = complex(z)
    if z.imag == 0.0:
        z = complex(z.real, 0.0)  # normalize -0.0 onto the upper side
    if z.imag < 0.0:
        raise DomainError(f"z must lie in the closed upper half-plane, got {z}")
    if z == complex(k, 0.0):
        return 0.0 + 0.0j
    for p in (c, -k / c):
        if abs(z - p) < 1e-12:
            raise DomainError(f"z = {z} sits on the pole {p}")
    if waypoints is None and z.imag == 0.0:
        return _march(k, c, A, [z.real], tol)[z.real]
    return _polyline_eval(k, c, A, z, tol, waypoints)


def alpha_from_parts(k: float, c: float, A: float, tol: float = 1e-10) -> float:
    """Angle parameter from raw solver output, before an
    AccessorySolution exists (used during solve)."""
    l1 = _march(k, c, A, [1.0], tol)[1.0]
    return _orbit_reduce(l1.imag / math.pi)


def extract_alpha(sol: AccessorySolution, tol: float = 1e-10) -> float:
    """Angle parameter alpha = Im L(1)/pi reduced into (0, 1).

    Values already in (0,1) are kept; anything else is reduced modulo 2
    and folded by the dihedral orbit rule min{frac, 1 - frac}."""
    raw = L_eval(sol, 1.0, tol).imag / math.pi
    return _orbit_reduce(raw)


def pole_residue(sol: AccessorySolution, which: str = "c",
                 tol: float = 1e-10) -> complex:
    """Residue of the L-integrand at a pole, by a small closed loop.

    Only meaningful for the first family, where both poles sit away
    from the branch cuts (-k,-1) and (1,k) so the integrand is analytic
    in a punctured disc around them.
    """
    k, c, A = sol.param.k, sol.c, sol.A
    p = {"c": c, "d": -k / c}.get(which)
    if p is None:
        raise DomainError(f"which must be 'c' or 'd', got {which!r}")
    if not (0.0 < c < 1.0):
        raise DomainError("residue loops are only valid for first-family poles "
                          "(second-family poles lie on the branch cuts)")
    others = [q for q in [-k, -1.0, 1.0, k, c, -k / c] if q != p]
    r = 0.45 * min(abs(p - q) for q in others)
    f = _integrand(k, c, A)
    loop = integrate_arc(f, complex(p, 0.0), r, 0.0, 2.0 * math.pi, tol)
    return loop / (2.0j * math.pi)


@dataclass(frozen=True)
class SideImage:
    """Image statistics of one boundary side under f = exp(L)."""

    side: str        # one of "(-1,1)", "(1,k)", "outer", "(-k,-1)"
    target: str      # "line_alpha", "unit_circle", or "real_line"
    samples: int
    max_dist_assigned: float
    max_dist_real: float
    max_dist_unit: float
    max_dist_line: float

    def __post_init__(self) -> None:
        for name in ("max_dist_assigned", "max_dist_real",
                     "max_dist_unit", "max_dist_line"):
            if getattr(self, name) < 0.0:
                raise DomainError(f"{name} must be nonnegative")


@dataclass(frozen=True)
class BoundaryImageReport:
    """Distances of the sampled boundary image to the three circles
    {real line, line through 0 at the corner angle, unit circle}.

    two_circle_margins lists, for each pair of circles, the largest
    over all samples of the distance to the nearer circle of the pair;
    a pair containing the whole image would make its margin ~ 0.
    """

    alpha: float
    line_angle: float
    sides: tuple[SideImage, ...]
    unit_sides: tuple[str, str]
    unit_pair_opposite: bool
    two_circle_margins: tuple[tuple[str, float], ...]
    samples: tuple | None = None  # per side: ((x, f(x)), ...) when kept

    def __post_init__(self) -> None:
        if not self.unit_pair_opposite:
            raise DomainError(
                f"unit-circle sides {self.unit_sides} are not an opposite pair")


_SIDE_ORDER = ["(-1,1)", "(1,k)", "outer", "(-k,-1)"]
_SIDE_TARGET = {"(-1,1)": "line_alpha", "(1,k)": "unit_circle",
                "outer": "real_line", "(-k,-1)": "unit_circle"}


def boundary_check(sol: AccessorySolution, samples_per_side: int = 16,
                   tol: float = 1e-10,
                   keep_samples: bool = False) -> BoundaryImageReport:
    """Sample the four boundary sides and locate their f-images.

    Boundary values are the limits from above, which the upper-branch
    square roots deliver exactly at height 0.  Samples falling inside a
    pole detour zone are dropped (the image runs to infinity along its
    circle there).
    """
    if samples_per_side < 1:
        raise DomainError("need at least one sample per side")
    k, c, A = sol.param.k, sol.c, sol.A
    _, poles = _singular_points(k, c)
    excl = 2.0 * ARC_FACTOR * _min_gap(k, c)
    n = samples_per_side

    def clear_of_poles(x: float) -> bool:
        return all(abs(x - p) >= excl for p in poles)

    def grid(a: float, b: float) -> list[float]:
        return [a + (b - a) * (j + 0.5) / n for j in range(n)]

    n_pos = (n + 1) // 2
    n_neg = n - n_pos
    # unbounded side via x = 1/u: u on a uniform grid in (0, 1/k)
    outer = [k * n_pos / (j + 0.5) for j in range(n_pos)]
    outer += [-k * n_neg / (j + 0.5) for j in range(n_neg)]

    side_samples = {
        "(-1,1)": [x for x in grid(-1.0, 1.0) if clear_of_poles(x)],
        "(1,k)": [x for x in grid(1.0, k) if clear_of_poles(x)],
        "outer": [x for x in outer if clear_of_poles(x)],
        "(-k,-1)": [x for x in grid(-k, -1.0) if clear_of_poles(x)],
    }
    targets = sorted({x for xs in side_samples.values() for x in xs} | {1.0})
    lmap = _march(k, c, A, targets, tol)
    theta = lmap[1.0].imag  # actual corner angle; line_alpha in the image
    alpha = _orbit_reduce(theta / math.pi)
    rot = cmath.exp(-1j * theta)

    def dists(w: complex) -> tuple[float, float, float]:
        return (abs(w.imag),                # real line
                abs(abs(w) - 1.0),          # unit circle
                abs((w * rot).imag))        # line at the corner angle

    sides = []
    kept = []
    margins = {("real_line", "unit_circle"): 0.0,
               ("real_line", "line_alpha"): 0.0,
               ("unit_circle", "line_alpha"): 0.0}
    by_circle = {"real_line": 0, "unit_circle": 1, "line_alpha": 2}
    for label in _SIDE_ORDER:
        xs = side_samples[label]
        ws = [cmath.exp(lmap[x]) for x in xs]
        all_d = [dists(w) for w in ws]
        max_real = max((d[0] for d in all_d), default=0.0)
        max_unit = max((d[1] for d in all_d), default=0.0)
        max_line = max((d[2] for d in all_d), default=0.0)
        assigned = _SIDE_TARGET[label]
        max_assigned = {"real_line": max_real, "unit_circle": max_unit,
                        "line_alpha": max_line}[assigned]
        sides.append(SideImage(side=label, target=assigned, samples=len(xs),
                               max_dist_assigned=max_assigned,
                               max_dist_real=max_real, max_dist_unit=max_unit,
                               max_dist_line=max_line))
        kept.append(tuple(zip(xs, ws)))
        for pair in margins:
            i, j = by_circle[pair[0]], by_circle[pair[1]]
            for d in all_d:
                margins[pair] = max(margins[pair], min(d[i], d[j]))

    # the unit-circle pair is fixed by the side -> circle assignment;
    # second-family solutions rescale parts of these sides by exp(+-pi)
    # across the pole detours, which the recorded distances expose
    unit_sides = tuple(s.side for s in sides if s.target == "unit_circle")
    ia, ib = _SIDE_ORDER.index(unit_sides[0]), _SIDE_ORDER.index(unit_sides[1])
    opposite = (ia - ib) % 2 == 0
    return BoundaryImageReport(
        alpha=alpha, line_angle=theta, sides=tuple(sides),
        unit_sides=unit_sides, unit_pair_opposite=opposite,
        two_circle_margins=tuple((f"{a}+{b}", v) for (a, b), v in margins.items()),
        samples=tuple(kept) if keep_samples else None)
