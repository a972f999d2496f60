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

from .accessory import AccessorySolution, _w_integral
from .errors import DomainError
from .quadrature import (DEFAULT_BUDGET, _from_end, _run_pieces,
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


def _integrand_from(k: float, c: float, A: float, e: float, s: float):
    """L-integrand at z = e + s*delta as a function of the displacement.

    delta is real (>= 0) along a segment, or complex with a positive
    imaginary part along a detour arc around e.  Every factor is an
    offset from e plus the displacement, so nodes close to e keep full
    precision; reconstructing z first and subtracting would zero out
    differences below one ulp of z.
    """
    # offsets from e of the branch points, ordered for sigma below
    offsets = np.array([e + 1.0, e - k, e - 1.0, e + k])
    o_c, o_d = e - c, e + k / c

    def f(delta):
        sd = s * np.asarray(delta)
        r = np.sqrt(np.asarray(np.add.outer(offsets, sd), dtype=complex))
        return A * (r[0] * r[1] / (r[2] * r[3])) / ((o_c + sd) * (o_d + sd))

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
        g = _integrand_from(k, c, A, e, direction)
        pieces.append(_from_end(g, hh) if flag
                      else (lambda u, g=g: hh * g(hh * u), 0.0, 1.0))
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

    One walk per direction stops, in order of distance from k, at the
    targets on its side and at every branch point and pole between k and
    its farthest target.  Segments take the square-root substitution on
    an end at a branch point; poles, all left of k, are passed on upper
    semicircles whose radii shrink if a target sits close by.
    """
    branch, poles = _singular_points(k, c)
    r0 = ARC_FACTOR * _min_gap(k, c)
    out = {k: 0.0 + 0.0j} if k in targets else {}
    for s in (1.0, -1.0):  # s * x grows with the distance from k on side s
        side = {t for t in targets if s * t > s * k}
        if not side:
            continue
        reach = max(s * t for t in side)
        stops = side | {x for x in branch + poles if s * k < s * x <= reach}
        cur, val = k, 0.0 + 0.0j
        for pos in sorted(stops, key=lambda x: s * x):
            if pos in poles:
                r = min(r0, 0.5 * min(abs(t - pos) for t in targets))
                val += _real_segment(k, c, A, cur, pos + r, tol,
                                     sqrt_start=cur in branch)
                # leftward travel: upper semicircle from angle 0 to pi,
                # integrated in the displacement from the pole
                val += integrate_arc(_integrand_from(k, c, A, pos, 1.0),
                                     0.0, r, 0.0, math.pi, tol)
                cur = pos - r
            else:
                val += _real_segment(k, c, A, cur, pos, tol,
                                     sqrt_start=cur in branch,
                                     sqrt_end=pos in branch)
                cur = pos
                if pos in side:
                    out[pos] = val
    return out


def _polyline_eval(k: float, c: float, A: float, z: complex, tol: float,
                   waypoints=None) -> complex:
    """L(z) along k -> k+ih -> Re z + ih -> z, or along given waypoints."""
    f = _integrand_from(k, c, A, 0.0, 1.0)
    branch_reals = {-k, -1.0, 1.0, k}
    if waypoints is None:
        h = max(0.5, z.imag)
        verts = [complex(k, 0.0), complex(k, h), complex(z.real, h), z]
    else:
        verts = [complex(k, 0.0), *(complex(w) for w in waypoints), z]
        for v in verts:
            if not (cmath.isfinite(v) and v.imag >= 0.0):
                raise DomainError(f"waypoint {v} is not a finite point of "
                                  "the closed upper half-plane")
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
    if not (cmath.isfinite(z) and z.imag >= 0.0):
        raise DomainError(f"z must be a finite point of the closed upper "
                          f"half-plane, got {z}")
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
    AccessorySolution exists (used during solve).

    On (1, k) the integrand of L is -i A |sigma|/((x-c)(x+k/c)), and
    x = m - h u (m = (1+k)/2, h = (k-1)/2) turns |sigma| into
    w(u) r(x), r = sqrt((x+1)/(x+k)), with the edge weight w of the
    accessory functionals.  With g = r/(x+k/c), g_c = g(c) and
    u_c = (m-c)/h,

        Im L(1) = -A [h int w (g(x) - g_c)/(x - c) du - g_c H(u_c)],

    H the Hilbert transform of w: pi when c lies inside (1, k) (the
    detour over c adds a real half-residue only), and
    pi (1 - sqrt((k-c)/(1-c))) when c lies in (0, 1).  The divided
    difference has x - c cancelled in closed form.
    """
    m, h = 0.5 * (1.0 + k), 0.5 * (k - 1.0)
    kc = k / c
    r_c = math.sqrt((c + 1.0) / (c + k))
    g_c = r_c / (c + kc)
    if c > 1.0:
        hilbert = math.pi
    else:
        hilbert = -math.pi * (k - 1.0) / ((1.0 - c) + math.sqrt((1.0 - c) * (k - c)))

    # (r(x) - r_c)/(x - c) = (k-1)/((x+k)(c+k)(r(x) + r_c))
    def divided(u: np.ndarray) -> np.ndarray:
        x = m - h * u
        r = np.sqrt((x + 1.0) / (x + k))
        return (-r / ((x + kc) * (c + kc))
                + (k - 1.0) / ((c + kc) * (x + k) * (c + k) * (r + r_c)))

    total = _w_integral(divided, tol / (A * h), f"alpha (k={k}, c={c})")
    return _orbit_reduce(-A * (h * total - g_c * hilbert) / math.pi)


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
    f = _integrand_from(k, c, A, 0.0, 1.0)
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
_CIRCLES = ("real_line", "unit_circle", "line_alpha")  # the order of dists


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

    sides, kept, every = [], [], []
    for label in _SIDE_ORDER:
        xs = side_samples[label]
        ws = [cmath.exp(lmap[x]) for x in xs]
        all_d = [dists(w) for w in ws]
        most = [max((d[i] for d in all_d), default=0.0) for i in range(3)]
        assigned = _SIDE_TARGET[label]
        sides.append(SideImage(
            side=label, target=assigned, samples=len(xs),
            max_dist_assigned=most[_CIRCLES.index(assigned)],
            max_dist_real=most[0], max_dist_unit=most[1], max_dist_line=most[2]))
        kept.append(tuple(zip(xs, ws)))
        every += all_d
    margins = tuple((f"{_CIRCLES[i]}+{_CIRCLES[j]}",
                     max((min(d[i], d[j]) for d in every), default=0.0))
                    for i, j in ((0, 1), (0, 2), (1, 2)))

    # the unit-circle pair is fixed by the side -> circle assignment;
    # second-family solutions rescale parts of these sides by exp(+-pi)
    # across the pole detours, which the recorded distances expose
    unit_sides = tuple(s.side for s in sides if s.target == "unit_circle")
    ia, ib = _SIDE_ORDER.index(unit_sides[0]), _SIDE_ORDER.index(unit_sides[1])
    opposite = (ia - ib) % 2 == 0
    return BoundaryImageReport(
        alpha=alpha, line_angle=theta, sides=tuple(sides),
        unit_sides=unit_sides, unit_pair_opposite=opposite,
        two_circle_margins=margins,
        samples=tuple(kept) if keep_samples else None)
