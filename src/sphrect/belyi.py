"""Dihedral invariants and the three algebraic developing-map examples.

The examples are rational Belyi functions of degrees 4, 6, 6 whose
coefficients live in Q(2^(1/3), sqrt(8*2^(2/3)+10*2^(1/3)+13)) or
Q(sqrt(3)).  They are carried as 40-digit floats with provenance
strings.  Verification factors the three fibres over 0, 1 and inf
once: by Riemann-Hurwitz a degree-d map is Belyi exactly when these
fibres carry all 2d - 2 of its ramification, which the assembled
portrait checks.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import mpmath as mp
import numpy as np

from .errors import AccuracyError, BelyiViolationError, DomainError

__all__ = [
    "RationalMap",
    "PortraitPoint",
    "RamificationPortrait",
    "dihedral_invariant",
    "example_map",
    "verify_belyi",
    "example_anchor",
]

DPS = 40


# ---------------------------------------------------------------- polynomials
# coefficients descending, entries mpf/mpc

def _trim(p: list) -> list:
    if not p:
        return [mp.mpf(0)]
    top = max(abs(c) for c in p)
    if top == 0:
        return [mp.mpf(0)]
    i = 0
    while i < len(p) - 1 and abs(p[i]) <= 1e-35 * top:
        i += 1
    return p[i:]


def _polymul(p: list, q: list) -> list:
    out = [mp.mpf(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def _polysub(p: list, q: list) -> list:
    n = max(len(p), len(q))
    pp = [mp.mpf(0)] * (n - len(p)) + list(p)
    qq = [mp.mpf(0)] * (n - len(q)) + list(q)
    return [a - b for a, b in zip(pp, qq)]


def _polyder(p: list) -> list:
    n = len(p) - 1
    if n == 0:
        return [mp.mpf(0)]
    return [c * (n - i) for i, c in enumerate(p[:-1])]


def _polyval(p: list, z):
    acc = mp.mpf(0)
    for c in p:
        acc = acc * z + c
    return acc


def _from_roots(roots: list) -> list:
    p = [mp.mpf(1)]
    for r in roots:
        p = _polymul(p, [mp.mpf(1), -r])
    return p


def _resultant(p: list, q: list):
    """Sylvester-matrix resultant of two polynomials."""
    m, n = len(p) - 1, len(q) - 1
    size = m + n
    mat = mp.zeros(size, size)
    for row in range(n):
        for j, c in enumerate(p):
            mat[row, row + j] = c
    for row in range(m):
        for j, c in enumerate(q):
            mat[n + row, row + j] = c
    return mp.det(mat)


# ---------------------------------------------------------------- public types

@dataclass(frozen=True)
class RationalMap:
    """Rational function num/den with high-precision coefficients.

    Coefficients are descending-order mpmath numbers, mpf or mpc; a map
    whose coefficients are all mpf takes the real path of the root
    finder.  Provenance records the exact radical expressions they were
    built from.
    """

    num: tuple
    den: tuple
    degree: int
    provenance: str
    label: str
    variant: str = "standard"

    def __post_init__(self) -> None:
        if abs(self.num[0]) == 0 or abs(self.den[0]) == 0:
            raise DomainError("leading coefficients must be nonzero")
        want = max(len(self.num), len(self.den)) - 1
        if self.degree != want:
            raise DomainError(f"degree {self.degree} != max(deg num, deg den) = {want}")
        with mp.workdps(DPS):
            pn = [c / max(abs(x) for x in self.num) for c in self.num]
            pd = [c / max(abs(x) for x in self.den) for c in self.den]
            res = _resultant(pn, pd)
            if abs(res) <= 1e-12:
                raise DomainError(
                    f"numerator and denominator share a factor (resultant {res})")

    def __call__(self, z):
        with mp.workdps(DPS):
            return _polyval(list(self.num), z) / _polyval(list(self.den), z)


@dataclass(frozen=True)
class PortraitPoint:
    """One point of a ramification portrait; point None means infinity."""

    point: complex | None
    local_degree: int
    critical_value: float  # 0.0, 1.0, or math.inf

    def __post_init__(self) -> None:
        if self.local_degree < 1:
            raise DomainError("local degree must be positive")
        if self.critical_value not in (0.0, 1.0, math.inf):
            raise DomainError(f"critical value must be 0, 1 or inf, "
                              f"got {self.critical_value!r}")


@dataclass(frozen=True)
class RamificationPortrait:
    """All points of the fibers over 0, 1, infinity with local degrees."""

    degree: int
    points: tuple[PortraitPoint, ...]

    def __post_init__(self) -> None:
        rh = sum(p.local_degree - 1 for p in self.points)
        if rh != 2 * self.degree - 2:
            raise BelyiViolationError(
                f"Riemann-Hurwitz sum {rh} != 2*{self.degree} - 2")
        for v in (0.0, 1.0, math.inf):
            total = sum(p.local_degree for p in self.points
                        if p.critical_value == v)
            if total != self.degree:
                raise BelyiViolationError(
                    f"fiber over {v} has total degree {total} != {self.degree}")

    def fiber(self, value: float) -> tuple[PortraitPoint, ...]:
        return tuple(p for p in self.points if p.critical_value == value)

    def critical_points(self) -> tuple[PortraitPoint, ...]:
        return tuple(p for p in self.points if p.local_degree >= 2)


# ---------------------------------------------------------------- operations

def dihedral_invariant(q: int, z: complex) -> complex:
    """Fundamental dihedral invariant -(1/4)(z^q + z^{-q} - 2).

    Real on the real line, the unit circle, and the line at angle pi/q;
    vanishes exactly at z = 1.
    """
    if not (isinstance(q, int) and q >= 1):
        raise DomainError(f"q must be a positive integer, got {q!r}")
    z = complex(z)
    if z == 0:
        raise DomainError("z = 0 is a pole of the invariant")
    zq = z ** q
    return -0.25 * (zq + 1.0 / zq - 2.0)


def _example1() -> RationalMap:
    with mp.workdps(DPS):
        num = [-c for c in _from_roots([mp.mpf(-2), mp.mpf(2), mp.mpf(2), mp.mpf(2)])]
        quad = [mp.mpf(1), mp.mpf(2), mp.mpf(-2)]
        den = [3 * c for c in _polymul(quad, quad)]
    return RationalMap(
        num=tuple(num), den=tuple(den), degree=4,
        provenance="h(z) = -(z+2)(z-2)^3 / (3 (z^2+2z-2)^2), integer coefficients",
        label="example-1 (alpha = 1/2, q = 2)")


def _example2_numbers(variant: str) -> tuple:
    """(s, x, a, y, t) of h = s (z-x)^2 (z-a) / ((z-y)^3 (z-t)^3), at DPS."""
    eps = mp.mpf(2) ** (mp.mpf(1) / 3)
    a = mp.mpf(5) / 4 * eps ** 2 + mp.mpf(3) / 2 * eps + 3
    x = -mp.mpf(1) / 10 * eps ** 2 - mp.mpf(3) / 10 * eps + mp.mpf(3) / 5
    root = mp.sqrt(8 * eps ** 2 + 10 * eps + 13)
    half_trace = (eps ** 2 + eps + 3) / 2
    y = half_trace - root / 2
    if variant == "corrected":
        t = half_trace + root / 2
    elif variant == "printed":
        t = half_trace + root
    else:
        raise DomainError(f"variant must be 'corrected' or 'printed', got {variant!r}")
    s = mp.mpf(33) / 4 * eps ** 2 + mp.mpf(21) / 2 * eps + 13
    return s, x, a, y, t


def _example2(variant: str) -> RationalMap:
    with mp.workdps(DPS):
        s, x, a, y, t = _example2_numbers(variant)
        num = [s * c for c in _from_roots([x, x, a])]
        den = _from_roots([y, y, y, t, t, t])
    return RationalMap(
        num=tuple(num), den=tuple(den), degree=6,
        provenance=(
            "h(z) = s (z-x)^2 (z-a) / ((z-y)^3 (z-t)^3) with eps = 2^(1/3), "
            "a = 5/4 eps^2 + 3/2 eps + 3, x = -1/10 eps^2 - 3/10 eps + 3/5, "
            "s = 33/4 eps^2 + 21/2 eps + 13, y = (eps^2+eps+3)/2 - sqrt(8 eps^2 + "
            "10 eps + 13)/2, t = (eps^2+eps+3)/2 "
            + ("+ sqrt(8 eps^2 + 10 eps + 13)/2 (corrected root pairing)"
               if variant == "corrected" else
               "+ sqrt(8 eps^2 + 10 eps + 13) (printed form; fails h(0)=1)")),
        label="example-2 (alpha = 1/3, q = 3)", variant=variant)


def _example3_numbers() -> tuple:
    """(lead, w, v) of h = lead (z-1)^3 / (27 (z-w)^3 (z-v)^3), at DPS."""
    s3 = mp.sqrt(3)
    return 64 * (135 + 78 * s3), 4 + 2 * s3, -2 * s3 / 3


def _example3() -> RationalMap:
    with mp.workdps(DPS):
        lead, w, v = _example3_numbers()
        num = [lead * c for c in _from_roots([mp.mpf(1)] * 3)]
        den = [27 * c for c in _from_roots([w] * 3 + [v] * 3)]
    return RationalMap(
        num=tuple(num), den=tuple(den), degree=6,
        provenance=("h(z) = 64 (135 + 78 sqrt(3)) (z-1)^3 / "
                    "((z - 4 - 2 sqrt(3))^3 (3 z + 2 sqrt(3))^3)"),
        label="example-3 (alpha = 2/3, q = 3)")


@lru_cache(maxsize=8)
def example_map(n: int, variant: str = "corrected") -> RationalMap:
    """Algebraic example n in {1, 2, 3}.

    Example 2 exists in two variants: 'corrected' (ships by default;
    satisfies all six defining conditions to working precision) and
    'printed' (the t-coefficient as printed, which measurably violates
    h(0) = 1 and is kept for comparison).
    """
    if n == 1:
        return _example1()
    if n == 2:
        return _example2(variant)
    if n == 3:
        return _example3()
    raise DomainError(f"example index must be 1, 2 or 3, got {n!r}")


def _cluster(seeds: np.ndarray, radius: float = 1e-4) -> list[tuple[complex, int]]:
    """Greedy clustering of root seeds; returns (centroid, multiplicity).

    The radius is relative to the cluster's own scale: a multiple root
    at |z| ~ s splits under coefficient rounding by ~ s * eps^(1/m),
    so an absolute radius would undercount large roots.
    """
    remaining = list(seeds)
    clusters = []
    while remaining:
        z0 = remaining.pop()
        group = [z0]
        changed = True
        while changed:
            changed = False
            for w in remaining[:]:
                if any(abs(w - g) <= radius * max(1.0, abs(g)) for g in group):
                    group.append(w)
                    remaining.remove(w)
                    changed = True
        clusters.append((sum(group) / len(group), len(group)))
    return clusters


def _refine_root(poly: list, seed, multiplicity: int):
    """Newton-polish a root of poly with known multiplicity.

    Applies Newton to the (m-1)-th derivative, where the root is simple.
    A seed with imaginary part exactly 0 of a polynomial with mpf
    coefficients is polished in mpf arithmetic: from a real start,
    Newton on a real polynomial never leaves the real axis.  Raises
    AccuracyError when the step does not fall below 10^(5-DPS).
    """
    target = list(poly)
    for _ in range(multiplicity - 1):
        target = _polyder(target)
    dtarget = _polyder(target)
    real = seed.imag == 0 and all(isinstance(c, mp.mpf) for c in poly)
    z = mp.mpf(seed.real) if real else mp.mpc(seed)
    goal = mp.mpf(10) ** (5 - DPS)
    step = mp.inf
    for _ in range(100):
        dz = _polyval(dtarget, z)
        if dz == 0:
            break
        step = _polyval(target, z) / dz
        z -= step
        if abs(step) < goal:
            return z
    raise AccuracyError(f"Newton polish near {complex(seed)} did not converge",
                        best=z, err_est=float(abs(step)))


def _roots_with_multiplicity(poly: list) -> list[tuple[mp.mpf | mp.mpc, int]]:
    """All roots of an mp-coefficient polynomial with multiplicities.

    Double-precision companion-matrix eigenvalues seed the clusters (a
    real matrix for mpf coefficients, so real roots come out exactly
    real); each cluster is polished once in extended precision.
    """
    poly = _trim(poly)
    if len(poly) == 1:
        return []
    real = all(isinstance(c, mp.mpf) for c in poly)
    seeds = np.roots(np.array(poly, dtype=float if real else complex))
    polished = []
    for centroid, m in _cluster(seeds):
        try:
            polished.append((_refine_root(poly, centroid, m), m, True))
        except AccuracyError as exc:
            polished.append((exc.best, m, False))
    # a cluster that was split by seed noise polishes its parts onto the
    # same point (plain Newton near a multiple root stalls within
    # ~1e-12 of it); merge such coincidences and re-polish, with the
    # multiplicity they jointly witness, only what grew or stalled
    merged: list[tuple[mp.mpf | mp.mpc, int, bool]] = []
    for root, mult, done in polished:
        for i, (r0, m0, _) in enumerate(merged):
            if abs(root - r0) < 1e-6 * max(1.0, abs(r0)):
                merged[i] = (r0, m0 + mult, False)
                break
        else:
            merged.append((root, mult, done))
    return [(root if done else _refine_root(poly, root, mult), mult)
            for root, mult, done in merged]


def verify_belyi(rmap: RationalMap, tol: float = 1e-10) -> RamificationPortrait:
    """Factor the fibres over 0, 1 and inf and build the portrait.

    A degree-d map ramifies 2d - 2 times in all (Riemann-Hurwitz), so
    it is Belyi exactly when these three fibres carry all of that
    ramification; the portrait raises when they do not.  A fibre point
    of multiplicity m >= 2 of P = num, num - den or den must also have
    |P/Q| <= tol with Q = den, den or num: its value lies within tol of
    0, 1 or inf, so two close simple roots cannot pass as a double one.
    """
    with mp.workdps(DPS):
        num, den = list(rmap.num), list(rmap.den)
        diff = _trim(_polysub(num, den))
        entries: list[PortraitPoint] = []
        for poly, other, value in ((num, den, 0.0), (diff, den, 1.0),
                                   (den, num, math.inf)):
            for root, mult in _roots_with_multiplicity(poly):
                if mult >= 2:
                    qv = abs(_polyval(other, root))
                    gap = abs(_polyval(poly, root)) / qv if qv != 0 else math.inf
                    if gap > tol:
                        raise BelyiViolationError(
                            f"critical point {complex(root)} of {rmap.label} "
                            f"({rmap.variant}) misses {value} by {float(gap):.3g}: "
                            f"|P/Q| > tol {tol}")
                entries.append(PortraitPoint(point=complex(root),
                                             local_degree=mult,
                                             critical_value=value))
        dn, dd = len(num) - 1, len(den) - 1
        if dn < dd:
            entries.append(PortraitPoint(point=None, local_degree=dd - dn,
                                         critical_value=0.0))
        elif dn > dd:
            entries.append(PortraitPoint(point=None, local_degree=dn - dd,
                                         critical_value=math.inf))
        elif abs(num[0] / den[0] - 1) <= math.sqrt(tol):
            entries.append(PortraitPoint(point=None,
                                         local_degree=dd - (len(diff) - 1),
                                         critical_value=1.0))
    return RamificationPortrait(degree=rmap.degree, points=tuple(entries))


def _deflate(poly: list, root) -> list:
    """Synthetic division of a descending-coefficient poly by (z - root)."""
    out = [poly[0]]
    for c in poly[1:-1]:
        out.append(c + out[-1] * root)
    return out


def example2_conditions(variant: str = "corrected") -> dict[str, float]:
    """Residuals of the defining conditions of the degree-6 example.

    Reports |h(0)-1|, |h(1)-1|, |h(w)-1|, |h'(1)|, |h''(1)|, |h'(w)|
    where w is the double point over 1 of the corrected map.  The
    printed variant is evaluated at the same test points, which is what
    exposes its failure.
    """
    rmap = example_map(2, variant)
    ref = example_map(2, "corrected")
    with mp.workdps(DPS):
        # num - den of the genuine map factors as s (z-1)^3 z (z-w)^2;
        # deflating the known roots leaves a quadratic with double root w
        diff = _trim(_polysub(list(ref.num), list(ref.den)))
        for _ in range(3):
            diff = _deflate(diff, mp.mpf(1))
        quad = _deflate(diff, mp.mpf(0))
        w = -quad[1] / (2 * quad[0])

        num, den = list(rmap.num), list(rmap.den)
        wronsk = _trim(_polysub(_polymul(_polyder(num), den),
                                _polymul(num, _polyder(den))))
        # h'' = (W' den - 2 W den') / den^3
        curv = _polysub(_polymul(_polyder(wronsk), den),
                        [2 * c for c in _polymul(wronsk, _polyder(den))])

        def h(z):
            return _polyval(num, z) / _polyval(den, z)

        def dh(z):
            return _polyval(wronsk, z) / _polyval(den, z) ** 2

        def d2h(z):
            return _polyval(curv, z) / _polyval(den, z) ** 3

        out = {
            "w": float(w),
            "h_at_0_minus_1": float(abs(h(mp.mpf(0)) - 1)),
            "h_at_1_minus_1": float(abs(h(mp.mpf(1)) - 1)),
            "h_at_w_minus_1": float(abs(h(w) - 1)),
            "dh_at_1": float(abs(dh(mp.mpf(1)))),
            "d2h_at_1": float(abs(d2h(mp.mpf(1)))),
            "dh_at_w": float(abs(dh(w))),
        }
    return out


def example_anchor(n: int) -> tuple:
    """Exact (k, c) of example n in {1, 2, 3}, as mpf at DPS digits.

    The corners are the odd-degree points over 0 and 1: -2, -1, 1, 2 in
    example 1, whose pole in (0, 1) is c = sqrt(3) - 1.  In examples 2
    and 3 they are (0, 1, a, inf), which z -> k (z - r) / (z + r), with
    r = sqrt(a) and k = (r + 1) / (r - 1), sends to (-k, -1, 1, k); c is
    the image of the triple pole w.
    """
    with mp.workdps(DPS):
        if n == 1:
            return mp.mpf(2), mp.sqrt(3) - 1
        if n == 2:
            _, _, a, _, w = _example2_numbers("corrected")
        elif n == 3:
            _, w, _ = _example3_numbers()
            a = 2 * w  # the corner 8 + 4 sqrt(3)
        else:
            raise DomainError(f"example index must be 1, 2 or 3, got {n!r}")
        r = mp.sqrt(a)
        k = (r + 1) / (r - 1)
        return k, k * (w - r) / (w + r)
