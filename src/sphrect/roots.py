"""Bracketed root finding shared by the solvers and the constants.

One safeguarded finder (Brent, Algorithms for Minimization without
Derivatives, 1973, ch. 4): inverse quadratic or secant steps inside a
bracket that always keeps a sign change, with a bisection step whenever
the interpolant would move too little or leave the bracket.
"""
from __future__ import annotations

import math
import sys

from .errors import BracketError

_EPS = sys.float_info.epsilon


def _brent(fun, lo: float, hi: float, f_lo: float, f_hi: float,
           ctol: float) -> float:
    """Root of fun in [lo, hi], given f_lo = fun(lo) and f_hi = fun(hi).

    The two values must differ in sign, or one of them be exactly zero
    (that end is returned).  Every evaluation lies inside the current
    bracket.  Stops when the bracket around the best point b is at most
    4 eps |b| + ctol wide, or fun(b) == 0, and returns b.
    """
    if f_lo == 0.0:
        return lo
    if f_hi == 0.0:
        return hi
    if (f_lo > 0.0) == (f_hi > 0.0):
        raise BracketError(f"no sign change over [{lo!r}, {hi!r}]")
    # b: best point so far; c: the other end of the bracket; a: previous b
    a, fa, b, fb = lo, f_lo, hi, f_hi
    c, fc, d, e = a, fa, b - a, b - a
    while True:
        if (fb > 0.0) == (fc > 0.0):
            c, fc = a, fa
            d = e = b - a
        if abs(fc) < abs(fb):
            a, b, c = b, c, b
            fa, fb, fc = fb, fc, fb
        tol1 = 2.0 * _EPS * abs(b) + 0.5 * ctol
        m = 0.5 * (c - b)
        if abs(m) <= tol1 or fb == 0.0:
            return b
        if abs(e) >= tol1 and abs(fa) > abs(fb):
            s = fb / fa
            if a == c:  # secant
                p, q = 2.0 * m * s, 1.0 - s
            else:  # inverse quadratic through a, b, c
                q, r = fa / fc, fb / fc
                p = s * (2.0 * m * q * (q - r) - (b - a) * (r - 1.0))
                q = (q - 1.0) * (r - 1.0) * (s - 1.0)
            if p > 0.0:
                q = -q
            else:
                p = -p
            if 2.0 * p < min(3.0 * m * q - abs(tol1 * q), abs(e * q)):
                e, d = d, p / q
            else:
                d = e = m
        else:
            d = e = m
        a, fa = b, fb
        b += d if abs(d) > tol1 else math.copysign(tol1, m)
        fb = fun(b)
