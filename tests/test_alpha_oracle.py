"""The corner angle alpha = Im L(1)/pi against a 30-digit mpmath oracle.

alpha_from_parts sums Im L(1) over (1, k) on the Gauss rule of the edge
weight; the oracle takes the same principal value from its definition,
and extract_alpha reaches L(1) along the independent marching path.
"""
import math

import mpmath as mp
import numpy as np
import pytest

from sphrect import amp_A, critical_constants, extract_alpha
from sphrect import solve_family1, solve_family2
from sphrect.developing import _orbit_reduce, alpha_from_parts
from sphrect.errors import DomainError

K_CRIT = critical_constants().k_crit


def im_L1_ref(k, c, A):
    """Im L(1) = -A PV int_1^k |sigma(x)| / ((x - c)(x + k/c)) dx.

    With x = 1 + s^2 the inverse square root at x = 1 cancels against
    dx = 2 s ds.  A pole c inside (1, k) sits at s_c = sqrt(c - 1), and
    the principal value is taken by subtracting the pole term there."""
    with mp.workdps(40):
        k, c, A = mp.mpf(k), mp.mpf(c), mp.mpf(A)
        top = mp.sqrt(k - 1)

        def phi(s):
            x = 1 + s * s  # k - x = (top - s)(top + s), >= 0 as written
            return 2 * mp.sqrt((x + 1) * (top - s) * (top + s) / (x + k)) / (x + k / c)

        if c < 1:
            pts = sorted({mp.mpf(0), min(mp.sqrt(1 - c), top / 2), top})
            total = mp.quad(lambda s: phi(s) / (s * s + (1 - c)), pts)
        else:
            s_c = mp.sqrt(c - 1)

            def psi(s):  # x - c = (s - s_c)(s + s_c)
                return phi(s) / (s + s_c)

            psi_c = psi(s_c)
            total = (mp.quad(lambda s: (psi(s) - psi_c) / (s - s_c), [0, s_c, top])
                     + psi_c * mp.log((top - s_c) / s_c))
        return +(-A * total)


def _amp2(k, c):
    """Second-family amplitude (c - d) sqrt((c-1)(k+c)/((c+1)(k-c)))."""
    return (c + k / c) * math.sqrt((c - 1.0) * (k + c) / ((c + 1.0) * (k - c)))


def _solution(k):
    return solve_family1(k) if k < K_CRIT else solve_family2(k)


SOLVED_KS = [1.0 + 1e-8, 1.0 + 1e-6, 1.0 + 1e-4, 1.3, 2.0,
             K_CRIT - 1e-5, K_CRIT + 1e-5, K_CRIT + 1e-3, 3.0, 40.0, 200.0, 1000.0]


@pytest.mark.parametrize("k", SOLVED_KS)
def test_alpha_oracle_at_roots(k):
    sol = _solution(k)
    ref = _orbit_reduce(float(im_L1_ref(k, sol.c, sol.A) / mp.pi))
    assert abs(alpha_from_parts(k, sol.c, sol.A) - ref) <= 1e-13


@pytest.mark.parametrize("k, c", [
    # the solvers' scans miss these roots; 1 - c ~ 0.617 |k - k_crit|
    (K_CRIT - 1e-7, 1.0 - 6.17e-8),
    (K_CRIT + 1e-6, 1.0 + 6.17e-7),
])
def test_alpha_oracle_beside_critical(k, c):
    A = amp_A(k, c) if c < 1.0 else _amp2(k, c)
    ref = _orbit_reduce(float(im_L1_ref(k, c, A) / mp.pi))
    assert abs(alpha_from_parts(k, c, A) - ref) <= 1e-13


@pytest.mark.parametrize("k", SOLVED_KS)
def test_alpha_agrees_with_marching(k):
    sol = _solution(k)
    assert abs(sol.alpha - extract_alpha(sol)) <= 1e-11


def test_alpha_keeps_its_sign():
    # Im L(1)/pi is -0.8703 here, which reduces to 0.1297; reducing
    # |Im L(1)|/pi instead would keep 0.8703
    sol = solve_family1(2.4)
    raw = float(im_L1_ref(2.4, sol.c, sol.A) / mp.pi)
    assert raw == pytest.approx(-0.8703, abs=1e-4)
    assert sol.alpha == pytest.approx(0.1297, abs=1e-4)
    assert sol.alpha == pytest.approx(_orbit_reduce(raw), abs=1e-13)


def test_amp_A_is_the_second_family_amplitude(rng):
    # one formula through |1 - c| covers both families, bit for bit
    for _ in range(200):
        k = float(np.exp(rng.uniform(0.0, 7.0)))
        c = 1.0 + (k - 1.0) * float(rng.uniform(1e-9, 1.0 - 1e-9))
        if 1.0 < c < k:
            assert amp_A(k, c) == _amp2(k, c)
    for k in (2.5, 3.0, 40.0):
        c = solve_family2(k).c
        assert amp_A(k, c) == _amp2(k, c) == solve_family2(k).A
    for k, c in ((3.0, 1.0), (3.0, 0.0), (3.0, -0.5), (3.0, 3.0), (3.0, 4.0),
                 (1.0, 0.5), (0.5, 0.25), (3.0, math.nan)):
        with pytest.raises(DomainError):
            amp_A(k, c)
