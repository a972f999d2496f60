"""Both accessory functionals against a 30-digit mpmath oracle, and the
solvers at the domain edges where the old quadrature failed."""
import math

import mpmath as mp
import pytest

from sphrect import (bigF, critical_constants, family2_integral,
                     solve_family1, solve_family2)
from sphrect import accessory
from sphrect.accessory import RESIDUAL_TOL, _gauss_w, _scan_bracket
from sphrect.errors import AccuracyError, BracketError

C_NODE = math.cos(11.0 * math.pi / 33.0)  # a node of the 16-point rule
K_CRIT = critical_constants().k_crit


def _quad_theta(f, k, c):
    """Integral of f(theta) over (0, pi), for integrands written in
    x = cos(theta), where the edge weight w dx becomes (1 + x) dtheta.
    Breakpoints sit where the integrand changes scale: at sqrt(c - 1)
    for a pole just right of x = 1, near pi when -k crowds x = -1."""
    pts = {mp.mpf(0), mp.pi}
    if 1 < c < 2:
        pts.add(mp.sqrt(c - 1))
    if k < 3:
        pts.add(mp.pi - mp.sqrt(2 * (k - 1)))
    return mp.quad(f, sorted(pts), maxdegree=10)


def bigF_ref(k, c):
    """F from its definition: int (g - 1)/(x - c) + log((1-c)/(1+c))."""
    with mp.workdps(40):
        k, c = mp.mpf(k), mp.mpf(c)
        kc = k / c

        def f(t):
            x = mp.cos(t)
            g_s = (c + kc) / (x + kc) * mp.sqrt(
                (1 - c) * (k + c) * (k - x) / ((1 + c) * (k - c) * (k + x)))
            # g dx = (1 + x) g_s dtheta and dx = sin dtheta
            return ((1 + x) * g_s - mp.sin(t)) / (x - c)

        return +(_quad_theta(f, k, c) + mp.log((1 - c) / (1 + c)))


def family2_ref(k, c):
    """The second-family integral from its definition."""
    with mp.workdps(40):
        k, c = mp.mpf(k), mp.mpf(c)
        amp = (c * c + k) * mp.sqrt((c - 1) * (k + c) / ((c + 1) * (k - c)))

        def f(t):
            x = mp.cos(t)
            return (1 + x) * amp / (c * x + k) * mp.sqrt((k - x) / (k + x)) / (x - c)

        return +_quad_theta(f, k, c)


def _close(value, ref):
    return abs(value - ref) <= 1e-12 * max(1.0, abs(ref))


def test_gauss_rule_exact_on_polynomials():
    # the n-point rule is exact for w times any polynomial of degree < 2n
    x, w = _gauss_w(16)
    for m in range(32):
        with mp.workdps(30):
            ref = mp.quad(lambda t: (1 + mp.cos(t)) * mp.cos(t) ** m, [0, mp.pi])
        assert float(sum(w * x ** m)) == pytest.approx(float(ref), abs=1e-14)


@pytest.mark.parametrize("k, c", [
    (2.0, 0.5),
    (1.001, 5e-4),
    (2.0, C_NODE),
    (2.0, C_NODE + 1e-9),
    (2.0, C_NODE - 1e-9),
    (2.0, 1.0 - 1e-10),
    (K_CRIT - 1e-6, 1.0 - 1e-6),
])
def test_bigF_oracle(k, c):
    assert _close(bigF(k, c), bigF_ref(k, c))


@pytest.mark.parametrize("k", [1.05, 2.0, 2.4])
def test_bigF_finite_next_to_one(k):
    # the endpoint substitution used to round its node onto x = 1 here
    value = bigF(k, 1.0 - 1e-10)
    assert math.isfinite(value)
    assert _close(value, bigF_ref(k, 1.0 - 1e-10))


def test_bigF_fallback_near_k_one():
    # k - 1 = 1e-6 puts the branch point -k inside the 2048-node rule's
    # reach, so the adaptive engine takes over
    assert _close(bigF(1.0 + 1e-6, 1e-3), bigF_ref(1.0 + 1e-6, 1e-3))


def test_fallback_never_returns_nan(monkeypatch):
    monkeypatch.setattr(accessory, "integrate_singular",
                        lambda *args, **kw: (math.nan, math.inf))
    with pytest.raises(AccuracyError, match="non-finite"):
        bigF(1.0 + 1e-8, 1e-3)


@pytest.mark.parametrize("k, c", [
    (3.0, 1.0 + 1e-6),
    (3.0, 2.9),
    (10.0, 10.0 - 1e-6),
    (1000.0, 596.0),
])
def test_family2_integral_oracle(k, c):
    assert _close(family2_integral(k, c), family2_ref(k, c))


def test_scan_bracket_rejects_non_finite():
    with pytest.raises(BracketError, match="probe 0.5"):
        _scan_bracket(lambda c: math.nan if c == 0.5 else 0.4 - c,
                      [0.1, 0.3, 0.5, 0.7], "probe")


def _assert_root(sol, ref):
    """Residual gate, and the oracle changes sign across c -+ 1e-9."""
    assert abs(sol.residual) <= RESIDUAL_TOL
    lo, hi = ref(sol.k, sol.c - 1e-9), ref(sol.k, sol.c + 1e-9)
    assert lo > 0.0 > hi


@pytest.mark.parametrize("k", [98.89839984093585, 150.0, 1000.0])
def test_solve_family2_large_k(k):
    _assert_root(solve_family2(k), lambda k, c: family2_ref(k, c) + mp.pi)


def test_solve_family1_next_to_critical():
    _assert_root(solve_family1(K_CRIT - 2e-6), bigF_ref)


@pytest.mark.parametrize("dk", [4.0e-6, 6.3e-6, 9e-6])
def test_solve_family2_next_to_critical(dk):
    # the pole detour of the alpha extraction has radius ~ 1e-7 here
    _assert_root(solve_family2(K_CRIT + dk),
                 lambda k, c: family2_ref(k, c) + mp.pi)
