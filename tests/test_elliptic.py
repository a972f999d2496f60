"""Elliptic integrals: AGM against hand iterations and series oracles."""
import math

import mpmath as mp
import pytest

from sphrect import agm, ellip_E, ellip_K
from sphrect.errors import DomainError
from sphrect.quadrature import integrate_singular

Q = 0.9089085575  # modulus used repeatedly below; nothing special about it
                  # beyond being deep in the slowly-converging region


def _k_series(kappa: float) -> float:
    """K by its hypergeometric series (pi/2) sum ((2n)!/(2^2n n!^2))^2 kappa^2n.

    Independent of the AGM path; term ratio ((2n+1)/(2n+2))^2 kappa^2.
    """
    term, total = 1.0, 1.0
    k2 = kappa * kappa
    for n in range(400):
        term *= ((2 * n + 1) / (2 * n + 2)) ** 2 * k2
        total += term
        if term < 1e-18 * total:
            break
    return 0.5 * math.pi * total


def _e_series(kappa: float) -> float:
    """E by the companion series; the n-th K term divided by (1 - 2n)."""
    term, total = 1.0, 1.0
    k2 = kappa * kappa
    for n in range(400):
        term *= ((2 * n + 1) / (2 * n + 2)) ** 2 * k2
        total -= term / (2 * n + 1)
        if term < 1e-18:
            break
    return 0.5 * math.pi * total


def test_agm_fixed_point():
    assert agm(1.0, 1.0) == 1.0
    assert agm(3.5, 3.5) == 3.5


def test_agm_hand_iterations():
    # three explicit recurrence steps bound the limit from both sides
    a0, b0 = 1.0, Q
    a1, b1 = 0.5 * (a0 + b0), math.sqrt(a0 * b0)
    a2, b2 = 0.5 * (a1 + b1), math.sqrt(a1 * b1)
    a3 = 0.5 * (a2 + b2)
    assert a1 == pytest.approx(0.95445427875, abs=1e-12)
    assert a3 == pytest.approx(0.9539105411476291, abs=1e-12)
    got = agm(1.0, Q)
    assert b2 <= got <= a2
    assert got == pytest.approx(a3, abs=1e-9)
    assert got == pytest.approx(0.9539105411476274, abs=1e-13)


def test_agm_homogeneity(rng):
    for _ in range(50):
        a, b, c = rng.uniform(0.1, 10.0, size=3)
        lhs = agm(c * a, c * b)
        rhs = c * agm(a, b)
        assert abs(lhs - rhs) <= 8.0 * math.ulp(max(lhs, rhs))


def test_agm_domain():
    with pytest.raises(DomainError):
        agm(0.0, 1.0)
    with pytest.raises(DomainError):
        agm(1.0, -2.0)


def test_complement_near_one():
    # (1-k)(1+k) formulation keeps precision where 1 - k^2 would not;
    # compare K against 30 digits at the stored double (mpmath takes k^2)
    k = 1.0 - 1e-12
    with mp.workdps(30):
        want = mp.ellipk(mp.mpf(k) ** 2)
        assert abs(ellip_K(k) - want) / want <= 1e-14


def test_K_degenerate_and_domain():
    assert ellip_K(0.0) == pytest.approx(0.5 * math.pi, abs=1e-15)
    with pytest.raises(DomainError):
        ellip_K(1.0)
    with pytest.raises(DomainError):
        ellip_K(-0.2)


def test_E_degenerate():
    assert ellip_E(0.0) == pytest.approx(0.5 * math.pi, abs=1e-15)
    assert ellip_E(1.0) == 1.0
    with pytest.raises(DomainError):
        ellip_E(1.0001)


def test_K_against_series():
    assert ellip_K(0.5) == pytest.approx(_k_series(0.5), abs=5e-15)
    assert ellip_K(0.5) == pytest.approx(1.685750354812596, abs=1e-14)
    assert ellip_K(Q) == pytest.approx(_k_series(Q), abs=5e-14)
    assert ellip_K(Q) == pytest.approx(2.3210497322979418, abs=1e-13)


def test_E_against_series():
    assert ellip_E(0.5) == pytest.approx(_e_series(0.5), abs=5e-15)
    assert ellip_E(0.5) == pytest.approx(1.4674622093394272, abs=1e-14)
    assert ellip_E(Q) == pytest.approx(_e_series(Q), abs=5e-14)
    assert ellip_E(Q) == pytest.approx(1.1605248663271899, abs=1e-13)


def test_K_equals_2E_near_Q():
    # Q is a 10-digit truncation of the root of K = 2E, so the residual
    # reflects the truncation, not the evaluator
    assert ellip_K(Q) - 2.0 * ellip_E(Q) == pytest.approx(0.0, abs=1e-9)


def test_legendre_relation(rng):
    for m in rng.uniform(0.01, 0.99, size=100):
        mp = math.sqrt((1.0 - m) * (1.0 + m))
        lhs = (ellip_E(m) * ellip_K(mp) + ellip_E(mp) * ellip_K(m)
               - ellip_K(m) * ellip_K(mp))
        assert lhs == pytest.approx(0.5 * math.pi, abs=1e-12)


def test_monotonicity():
    grid = [(i + 1) / 1001.0 for i in range(1000)]
    ks = [ellip_K(m) for m in grid]
    es = [ellip_E(m) for m in grid]
    assert all(b > a for a, b in zip(ks, ks[1:]))
    assert all(b < a for a, b in zip(es, es[1:]))


@pytest.mark.parametrize("m", [0.3, 0.5, 0.7, 0.9])
def test_K_against_quadrature(m):
    # direct integral over (0, 1) with the 1/sqrt(1-x) endpoint weight
    def f(x):
        return 1.0 / math.sqrt((1.0 + x) * (1.0 - m * m * x * x))

    val, _ = integrate_singular(f, 0.0, 1.0, (0.0, -0.5), tol=1e-12)
    assert val == pytest.approx(ellip_K(m), abs=1e-9)
