"""Conformal modulus: closed form vs quadrature oracle, inversion."""
import mpmath as mp
import numpy as np
import pytest

from sphrect import ellip_K, k_of_modulus, modulus_of_k, modulus_oracle
from sphrect.errors import AccuracyError, DomainError
from sphrect.quadrature import integrate_singular

# shared 500-point log grid; computed once at import, reused by three tests
_GRID = np.geomspace(1.001, 50.0, 500)
_MODS = [modulus_of_k(float(k)) for k in _GRID]


def test_frozen_values():
    assert modulus_of_k(2.0) == pytest.approx(0.6396307855855032, abs=1e-13)
    assert modulus_of_k(2.0) == pytest.approx(0.63963, abs=1e-5)
    # the k -> 1+ decay is only logarithmic; still well above 0.1 here
    assert modulus_of_k(1.0001) == pytest.approx(0.139133721305077, abs=1e-12)
    assert modulus_of_k(50.0) == pytest.approx(1.6864749617491412, abs=1e-12)


def test_domain():
    with pytest.raises(DomainError):
        modulus_of_k(1.0)
    with pytest.raises(DomainError):
        modulus_of_k(0.5)
    with pytest.raises(DomainError):
        modulus_oracle(0.99)
    with pytest.raises(DomainError):
        k_of_modulus(0.0)
    with pytest.raises(DomainError):
        k_of_modulus(-1.0)


@pytest.mark.parametrize("k", [1.5, 2.0, 3.0, 5.0])
def test_oracle_agreement_spot(k):
    assert abs(modulus_of_k(k) - modulus_oracle(k)) <= 1e-8


def test_oracle_example():
    assert modulus_oracle(2.0) == pytest.approx(0.63963, abs=1e-6)


def test_period_integral_identity():
    # W(k) = 2 int_0^1 dt/sqrt((1-t^2)(k^2-t^2)) equals (2/k) K(1/k)
    def fw(t):
        return 1.0 / np.sqrt((1.0 + t) * (4.0 - t * t))

    w_val, _ = integrate_singular(fw, 0.0, 1.0, (0.0, -0.5), tol=1e-12)
    assert 2.0 * w_val == pytest.approx(ellip_K(0.5), abs=1e-9)


def test_strict_monotonicity_on_grid():
    assert all(b > a for a, b in zip(_MODS, _MODS[1:]))


def test_oracle_agreement_on_grid():
    # thin the 500-point grid 5x; the quadrature oracle is the slow side
    for k in _GRID[::5]:
        assert abs(modulus_of_k(float(k)) - modulus_oracle(float(k))) <= 1e-8


def test_round_trip_on_grid():
    for k, mod in zip(_GRID, _MODS):
        assert abs(k_of_modulus(mod) - float(k)) <= 1e-8


def test_round_trip_examples():
    assert k_of_modulus(0.63963) == pytest.approx(2.0, abs=1e-3)
    assert k_of_modulus(modulus_of_k(3.0)) == pytest.approx(3.0, abs=1e-9)
    assert k_of_modulus(0.709459) == pytest.approx(2.4305, abs=1e-3)


def test_below_critical_band(consts):
    ks = np.linspace(1.001, consts.k_crit - 1e-6, 200)
    assert all(modulus_of_k(float(k)) < consts.K_crit for k in ks)
    assert consts.K_crit < 1.0


def test_unreachable_small_modulus():
    # k cannot sit closer to 1 than one ulp, flooring the modulus range
    with pytest.raises(AccuracyError):
        k_of_modulus(0.03)
    with pytest.raises(AccuracyError):
        k_of_modulus(0.05)


def test_large_modulus_inverts():
    k = k_of_modulus(1.6864749617491412)
    assert k == pytest.approx(50.0, rel=1e-6)


@pytest.mark.parametrize("k", [3.0, 40.0, 1e4, 1e7, 1e9, 1e15])
def test_closed_form_against_mpmath(k):
    # mpmath's ellipk takes the parameter, the square of the modulus
    with mp.workdps(40):
        kk = mp.mpf(k)
        want = mp.ellipk(1 - 1 / kk ** 2) / (2 * mp.ellipk(1 / kk ** 2))
        assert abs(modulus_of_k(k) - want) / want <= 1e-13


def test_huge_k_round_trip():
    # modulus 10 needs k ~ 1.1e13, where sqrt(1 - 1/k^2) rounds to 1
    assert abs(modulus_of_k(k_of_modulus(10.0)) - 10.0) <= 1e-9
