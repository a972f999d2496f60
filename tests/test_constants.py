"""Critical constants: the cached record and its root search."""
import math

import pytest

from sphrect import (critical_constants, ellip_E, ellip_K, kappa_prime_crit,
                     modulus_of_k)
from sphrect.accessory import _F1_SCAN, _scan_bracket, bigF
from sphrect.errors import BracketError


def test_record_invariants(consts):
    assert consts.kappa_crit ** 2 + consts.kappa_prime_crit ** 2 == pytest.approx(
        1.0, abs=1e-14)
    want_k = (1.0 + consts.kappa_crit) / (1.0 - consts.kappa_crit)
    assert consts.k_crit == pytest.approx(want_k, abs=1e-12)
    assert ellip_K(consts.kappa_prime_crit) == pytest.approx(
        2.0 * ellip_E(consts.kappa_prime_crit), abs=1e-10)
    want_lambda = math.exp(-math.pi * ellip_K(consts.kappa_crit)
                           / ellip_K(consts.kappa_prime_crit))
    assert consts.lambda_ == pytest.approx(want_lambda, abs=1e-12)
    want_b1 = ellip_K(consts.kappa_prime_crit) / ellip_K(consts.kappa_crit)
    assert consts.b1 == pytest.approx(want_b1, abs=1e-12)


def test_record_cached(consts):
    assert critical_constants() is consts


def test_frozen_values(consts):
    assert consts.kappa_prime_crit == pytest.approx(0.9089085575, abs=1e-9)
    assert consts.kappa_prime_crit == pytest.approx(0.908908557548733, abs=1e-12)
    assert consts.k_crit == pytest.approx(2.4305, abs=5e-5)
    assert consts.k_crit == pytest.approx(2.43047, abs=1e-4)
    assert consts.k_crit == pytest.approx(2.430505161629824, abs=1e-11)
    assert consts.K_crit == pytest.approx(0.709459, abs=2e-4)
    assert consts.lambda_ == pytest.approx(0.1076539192, abs=1e-9)
    assert consts.b1 == pytest.approx(1.40961, abs=1e-4)
    assert consts.b1 == pytest.approx(1.409523162665609, abs=1e-12)


def test_root_finder():
    kp = kappa_prime_crit(tol=1e-13)
    assert ellip_K(kp) - 2.0 * ellip_E(kp) == pytest.approx(0.0, abs=1e-10)
    # signs at the ends of kappa_prime_crit's bracket [0.1, 0.999]
    assert ellip_K(0.1) - 2.0 * ellip_E(0.1) < 0.0
    assert ellip_K(0.999) - 2.0 * ellip_E(0.999) > 0.0


def test_modulus_consistency(consts):
    assert modulus_of_k(consts.k_crit) == pytest.approx(consts.K_crit, abs=1e-4)


def test_first_family_bracket_fails_past_critical(consts):
    # the root leaves (0,1) above k_crit: the probe grid sees no sign change
    k = consts.k_crit + 0.01
    with pytest.raises(BracketError):
        _scan_bracket(lambda c: bigF(k, c, 1e-10), _F1_SCAN, "probe")


def test_first_family_scan_brackets_root_next_to_one():
    # at k = 1 + 1e-8 the root is c ~ 5.1e-8; at the solver's tolerance
    # F is negative at the probe 1e-7 and the probe 1e-8 lies below the root
    k = 1.0 + 1e-8
    bracket = _scan_bracket(lambda c: bigF(k, c, 1e-10), _F1_SCAN, "probe")
    assert bracket == (1e-8, 1e-7)
