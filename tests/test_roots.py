"""The bracketed root finder and its callers."""
import math

import mpmath as mp
import pytest

from sphrect import constants, modulus
from sphrect.constants import critical_constants, kappa_prime_crit
from sphrect.errors import BracketError
from sphrect.roots import _brent

LN2 = math.log(2.0)
SQRT2_LO = math.nextafter(math.nextafter(math.sqrt(2.0), 0.0), 0.0)
SQRT2_HI = math.nextafter(math.nextafter(math.sqrt(2.0), 2.0), 2.0)


def _recording(f):
    """f, with every argument it is called at appended to f.calls."""
    def g(x):
        g.calls.append(x)
        return f(x)
    g.calls = []
    return g


def test_root_within_ctol():
    root = _brent(lambda x: math.cos(x) - x, 0.0, 1.0, 1.0, math.cos(1.0) - 1.0, 1e-12)
    assert abs(root - 0.7390851332151607) <= 1e-12


@pytest.mark.parametrize("which", ["lo", "hi"])
def test_exact_zero_at_an_end(which):
    def never(x):
        raise AssertionError("no evaluation needed")

    f_lo, f_hi = (0.0, 3.0) if which == "lo" else (-3.0, 0.0)
    want = 0.25 if which == "lo" else 0.75
    assert _brent(never, 0.25, 0.75, f_lo, f_hi, 1e-12) == want


def test_no_sign_change_raises():
    with pytest.raises(BracketError):
        _brent(lambda x: 1.0, 0.0, 1.0, 1.0, 2.0, 1e-12)


@pytest.mark.parametrize("f, lo, hi", [
    (lambda x: math.exp(x) - 2.0, 0.0, 5.0),
    (lambda x: math.atan(1e6 * (x - 0.3)), 0.0, 1.0),   # steep at the root
    (lambda x: (x - 0.7) ** 9, 0.0, 1.0),               # flat at the root
    (lambda x: -1.0 if x < 1.0 / 3.0 else 1.0, 0.0, 1.0),  # a jump
    (lambda x: x * x - 2.0, SQRT2_LO, SQRT2_HI),        # a few ulp wide
])
def test_evaluations_stay_in_bracket(f, lo, hi):
    f = _recording(f)
    f_lo, f_hi = f(lo), f(hi)
    root = _brent(f, lo, hi, f_lo, f_hi, 1e-12)
    assert all(lo <= x <= hi for x in f.calls)
    assert lo <= root <= hi


def test_tight_phase_evaluation_count():
    # width 1e-4 down to 1e-12, as in the accessory root's tight phase
    f = _recording(lambda x: math.exp(x) - 2.0)
    lo, hi = LN2 - 3e-5, LN2 + 7e-5
    f_lo, f_hi = f(lo), f(hi)
    f.calls.clear()
    root = _brent(f, lo, hi, f_lo, f_hi, 1e-12)
    assert abs(root - LN2) <= 1e-12
    assert len(f.calls) <= 12


def test_kappa_prime_crit_against_mpmath(monkeypatch):
    f = _recording(constants._k_minus_2e)
    monkeypatch.setattr(constants, "_k_minus_2e", f)
    kp = kappa_prime_crit()
    with mp.workdps(40):
        ref = mp.findroot(lambda x: mp.ellipk(x * x) - 2 * mp.ellipe(x * x),
                          (mp.mpf("0.9"), mp.mpf("0.92")), solver="anderson")
        kappa = mp.sqrt(1 - ref * ref)
        k_crit_ref = (1 + kappa) / (1 - kappa)
    assert abs(kp - ref) <= 1e-14
    assert len(f.calls) <= 14  # 42 by bisection
    assert abs(critical_constants().k_crit - k_crit_ref) <= 1e-13


@pytest.mark.parametrize("k", [1.0 + 1e-6, 1.05, 2.0, 3.0, 50.0, 1000.0])
def test_k_of_modulus_evaluation_count(monkeypatch, k):
    target = modulus.modulus_of_k(k)
    f = _recording(modulus.modulus_of_k)
    monkeypatch.setattr(modulus, "modulus_of_k", f)
    assert modulus.k_of_modulus(target) == pytest.approx(k, rel=1e-9)
    assert not f.calls  # a closed form, not a search
