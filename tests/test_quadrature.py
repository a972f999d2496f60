"""Quadrature engine: endpoint weights, segments, arcs, and failure modes."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sphrect import L_eval, bigF, boundary_check, quadrature
from sphrect.errors import AccuracyError, DomainError
from sphrect.quadrature import (_run_pieces, integrate_arc, integrate_segment,
                                integrate_singular)


def test_exponent_validation():
    integrate_singular(lambda x: 1.0, -1.0, 1.0, (-0.5, 0.5))
    with pytest.raises(DomainError):
        integrate_singular(lambda x: 1.0, -1.0, 1.0, (-1.0, 0.0))
    with pytest.raises(DomainError):
        integrate_singular(lambda x: 1.0, -1.0, 1.0, (0.0, -1.5))


def test_arcsine_integral():
    val, err = integrate_singular(lambda x: 1.0, -1.0, 1.0, (-0.5, -0.5))
    assert val == pytest.approx(math.pi, abs=1e-12)
    assert err < 1e-10


def test_odd_part_drops():
    # (1+x)/sqrt(1-x^2): the x part integrates to zero by symmetry
    val, _ = integrate_singular(lambda x: 1.0 + x, -1.0, 1.0, (-0.5, -0.5))
    assert val == pytest.approx(math.pi, abs=1e-12)


@pytest.mark.parametrize("p", [-0.5, 0.5])
@pytest.mark.parametrize("q", [-0.5, 0.5])
def test_beta_closed_form(p, q):
    # integral of (1+x)^p (1-x)^q over (-1,1) = 2^(p+q+1) B(p+1, q+1)
    expected = (2.0 ** (p + q + 1.0) * math.gamma(p + 1.0) * math.gamma(q + 1.0)
                / math.gamma(p + q + 2.0))
    val, _ = integrate_singular(lambda x: 1.0, -1.0, 1.0, (p, q), tol=1e-12)
    assert val == pytest.approx(expected, abs=1e-10)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.floats(-0.999, 3.0), st.floats(-0.999, 3.0), st.floats(-5.0, 5.0),
       st.floats(1e-3, 2.0))
def test_beta_over_the_exponent_domain(p, q, a, width):
    # exponents below -1/2 used to leave u^(2p+1) singular after the
    # u^2 substitution, and the engine gave up on about one case in six
    b = a + width
    expected = ((b - a) ** (p + q + 1.0) * math.gamma(p + 1.0) * math.gamma(q + 1.0)
                / math.gamma(p + q + 2.0))
    val, _ = integrate_singular(np.ones_like, a, b, (p, q))
    assert abs(val - expected) <= 1e-10


def test_singular_domain_checks():
    with pytest.raises(DomainError):
        integrate_singular(lambda x: 1.0, 1.0, -1.0, (0.0, 0.0))
    with pytest.raises(DomainError):
        integrate_singular(lambda x: 1.0, 0.0, 0.0, (0.0, 0.0))


def test_additivity_interior_split():
    def f(x):
        return np.exp(x) * np.cos(3.0 * x)

    whole, _ = integrate_singular(f, 0.0, 1.0, (0.0, 0.0), tol=1e-10)
    left, _ = integrate_singular(f, 0.0, 0.37, (0.0, 0.0), tol=1e-10)
    right, _ = integrate_singular(f, 0.37, 1.0, (0.0, 0.0), tol=1e-10)
    assert left + right == pytest.approx(whole, abs=2e-10)


def test_budget_exhaustion_carries_best(monkeypatch):
    # highly oscillatory at an impossible tolerance and a tiny budget
    monkeypatch.setattr(quadrature, "DEFAULT_BUDGET", 8)
    with pytest.raises(AccuracyError) as exc_info:
        integrate_singular(lambda x: np.cos(500.0 * x), -1.0, 1.0,
                           (-0.5, -0.5), tol=1e-16)
    err = exc_info.value
    assert err.best is not None
    assert err.err_est is not None and err.err_est > 1e-16


def test_pieces_share_one_budget(monkeypatch):
    # the first piece spends the whole budget; the second still gets its
    # first panel, which integrates 1 exactly, and both enter the best total
    monkeypatch.setattr(quadrature, "DEFAULT_BUDGET", 9)
    first = (lambda x: np.cos(500.0 * x), -1.0, 1.0)
    with pytest.raises(AccuracyError) as alone:
        _run_pieces([first], 1e-16)
    with pytest.raises(AccuracyError) as both:
        _run_pieces([first, (lambda x: np.ones_like(x), 0.0, 1.0)], 1e-16)
    assert both.value.best == alone.value.best + 1.0


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_integral_raises(bad):
    # a NaN total or error estimate used to pass `err > tol` as converged;
    # inf nodes meet the zero Gauss weights, so 0 * inf is expected here
    with np.errstate(invalid="ignore"):
        with pytest.raises(AccuracyError) as exc_info:
            _run_pieces([(lambda x: np.full_like(x, bad), 0.0, 1.0)], 1e-10)
        assert exc_info.value.best is not None
        assert exc_info.value.err_est is not None
        with pytest.raises(AccuracyError):
            integrate_arc(lambda z: np.full_like(z, bad), 0.0, 1.0, 0.0, 1.0)


@pytest.mark.parametrize("tol", [math.nan, math.inf, 0.0, -1.0])
@pytest.mark.parametrize("call", [
    lambda sol, tol: integrate_singular(lambda x: np.cos(30.0 * x), -1.0, 1.0,
                                        (0.0, 0.0), tol=tol),
    lambda sol, tol: L_eval(sol, 0.5, tol=tol),
    lambda sol, tol: L_eval(sol, 0.3 + 0.7j, tol=tol),
    lambda sol, tol: boundary_check(sol, 4, tol=tol),
    lambda sol, tol: bigF(2.0, 0.5, tol=tol),
], ids=["integrate_singular", "L_eval_real", "L_eval_complex", "boundary_check",
        "bigF"])
def test_bad_tolerance_rejected(sol_k2, call, tol):
    # nan never failed `err > tol`, so it returned the first, unrefined
    # value; 0 and -1 spent the whole budget before failing
    with pytest.raises(DomainError):
        call(sol_k2, tol)


def test_segment_constant_and_linear():
    z0, z1 = 0.3 + 0.1j, -1.2 + 2.0j
    assert integrate_segment(lambda z: np.ones_like(z), z0, z1) == pytest.approx(z1 - z0)
    got = integrate_segment(lambda z: 2.0 * z, z0, z1, tol=1e-12)
    assert got == pytest.approx(z1 * z1 - z0 * z0, abs=1e-11)
    assert integrate_segment(lambda z: z, 1.0j, 1.0j) == 0.0


def test_segment_sqrt_endpoint():
    # 1/sqrt(z-1) from 1 to 2 = 2 sqrt(z-1) | = 2
    got = integrate_segment(lambda z: 1.0 / np.sqrt(z - 1.0), 1.0, 2.0,
                            tol=1e-12, sqrt_start=True)
    assert got == pytest.approx(2.0, abs=1e-10)


def test_arc_half_residue():
    got = integrate_arc(lambda z: 1.0 / z, 0.0, 1.0, 0.0, math.pi, tol=1e-12)
    assert got == pytest.approx(1j * math.pi, abs=1e-11)
    with pytest.raises(DomainError):
        integrate_arc(lambda z: z, 0.0, -1.0, 0.0, 1.0)
