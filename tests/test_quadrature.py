"""Quadrature engine: endpoint weights, segments, arcs, and failure modes."""
import math

import numpy as np
import pytest

from sphrect.errors import AccuracyError, DomainError
from sphrect.quadrature import (EndpointExponents, integrate_arc,
                                integrate_segment, integrate_singular)


def test_exponent_validation():
    EndpointExponents(-0.5, 0.5)
    with pytest.raises(DomainError):
        EndpointExponents(-1.0, 0.0)
    with pytest.raises(DomainError):
        EndpointExponents(0.0, -1.5)


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


def test_singular_domain_checks():
    with pytest.raises(DomainError):
        integrate_singular(lambda x: 1.0, 1.0, -1.0, (0.0, 0.0))
    with pytest.raises(DomainError):
        integrate_singular(lambda x: 1.0, 0.0, 0.0, (0.0, 0.0))


def test_additivity_interior_split():
    def f(x):
        return math.exp(x) * math.cos(3.0 * x)

    whole, _ = integrate_singular(f, 0.0, 1.0, (0.0, 0.0), tol=1e-10)
    left, _ = integrate_singular(f, 0.0, 0.37, (0.0, 0.0), tol=1e-10)
    right, _ = integrate_singular(f, 0.37, 1.0, (0.0, 0.0), tol=1e-10)
    assert left + right == pytest.approx(whole, abs=2e-10)


def test_budget_exhaustion_carries_best():
    # highly oscillatory at an impossible tolerance and a tiny budget
    with pytest.raises(AccuracyError) as exc_info:
        integrate_singular(lambda x: np.cos(500.0 * x), -1.0, 1.0,
                           (-0.5, -0.5), tol=1e-16, budget=8)
    err = exc_info.value
    assert err.best is not None
    assert err.err_est is not None and err.err_est > 1e-16


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
