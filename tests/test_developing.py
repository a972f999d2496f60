"""Developing-map logarithm: values, residues, paths, boundary images."""
import cmath
import math

import numpy as np
import pytest

from sphrect import (L_eval, boundary_check, critical_constants, extract_alpha,
                     pole_residue, solve_family1, solve_family2)
from sphrect.developing import _march, _orbit_reduce
from sphrect.errors import DomainError


def test_base_point_is_exact_zero(sol_k2):
    assert L_eval(sol_k2, 2.0) == 0.0 + 0.0j


def test_corner_values(sol_k2):
    # the angle at the image corner f(1) is alpha pi with alpha = 1/2
    l1 = L_eval(sol_k2, 1.0)
    assert l1 == pytest.approx(-0.5j * math.pi, abs=1e-9)
    lm1 = L_eval(sol_k2, -1.0)
    assert lm1.imag == pytest.approx(0.5 * math.pi, abs=1e-9)
    assert abs(lm1.real) < 1e-9


def test_frozen_values(sol_k2):
    assert L_eval(sol_k2, -3.0) == pytest.approx(2.5639446137349893, abs=1e-9)
    assert L_eval(sol_k2, 5.0) == pytest.approx(0.23826212823207055, abs=1e-9)
    got = L_eval(sol_k2, 1.0j)
    assert got == pytest.approx(-0.15945162287465936 + 0.9018322525268704j,
                                abs=1e-9)


def test_real_on_unit_circle_side(sol_k2):
    # (1, k) maps onto the unit circle, so Re L = log|f| vanishes there
    k, c = sol_k2.k, sol_k2.c
    excl = 0.05 * (k - 1.0)
    for j in range(20):
        x = 1.0 + (k - 1.0) * (j + 0.5) / 20.0
        if abs(x - c) < excl or abs(x + k / c) < excl:
            continue
        assert abs(L_eval(sol_k2, x).real) <= 1e-6


def test_real_beyond_k(sol_k2):
    # (k, infinity) maps into the positive real axis: Im L = 0
    k = sol_k2.k
    for j in range(20):
        x = k + 9.0 * k * (j + 0.5) / 20.0
        assert abs(L_eval(sol_k2, x).imag) <= 1e-6


def test_path_independence(sol_k2):
    targets = [0.5 + 0.8j, -2.0 + 1.5j, 3.0 + 0.4j, -0.3 + 2.5j, 1.8 + 1.0j,
               0.1 + 0.3j, -1.5 + 0.6j, 2.5 + 2.0j, -3.5 + 1.2j, 0.9 + 1.9j]
    for k in (1.5, 2.0, 2.3):
        sol = solve_family1(k)
        for z in targets:
            direct = L_eval(sol, z, tol=1e-10)
            high = [complex(sol.k, 3.0), complex(z.real - 1.0, 3.0)]
            rerouted = L_eval(sol, z, tol=1e-10, waypoints=high)
            assert abs(direct - rerouted) <= 2e-10


def test_pole_residues(sol_k2):
    assert pole_residue(sol_k2, "c") == pytest.approx(1.0 + 0.0j, abs=1e-10)
    assert pole_residue(sol_k2, "d") == pytest.approx(-1.0 + 0.0j, abs=1e-10)
    with pytest.raises(DomainError):
        pole_residue(sol_k2, "x")


def test_pole_residue_family2_rejected(sol2_k3):
    # second-family poles sit on the branch cuts; a loop would cross them
    with pytest.raises(DomainError):
        pole_residue(sol2_k3, "c")


def test_eval_domain(sol_k2):
    with pytest.raises(DomainError):
        L_eval(sol_k2, 1.0 - 0.5j)
    with pytest.raises(DomainError):
        L_eval(sol_k2, sol_k2.c)
    with pytest.raises(DomainError):
        L_eval(sol_k2, sol_k2.d)
    with pytest.raises(DomainError):
        L_eval(sol_k2, 0.5j, waypoints=[1.0 - 1.0j])


def test_orbit_reduce_cases():
    assert _orbit_reduce(0.3) == 0.3
    assert _orbit_reduce(-0.3) == pytest.approx(0.3)
    assert _orbit_reduce(1.2) == pytest.approx(0.2)
    assert _orbit_reduce(2.6) == pytest.approx(0.4)
    assert _orbit_reduce(-1.7) == pytest.approx(0.3)


def test_extract_alpha(sol_k2):
    a = extract_alpha(sol_k2)
    assert a == pytest.approx(0.5, abs=1e-6)
    assert a == pytest.approx(sol_k2.alpha, abs=1e-12)


def test_alpha_sweep_is_stable():
    """No extraction discontinuities across the first-family range.

    The smooth curve itself moves by up to ~0.07 between neighbouring
    grid points (it folds at k = 2 and steepens toward the critical
    value), so a fixed small jump bound would reject the true function;
    instead require unimodality (a spurious orbit flip would add local
    extrema) and cap jumps at 0.1, well below any flip of size 1-2alpha
    away from the fold.
    """
    kc = critical_constants().k_crit
    grid = np.linspace(1.1, kc - 0.01, 50)
    alphas = [solve_family1(float(k)).alpha for k in grid]
    assert all(0.0 < a < 1.0 for a in alphas)
    diffs = np.diff(alphas)
    assert np.max(np.abs(diffs)) < 0.1
    rising = diffs > 0
    # one contiguous rising block then one falling block
    switches = int(np.sum(rising[:-1] != rising[1:]))
    assert switches == 1


def test_boundary_check_k2(sol_k2):
    rep = boundary_check(sol_k2)
    assert rep.alpha == pytest.approx(0.5, abs=1e-6)
    assert rep.line_angle == pytest.approx(-0.5 * math.pi, abs=1e-9)
    for side in rep.sides:
        assert side.max_dist_assigned <= 1e-6
        assert side.samples > 0
    assert rep.unit_sides == ("(1,k)", "(-k,-1)")
    assert rep.unit_pair_opposite
    # no two of the three circles contain the whole image
    for _, margin in rep.two_circle_margins:
        assert margin > 0.1
    assert rep.samples is None


def test_boundary_check_samples_kept(sol_k2):
    rep = boundary_check(sol_k2, samples_per_side=4, keep_samples=True)
    assert rep.samples is not None and len(rep.samples) == 4
    for side, kept in zip(rep.sides, rep.samples):
        assert len(kept) == side.samples
        for x, w in kept:
            assert isinstance(w, complex)
            got = cmath.exp(L_eval(sol_k2, x))
            assert abs(got - w) < 1e-8


def test_boundary_check_family2(sol2_k3):
    rep = boundary_check(sol2_k3)
    assert rep.unit_sides == ("(1,k)", "(-k,-1)")
    assert rep.unit_pair_opposite
    by_side = {s.side: s for s in rep.sides}
    # the line and real-axis sides land exactly; the unit-circle pair is
    # rescaled by exp(+-pi) across the pole detours and must show it
    assert by_side["(-1,1)"].max_dist_assigned <= 1e-6
    assert by_side["outer"].max_dist_assigned <= 1e-6
    assert by_side["(1,k)"].max_dist_assigned > 0.5
    assert by_side["(-k,-1)"].max_dist_assigned > 0.5


def test_boundary_check_validation(sol_k2):
    with pytest.raises(DomainError):
        boundary_check(sol_k2, samples_per_side=0)


@pytest.mark.parametrize("z", [complex(math.nan, 1.0), complex(1.0, math.nan),
                               complex(math.inf, 1.0), math.inf, -math.inf,
                               complex(0.3, math.inf), math.nan])
def test_eval_rejects_non_finite(sol_k2, z):
    # these returned nan+nanj (and nan raised KeyError) without an error
    with pytest.raises(DomainError):
        L_eval(sol_k2, z)


def test_eval_rejects_non_finite_waypoint(sol_k2):
    with pytest.raises(DomainError):
        L_eval(sol_k2, 0.5 + 0.5j, waypoints=[complex(math.nan, 1.0)])


@pytest.mark.parametrize("family, k", [(1, 2.0), (1, 1.2), (2, 3.0), (2, 2.44)])
def test_march_mixed_targets(family, k):
    # one march over targets on both sides of k, on branch points, and
    # between each pole and its neighbouring branch points, against the
    # polyline route through the upper half-plane
    sol = (solve_family1 if family == 1 else solve_family2)(k)
    c, d = sol.c, -k / sol.c
    branch = [-k, -1.0, 1.0, k]
    mids = [0.5 * (p + b) for p in (c, d)
            for b in (max([b for b in branch if b < p], default=None),
                      min([b for b in branch if b > p], default=None))
            if b is not None]
    targets = [k, k + 0.5, 3.0 * k, min(-k, d) - 0.5, -4.0 * k,
               1.0, -1.0, -k, 0.0, *mids]
    got = _march(k, c, sol.A, targets, 1e-10)
    assert got[k] == 0.0
    for x in targets:
        if x == k:
            continue
        ref = L_eval(sol, x, waypoints=[complex(k, 3.0), complex(x, 3.0)])
        assert abs(got[x] - ref) <= 1e-9, x
