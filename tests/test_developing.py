"""Developing-map logarithm: values, residues, paths, boundary images."""
import cmath
import math

import numpy as np
import pytest

from sphrect import (L_eval, boundary_check, critical_constants, developing,
                     extract_alpha, quadrature, solve_family1, solve_family2)
from sphrect.developing import (_integrand_from, _march, _orbit_reduce,
                                _residue)
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


def _residue_limits(sol, delta=1e-9j):
    """delta f(p + delta) at both poles p = c, -k/c, approached from above.

    amp_A makes the residues exactly +-1 (first family) or +-i (second,
    where the poles sit on the cuts and the upper-side branch counts);
    the limit misses them by O(|delta|).
    """
    k, c = sol.param.k, sol.c
    return [complex(delta * _integrand_from(k, c, sol.A, p, 1.0)(delta))
            for p in (c, -k / c)]


def test_pole_residues(sol_k2):
    assert _residue_limits(sol_k2) == pytest.approx([1.0, -1.0], abs=1e-8)


def test_pole_residues_family2(sol2_k3):
    assert _residue_limits(sol2_k3) == pytest.approx([1.0j, -1.0j], abs=1e-8)


@pytest.mark.parametrize("family, k", [(1, 1.2), (1, 2.0), (1, 2.4),
                                       (2, 2.44), (2, 3.0), (2, 10.0)])
def test_closed_form_residues(family, k):
    # the pole parts that _real_segment integrates in closed form
    sol = (solve_family1 if family == 1 else solve_family2)(k)
    c, d = sol.c, -k / sol.c
    want = [1.0, -1.0] if family == 1 else [1.0j, -1.0j]
    got = [_residue(k, c, sol.A, c, d), _residue(k, c, sol.A, d, c)]
    assert got == pytest.approx(want, abs=1e-12)


def test_segment_into_an_arc_is_not_crowded(monkeypatch):
    # the walk's segment from 1 to the arc over c: with the pole parts in
    # closed form the engine sees no 1/(x - c), and 14 panels become 2
    sol = solve_family1(2.0)
    k, c = 2.0, sol.c
    end = c + developing.ARC_FACTOR * developing._min_gap(k, c)
    panels = []
    panel = quadrature._panel
    monkeypatch.setattr(quadrature, "_panel",
                        lambda *a: panels.append(a) or panel(*a))
    got = developing._real_segment(k, c, sol.A, 1.0, end, 1e-10,
                                   sqrt_start=True)
    assert len(panels) <= 4
    monkeypatch.undo()
    high = [complex(k, 3.0)]
    ref = (L_eval(sol, end, waypoints=high + [complex(end, 3.0)])
           - L_eval(sol, 1.0, waypoints=high + [complex(1.0, 3.0)]))
    assert abs(got - ref) <= 1e-9


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
    # one march over targets on both sides of k, on branch points,
    # between each pole and its neighbouring branch points, and inside and
    # just outside each pole's arc (radius r0; a target within r0 shrinks
    # the arc), against the polyline route through the upper half-plane
    sol = (solve_family1 if family == 1 else solve_family2)(k)
    c, d = sol.c, -k / sol.c
    r0 = developing.ARC_FACTOR * developing._min_gap(k, c)
    branch = [-k, -1.0, 1.0, k]
    mids = [0.5 * (p + b) for p in (c, d)
            for b in (max([b for b in branch if b < p], default=None),
                      min([b for b in branch if b > p], default=None))
            if b is not None]
    targets = [k, k + 0.5, 3.0 * k, min(-k, d) - 0.5, -4.0 * k,
               1.0, -1.0, -k, 0.0, *mids,
               *(p + sgn * f * r0 for p in (c, d) for sgn in (1.0, -1.0)
                 for f in (1e-3, 0.5, 1.5, 3.0))]
    got = _march(k, c, sol.A, targets, 1e-10)
    assert got[k] == 0.0
    for x in targets:
        if x == k:
            continue
        ref = L_eval(sol, x, waypoints=[complex(k, 3.0), complex(x, 3.0)])
        assert abs(got[x] - ref) <= 1e-9, x


def test_walk_stops_at_the_farthest_target(monkeypatch):
    # past 1 the walk meets the crowding of -k, -1 and -k/c, where it
    # could fail; L(1) must not ask for any of it
    sol = solve_family1(1.0 + 1e-8)
    seen = []
    segment = developing._real_segment
    monkeypatch.setattr(developing, "_real_segment",
                        lambda k, c, A, x0, x1, *a, **kw:
                        seen.append((x0, x1)) or segment(k, c, A, x0, x1, *a, **kw))
    L_eval(sol, 1.0)
    assert seen and min(min(pair) for pair in seen) == 1.0
