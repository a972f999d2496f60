"""Dihedral invariants and the three verified algebraic maps."""
import cmath
import math

import mpmath as mp
import pytest

from sphrect import belyi, modulus_of_k, solve_family1
from sphrect.belyi import (PortraitPoint, RamificationPortrait, RationalMap,
                           dihedral_invariant, example2_conditions,
                           example_anchor, example_map, verify_belyi)
from sphrect.errors import AccuracyError, BelyiViolationError, DomainError

S3 = math.sqrt(3.0)

# expected portraits: (point or None for infinity, local degree, value)
EXPECTED_PORTRAITS = {
    1: [(-2.0, 1, 0.0), (2.0, 3, 0.0),
        (-1.0, 3, 1.0), (1.0, 1, 1.0),
        (-1.0 - S3, 2, math.inf), (-1.0 + S3, 2, math.inf)],
    2: [(0.0632835798347181, 2, 0.0), (6.874132889802559, 1, 0.0),
        (None, 3, 0.0),
        (0.0, 1, 1.0), (1.0, 3, 1.0), (7.270983152794609, 2, 1.0),
        (-0.1706247679083429, 3, math.inf), (6.017946869771415, 3, math.inf)],
    3: [(1.0, 3, 0.0), (None, 3, 0.0),
        (0.0, 1, 1.0), (8.0 + 4.0 * S3, 1, 1.0),
        (complex(1.0, 2.0 + S3), 2, 1.0), (complex(1.0, -2.0 - S3), 2, 1.0),
        (-2.0 * S3 / 3.0, 3, math.inf), (4.0 + 2.0 * S3, 3, math.inf)],
}


def _assert_portrait_matches(portrait, expected):
    assert len(portrait.points) == len(expected)
    remaining = list(portrait.points)
    for point, degree, value in expected:
        for got in remaining:
            if got.local_degree != degree or got.critical_value != value:
                continue
            if point is None and got.point is None:
                break
            if point is not None and got.point is not None \
                    and abs(got.point - point) < 1e-9:
                break
        else:
            raise AssertionError(f"no portrait point matches {(point, degree, value)}")
        remaining.remove(got)


def test_dihedral_invariant_values():
    assert dihedral_invariant(2, 1.0) == 0.0
    assert dihedral_invariant(3, 1.0) == 0.0
    # hand value at q = 2, z = 2: -(4 + 1/4 - 2)/4
    assert dihedral_invariant(2, 2.0) == pytest.approx(-9.0 / 16.0, abs=1e-15)


@pytest.mark.parametrize("q", [2, 3, 5])
def test_dihedral_invariant_real_on_three_circles(q):
    for j in range(12):
        theta = 2.0 * math.pi * (j + 0.3) / 12.0
        r = 0.3 + 0.2 * j
        assert abs(dihedral_invariant(q, cmath.exp(1j * theta)).imag) < 1e-12
        assert dihedral_invariant(q, r).imag == 0.0
        on_line = r * cmath.exp(1j * math.pi / q)
        assert abs(dihedral_invariant(q, on_line).imag) < 1e-10


def test_dihedral_invariant_domain():
    with pytest.raises(DomainError):
        dihedral_invariant(0, 1.0)
    with pytest.raises(DomainError):
        dihedral_invariant(2, 0.0)


def test_rational_map_validation():
    with pytest.raises(DomainError):
        RationalMap(num=(mp.mpf(1), mp.mpf(-1)), den=(mp.mpf(1), mp.mpf(-2),
                    mp.mpf(1)), degree=2, provenance="shared factor z-1",
                    label="bad")
    with pytest.raises(DomainError):
        RationalMap(num=(mp.mpf(1),), den=(mp.mpf(1), mp.mpf(0)), degree=3,
                    provenance="wrong degree", label="bad")
    with pytest.raises(DomainError):
        RationalMap(num=(mp.mpf(0), mp.mpf(1)), den=(mp.mpf(1), mp.mpf(1)),
                    degree=1, provenance="leading zero", label="bad")


def test_example_map_call_and_cache():
    h = example_map(1)
    assert example_map(1) is h
    # h(0) = 16/12 for the degree-4 map
    assert float(h(mp.mpf(0))) == pytest.approx(4.0 / 3.0, abs=1e-15)
    with pytest.raises(DomainError):
        example_map(4)
    with pytest.raises(DomainError):
        example_map(2, "misprinted")


def test_example1_integer_identity():
    """num - den equals -4(z-1)(z+1)^3 coefficientwise over the integers."""

    def conv(p, q):
        out = [0] * (len(p) + len(q) - 1)
        for i, a in enumerate(p):
            for j, b in enumerate(q):
                out[i + j] += a * b
        return out

    num = [-c for c in conv([1, 2], conv([1, -2], conv([1, -2], [1, -2])))]
    den = [3 * c for c in conv([1, 2, -2], [1, 2, -2])]
    lhs = [a - b for a, b in zip(num, den)]
    cube = conv([1, 1], conv([1, 1], [1, 1]))
    rhs = [-4 * c for c in conv([1, -1], cube)]
    assert lhs == rhs == [-4, -8, 0, 8, 4]
    # and the shipped coefficients are exactly those integers
    h = example_map(1)
    assert [int(c) for c in h.num] == num
    assert [int(c) for c in h.den] == den


@pytest.mark.parametrize("n", [1, 2, 3])
def test_verify_belyi_portraits(n):
    portrait = verify_belyi(example_map(n), tol=1e-10)
    assert portrait.degree == example_map(n).degree
    _assert_portrait_matches(portrait, EXPECTED_PORTRAITS[n])
    # Riemann-Hurwitz and fiber sums are enforced on construction; spot
    # check the accessors
    for value in (0.0, 1.0, math.inf):
        fiber = portrait.fiber(value)
        assert sum(p.local_degree for p in fiber) == portrait.degree
    assert all(p.local_degree >= 2 for p in portrait.critical_points())


def test_printed_variant_fails_verification():
    # its fiber over 1 is unramified, so the three fibers fall short
    with pytest.raises(BelyiViolationError, match="Riemann-Hurwitz sum 7 "):
        verify_belyi(example_map(2, "printed"), tol=1e-10)


def test_example2_conditions_corrected():
    cond = example2_conditions("corrected")
    assert cond["w"] == pytest.approx(7.270983152794609, abs=1e-9)
    for name, value in cond.items():
        if name != "w":
            assert value <= 1e-12, name


def test_example2_conditions_printed():
    cond = example2_conditions("printed")
    # same test points as the corrected map, so the failure is visible
    assert cond["h_at_0_minus_1"] > 0.1
    assert cond["dh_at_w"] > 0.1
    assert cond["w"] == pytest.approx(7.270983152794609, abs=1e-9)
    with pytest.raises(DomainError):
        example2_conditions("other")


def test_portrait_point_validation():
    PortraitPoint(point=None, local_degree=2, critical_value=math.inf)
    with pytest.raises(DomainError):
        PortraitPoint(point=1.0 + 0j, local_degree=0, critical_value=0.0)
    with pytest.raises(DomainError):
        PortraitPoint(point=1.0 + 0j, local_degree=1, critical_value=0.5)


def test_portrait_consistency_enforced():
    # the portrait of z^2: double points over 0 and infinity, two simple
    # preimages of 1
    good = (PortraitPoint(point=0j, local_degree=2, critical_value=0.0),
            PortraitPoint(point=None, local_degree=2, critical_value=math.inf),
            PortraitPoint(point=1 + 0j, local_degree=1, critical_value=1.0),
            PortraitPoint(point=-1 + 0j, local_degree=1, critical_value=1.0))
    RamificationPortrait(degree=2, points=good)
    # dropping the 1-fiber breaks its degree sum
    with pytest.raises(BelyiViolationError):
        RamificationPortrait(degree=2, points=good[:2])
    # an extra double point breaks Riemann-Hurwitz
    bad = good[:2] + (PortraitPoint(point=1 + 0j, local_degree=2,
                                    critical_value=1.0),)
    with pytest.raises(BelyiViolationError):
        RamificationPortrait(degree=2, points=bad)


def _solver_gap(n: int) -> tuple[float, float]:
    """(solver c - anchor c, solver alpha) at example n's exact k."""
    k, c = example_anchor(n)
    sol = solve_family1(float(k))
    return float(sol.c - c), sol.alpha


@pytest.mark.parametrize("n,k_want,alpha_want", [(1, 2.0, 0.5)])
def test_example_consistency_first(n, k_want, alpha_want):
    k, c = example_anchor(n)
    assert k == k_want
    with mp.workdps(belyi.DPS):
        assert c == mp.sqrt(3) - 1
    gap, alpha = _solver_gap(n)
    assert abs(gap) <= 1e-12
    assert abs(alpha - alpha_want) <= 1e-12


@pytest.mark.parametrize("n", [2, 3])
def test_example_consistency_orbit(n):
    # the orbit value min{alpha, 1 - alpha} of both examples is 1/3
    gap, alpha = _solver_gap(n)
    assert abs(gap) <= 1e-12
    assert abs(alpha - 1.0 / 3.0) <= 1e-12


def test_example_consistency_domain():
    with pytest.raises(DomainError):
        example_anchor(0)


@pytest.mark.parametrize("n,k_want,c_want,stated_modulus", [
    (1, "2", "0.73205080756887729353", 0.63963),
    (2, "2.23315452058363046", "0.87779703036753309", 0.67957),
    (3, "1.69839637241709975", "0.53981362425956083", 0.57735)])
def test_example_anchor_values(n, k_want, c_want, stated_modulus):
    k, c = example_anchor(n)
    with mp.workdps(belyi.DPS):
        assert abs(k - mp.mpf(k_want)) <= 1e-17
        assert abs(c - mp.mpf(c_want)) <= 1e-17
    # the moduli the examples are stated with, to their 5 printed digits
    assert modulus_of_k(float(k)) == pytest.approx(stated_modulus, abs=5e-6)


@pytest.mark.parametrize("n", [2, 3])
def test_example_anchor_maps_corners(n):
    # the corners are the odd-degree points over 0 and 1; the Mobius map
    # of the anchor sends them to -k, -1, 1, k and one triple pole to c,
    # the only one it sends into (0, 1)
    k, c = example_anchor(n)
    portrait = verify_belyi(example_map(n))
    corners = sorted(p.point.real for p in portrait.points
                     if p.point is not None and p.critical_value != math.inf
                     and p.local_degree % 2)
    poles = [p.point.real for p in portrait.fiber(math.inf)
             if p.local_degree == 3]
    with mp.workdps(belyi.DPS):
        r = mp.sqrt(corners[-1])  # corners (0, 1, a); the fourth is infinity
        moved = [k * (z - r) / (z + r) for z in corners + poles]
    assert corners[:2] == pytest.approx([0.0, 1.0], abs=1e-12)
    assert [float(z) for z in moved[:3]] == pytest.approx(
        [-float(k), -1.0, 1.0], abs=1e-12)
    inside = [z for z in moved[3:] if 0 < z < 1]
    assert len(inside) == 1 and abs(inside[0] - c) <= 1e-12


@pytest.mark.parametrize("coeff", [int, mp.mpf])
def test_refine_root_raises_when_newton_cycles(coeff):
    # Newton on z^3 - 2z + 2 cycles 0 -> 1 -> 0 and never converges
    with mp.workdps(belyi.DPS):
        with pytest.raises(AccuracyError) as info:
            belyi._refine_root([coeff(c) for c in (1, 0, -2, 2)], 0.0, 1)
    assert info.value.best in (0, 1)
    assert info.value.err_est == 1.0


def test_refine_root_raises_on_vanishing_derivative():
    # z^2 + 1 has p'(0) = 0: no Newton step can be taken from the seed
    with mp.workdps(belyi.DPS):
        with pytest.raises(AccuracyError):
            belyi._refine_root([mp.mpf(1), mp.mpf(0), mp.mpf(1)], 0.0, 1)


def test_verify_belyi_complex_coefficients():
    """((z - i)/(z + i))^2 with mpc coefficients takes the complex path."""
    i = mp.mpc(0, 1)
    rmap = RationalMap(num=(mp.mpc(1), -2 * i, mp.mpc(-1)),
                       den=(mp.mpc(1), 2 * i, mp.mpc(-1)), degree=2,
                       provenance="((z - i)/(z + i))^2", label="cayley-square")
    portrait = verify_belyi(rmap)
    _assert_portrait_matches(portrait, [(1j, 2, 0.0), (-1j, 2, math.inf),
                                        (0.0, 1, 1.0), (None, 1, 1.0)])


@pytest.mark.parametrize("n", [1, 2, 3])
def test_real_portrait_points_are_exactly_real(n):
    portrait = verify_belyi(example_map(n))
    real = [(point, degree, value) for point, degree, value
            in EXPECTED_PORTRAITS[n]
            if point is not None and complex(point).imag == 0.0]
    for point, degree, value in real:
        got = [p for p in portrait.points if p.point is not None
               and p.local_degree == degree and p.critical_value == value
               and abs(p.point - point) < 1e-9]
        assert len(got) == 1
        assert got[0].point.imag == 0.0


def test_example3_triple_roots_are_real_at_full_precision():
    rmap = example_map(3)
    with mp.workdps(belyi.DPS):
        s3 = mp.sqrt(3)
        cases = [(rmap.den, [4 + 2 * s3, -2 * s3 / 3]), (rmap.num, [mp.mpf(1)])]
        for poly, want in cases:
            roots = belyi._roots_with_multiplicity(list(poly))
            assert len(roots) == len(want)
            for exact in want:
                (root, mult), = [(r, m) for r, m in roots
                                 if abs(r - exact) < 1e-6]
                assert isinstance(root, mp.mpf)
                assert mult == 3
                assert abs(root - exact) <= 1e-35 * abs(exact)


def test_each_root_is_polished_once(monkeypatch):
    calls = []
    refine = belyi._refine_root

    def counting(*args):
        calls.append(args)
        return refine(*args)

    monkeypatch.setattr(belyi, "_refine_root", counting)
    verify_belyi(example_map(1))
    # the three fibers have 2 distinct roots each
    assert len(calls) == 6


@pytest.mark.parametrize("n", [1, 2, 3])
def test_verify_factors_three_fibers(n, monkeypatch):
    # Riemann-Hurwitz settles the check on the fibers over 0, 1 and inf;
    # no fourth polynomial (the Wronskian) is factored
    calls = []
    roots = belyi._roots_with_multiplicity
    monkeypatch.setattr(belyi, "_roots_with_multiplicity",
                        lambda poly: calls.append(poly) or roots(poly))
    verify_belyi(example_map(n))
    assert len(calls) == 3


def test_split_cluster_merges_into_one_root():
    # the seeds of (z - 1)^5 split by ~7e-4, past the cluster radius, so
    # the clusters polish onto 1 separately and only the merge counts 5
    with mp.workdps(belyi.DPS):
        roots = belyi._roots_with_multiplicity(belyi._from_roots([mp.mpf(1)] * 5))
        assert [(float(r), m) for r, m in roots] == [(1.0, 5)]
        # one step further the seeds stray too far to merge: the polish
        # must fail loudly rather than report wrong multiplicities
        try:
            roots = belyi._roots_with_multiplicity(
                belyi._from_roots([mp.mpf(1)] * 6))
        except AccuracyError:
            pass
        else:
            assert [(float(r), m) for r, m in roots] == [(1.0, 6)]


def _polynomial_map(coeffs, label: str) -> RationalMap:
    """The map num/1 with the given descending coefficients."""
    num = tuple(mp.mpf(c) for c in coeffs)
    return RationalMap(num=num, den=(mp.mpf(1),), degree=len(num) - 1,
                       provenance=label, label=label)


def _chebyshev(n: int) -> list:
    """Integer coefficients of T_n, descending."""
    prev, cur = [1], [1, 0]
    for _ in range(n - 1):
        prev, cur = cur, [a - b for a, b in zip([2 * c for c in cur] + [0],
                                                [0, 0] + prev)]
    return cur


@pytest.mark.parametrize("n", range(2, 7))
def test_power_map_is_belyi(n):
    portrait = verify_belyi(_polynomial_map([1] + [0] * n, f"z^{n}"))
    roots_of_unity = [(cmath.exp(2j * math.pi * j / n), 1, 1.0)
                      for j in range(n)]
    _assert_portrait_matches(portrait, [(0.0, n, 0.0), (None, n, math.inf)]
                             + roots_of_unity)


@pytest.mark.parametrize("n", range(2, 7))
def test_chebyshev_shift_is_belyi(n):
    # (1 - T_n)/2 has critical values 0 and 1: its double points are the
    # extrema cos(j pi / n) of T_n, over 0 where T_n = 1
    coeffs = [-c / 2 for c in _chebyshev(n)]
    coeffs[-1] += 0.5
    portrait = verify_belyi(_polynomial_map(coeffs, f"(1 - T_{n})/2"))
    doubles = [(math.cos(j * math.pi / n), 2, float(j % 2))
               for j in range(1, n)]
    _assert_portrait_matches(portrait, doubles + [
        (1.0, 1, 0.0), (-1.0, 1, float(n % 2)), (None, n, math.inf)])


@pytest.mark.parametrize("coeffs, label", [
    *[(_chebyshev(n), f"T_{n}") for n in range(2, 7)],
    ([1, 0, -3, 0], "z^3 - 3z"),
])
def test_non_belyi_polynomial_raises(coeffs, label):
    # critical values -1 and 1 (T_n) or -2 and 2 (z^3 - 3z)
    with pytest.raises(BelyiViolationError):
        verify_belyi(_polynomial_map(coeffs, label))


@pytest.mark.parametrize("delta, belyi_within_tol", [(1e-6, True), (3e-5, False)])
def test_tol_bounds_the_critical_value(delta, belyi_within_tol):
    # the roots +-delta of z^2 - delta^2 cluster into one double point at
    # 0 with critical value -delta^2: 1e-12 passes tol 1e-10, 9e-10 not
    rmap = _polynomial_map([1, 0, -mp.mpf(delta) ** 2], "z^2 - delta^2")
    if belyi_within_tol:
        _assert_portrait_matches(verify_belyi(rmap, tol=1e-10), [
            (0.0, 2, 0.0), (None, 2, math.inf), (1.0, 1, 1.0), (-1.0, 1, 1.0)])
    else:
        with pytest.raises(BelyiViolationError, match="critical point 0j"):
            verify_belyi(rmap, tol=1e-10)
