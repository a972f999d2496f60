"""Accessory-parameter machinery: weights, functionals, both solvers."""
import math

import pytest

from sphrect import accessory
from sphrect import (AccessorySolution, Family, QuadParam, amp_A, bethe_h,
                     bigF, family2_integral, modulus_of_k, solve_family1,
                     solve_family2)
from sphrect.accessory import _family2_grid, _scan_bracket
from sphrect.errors import AccuracyError, BracketError, DomainError
from sphrect.modulus import modulus_oracle


def test_bethe_h_values():
    assert bethe_h(2.0, 0.0) == 1.0
    assert bethe_h(2.0, 0.5) == pytest.approx(1.8, abs=1e-15)
    # pairing partner of c = 0.5 is -k/c = -4
    assert bethe_h(2.0, -4.0) == pytest.approx(1.8, abs=1e-15)
    with pytest.raises(DomainError):
        bethe_h(2.0, 1.0)
    with pytest.raises(DomainError):
        bethe_h(2.0, -2.0)


def test_bigF_frozen_values():
    assert bigF(2.0, 0.05) == pytest.approx(1.5232721775746416, abs=1e-9)
    assert bigF(2.0, 0.5) == pytest.approx(0.3844126108001811, abs=1e-9)
    assert bigF(2.0, 0.95) == pytest.approx(-0.1310219316233705, abs=1e-9)


def test_bigF_sign_change():
    assert bigF(2.0, 0.05) > 0.0 > bigF(2.0, 0.95)


def test_bigF_exact_root():
    # the k = 2 accessory parameter is sqrt(3) - 1; F vanishes there
    assert abs(bigF(2.0, math.sqrt(3.0) - 1.0)) < 1e-10


def test_bigF_endpoint_behaviour():
    # c -> 1-: decays to zero from below like a square root, no blowup
    assert -1e-3 < bigF(2.0, 1.0 - 1e-6) < 0.0
    # c -> 0+: finite positive limit
    assert bigF(2.0, 1e-6) > 1.5


def test_bigF_domain():
    with pytest.raises(DomainError):
        bigF(2.0, 0.0)
    with pytest.raises(DomainError):
        bigF(2.0, 1.0)
    with pytest.raises(DomainError):
        bigF(1.0, 0.5)


def test_amp_A_values():
    assert amp_A(2.0, 0.5) == pytest.approx(4.5 * math.sqrt(1.25 / 2.25), abs=1e-15)
    assert amp_A(2.0, 0.5) == pytest.approx(3.3541019662496847, abs=1e-14)
    assert amp_A(2.0, 0.9) > 0.0
    assert amp_A(2.0, 0.99) > 0.0
    with pytest.raises(DomainError):
        amp_A(2.0, 1.0)
    with pytest.raises(DomainError):
        amp_A(2.0, -0.1)


def test_amp_A_positive(rng):
    for _ in range(50):
        k = float(rng.uniform(1.05, 10.0))
        c = float(rng.uniform(0.02, 0.98))
        assert amp_A(k, c) > 0.0


def test_quad_param_validation(consts):
    QuadParam(k=2.0, family=Family.FIRST)
    QuadParam(k=3.0, family=Family.SECOND)
    with pytest.raises(DomainError):
        QuadParam(k=0.8, family=Family.FIRST)
    with pytest.raises(DomainError):
        QuadParam(k=3.0, family=Family.FIRST)
    with pytest.raises(DomainError):
        QuadParam(k=2.0, family=Family.SECOND)
    assert Family.FIRST.value == "first"
    assert Family.SECOND.value == "second"


@pytest.mark.parametrize("k", [math.inf, math.nan])
def test_non_finite_k_rejected(k):
    with pytest.raises(DomainError, match="need finite k > 1"):
        QuadParam(k=k, family=Family.SECOND)
    with pytest.raises(DomainError, match="need finite k > 1"):
        modulus_of_k(k)


def test_solve_family1_k2(sol_k2):
    # root and amplitude have closed forms at k = 2: c = sqrt(3) - 1 and
    # A = 2 sqrt(3) sqrt(1/3) = 2 (the inner ratio collapses to 1/3)
    assert sol_k2.c == pytest.approx(math.sqrt(3.0) - 1.0, abs=1e-11)
    assert sol_k2.A == pytest.approx(2.0, abs=1e-9)
    assert sol_k2.alpha == pytest.approx(0.5, abs=1e-6)
    assert sol_k2.modulus == modulus_of_k(2.0)
    assert abs(sol_k2.residual) <= 1e-9
    assert sol_k2.param.family is Family.FIRST
    assert sol_k2.k == 2.0
    assert sol_k2.d == pytest.approx(-2.0 / sol_k2.c, abs=1e-15)


def test_solve_family1_pairing_invariant(sol_k2):
    k = sol_k2.k
    assert bethe_h(k, sol_k2.c) == pytest.approx(
        bethe_h(k, -k / sol_k2.c), abs=1e-12)


def test_solve_family1_near_one():
    sol = solve_family1(1.0001)
    assert 0.0 < sol.c < 0.05
    assert sol.c == pytest.approx(0.0002822458309587091, abs=1e-10)


def test_solve_family1_domain(consts):
    with pytest.raises(DomainError):
        solve_family1(1.0)
    with pytest.raises(DomainError):
        solve_family1(consts.k_crit)
    with pytest.raises(DomainError):
        solve_family1(3.0)


def test_family2_integral_negative(consts):
    for k in (2.5, 3.0, 4.0):
        for frac in (0.2, 0.5, 0.8):
            c = 1.0 + frac * (k - 1.0)
            assert family2_integral(k, c) < 0.0


def test_family2_integral_continuity():
    a = family2_integral(3.0, 1.5)
    b = family2_integral(3.0, 1.5 + 1e-6)
    assert abs(a - b) < 1e-4


def test_family2_integral_domain(consts):
    with pytest.raises(DomainError):
        family2_integral(2.0, 1.5)  # below critical
    with pytest.raises(DomainError):
        family2_integral(3.0, 0.5)
    with pytest.raises(DomainError):
        family2_integral(3.0, 3.0)


def test_solve_family2_roots():
    for k, want in ((2.5, 1.0428457682690357),
                    (3.0, 1.3491606530150624),
                    (4.0, 1.9562442380535503)):
        sol = solve_family2(k)
        assert 1.0 < sol.c < k
        assert sol.c == pytest.approx(want, abs=1e-9)
        assert family2_integral(k, sol.c) == pytest.approx(-math.pi, abs=1e-9)
        assert sol.A > 0.0
        assert abs(sol.residual) <= 1e-9
        assert sol.param.family is Family.SECOND


def test_solve_family2_approaches_one(consts):
    cs = [solve_family2(consts.k_crit + dk).c for dk in (1e-2, 1e-3, 1e-4)]
    assert cs[0] > cs[1] > cs[2] > 1.0
    assert cs[2] - 1.0 < 1e-3


def test_solve_family2_domain():
    with pytest.raises(DomainError):
        solve_family2(2.0)


@pytest.mark.parametrize("k", [1e9, 1e11, 1e12, 1e50, 1e200, 1e300])
def test_solve_family2_large_k_fails_typed(k):
    # every finite k > k_crit is in the domain, and every probe lies in
    # (1, k); past about 1e8 the quadrature gives up (AccuracyError), and
    # past about 1e150 a product in the integral's scale leaves the doubles
    assert all(1.0 < p < k for p in _family2_grid(k))
    with pytest.raises(AccuracyError):
        solve_family2.__wrapped__(k)


@pytest.mark.parametrize("fun, args, error", [
    (amp_A, (math.inf, 0.5), DomainError),
    (bethe_h, (math.nan, 0.5), DomainError),
    (bethe_h, (2.0, math.nan), DomainError),
    (bethe_h, (math.inf, 0.5), DomainError),
    (bigF, (math.inf, 0.5), DomainError),
    (family2_integral, (1e308, 2.0), AccuracyError),
    (modulus_oracle, (1e300,), AccuracyError),
])
def test_helpers_raise_typed_errors(fun, args, error):
    # never NaN and never an untyped error: k = inf is outside the domain,
    # while k = 1e308 and 1e300 are inside it but overflow a double product
    with pytest.raises(error):
        fun(*args)


def test_solution_validation(sol_k2):
    param = sol_k2.param
    with pytest.raises(DomainError):
        AccessorySolution(param=param, c=1.5, A=sol_k2.A, alpha=0.5,
                          modulus=0.6, residual=0.0)
    with pytest.raises(DomainError):
        AccessorySolution(param=param, c=sol_k2.c, A=-1.0, alpha=0.5,
                          modulus=0.6, residual=0.0)
    with pytest.raises(DomainError):
        AccessorySolution(param=param, c=sol_k2.c, A=sol_k2.A, alpha=1.5,
                          modulus=0.6, residual=0.0)
    with pytest.raises(DomainError):
        AccessorySolution(param=param, c=sol_k2.c, A=sol_k2.A, alpha=0.5,
                          modulus=-0.6, residual=0.0)
    # c next to 1, where h(c) = h(-k/c) holds only up to rounding of ~1e-7
    k, c = 2.43, 1.0 - 1e-9
    AccessorySolution(param=QuadParam(k=k, family=Family.FIRST), c=c,
                      A=amp_A(k, c), alpha=0.5, modulus=0.6, residual=0.0)


def test_scan_bracket_contract():
    grid = [0.1, 0.3, 0.5, 0.7, 0.9]
    lo, hi = _scan_bracket(lambda c: c - 0.4, grid, "probe")
    assert (lo, hi) == (0.3, 0.5)
    with pytest.raises(BracketError, match="no sign change"):
        _scan_bracket(lambda c: 1.0, grid, "probe")
    with pytest.raises(BracketError, match="multiple"):
        _scan_bracket(lambda c: math.sin(8.0 * c), grid, "probe")


def _counted(fun):
    calls = []

    def counted(c):
        calls.append(c)
        return fun(c)

    return counted, calls


def test_scan_bracket_walk_matches_full_scan():
    grid = [i / 20.0 for i in range(1, 20)]
    full, full_calls = _counted(lambda c: 0.42 - c)
    walk, walk_calls = _counted(lambda c: 0.42 - c)
    assert _scan_bracket(full, grid, "probe") == (0.4, 0.45)
    for near in (1e-9, 0.05, 0.3, 0.42, 0.5, 0.95, 1.0 - 1e-6, 7.0):
        walk_calls.clear()
        assert _scan_bracket(walk, grid, "probe", near=near) == (0.4, 0.45)
        assert len(walk_calls) == len(set(walk_calls)) < len(full_calls)
    # the trade: the walk stops at the first sign change and does not see
    # the second one that makes the full scan refuse
    with pytest.raises(BracketError, match="multiple"):
        _scan_bracket(lambda c: math.cos(8.0 * c), grid, "probe")
    assert _scan_bracket(lambda c: math.cos(8.0 * c), grid, "probe",
                         near=0.1) == (0.15, 0.2)


def test_scan_bracket_walk_falls_back_to_full_scan():
    grid = [i / 20.0 for i in range(1, 20)]

    def nan_at_06(c):
        return math.nan if c == 0.6 else 0.32 - c

    # the walk down from 0.7 meets the non-finite probe before the root
    with pytest.raises(BracketError, match=r"probe is nan at the probe 0\.6$"):
        _scan_bracket(nan_at_06, grid, "probe", near=0.7)
    for fun, near in ((lambda c: 1.0, 0.5), (lambda c: -1.0, 0.5),
                      (lambda c: c - 0.42, 0.8), (lambda c: c - 0.42, 0.1)):
        # wrong-way slopes and constants walk off the grid
        counted, calls = _counted(fun)
        if fun(0.05) * fun(0.95) > 0.0:
            with pytest.raises(BracketError, match="no sign change of probe over 19"):
                _scan_bracket(counted, grid, "probe", near=near)
        else:
            assert _scan_bracket(counted, grid, "probe", near=near) == (0.4, 0.45)
        assert len(calls) == len(set(calls)) == len(grid)


def _same_solution(a, b):
    assert (a.c, a.A, a.alpha, a.modulus, a.residual) == \
        (b.c, b.A, b.alpha, b.modulus, b.residual)
    assert a.param == b.param


@pytest.mark.parametrize("k", [1.2, 2.0, 2.4])
def test_solve_family1_near_is_bit_identical(k):
    plain = solve_family1(k)
    for near in (1e-9, 0.3, plain.c, 1.0 - 1e-6):
        _same_solution(solve_family1(k, near=near), plain)


@pytest.mark.parametrize("k", [2.5, 3.0, 40.0])
def test_solve_family2_near_is_bit_identical(k):
    plain = solve_family2(k)
    for near in (1.0 + 1e-9, plain.c, k - 1e-9):
        _same_solution(solve_family2(k, near=near), plain)


# (solver, k, near) -> (c, residual), exactly as the solver returns them:
# a change meant to be bit-identical must keep every bit.  1 + 1e-6 takes
# the adaptive fallback at every probe; 1e8 is near the largest
# second-family k that solves.
_PINNED = [
    (solve_family1, 1.2, None, 0.19527249555576617, 0.0),
    (solve_family1, 2.0, None, 0.7320508075688995, -2.864375403532904e-14),
    (solve_family1, 2.4, None, 0.9811647473446926, -1.1102230246251565e-16),
    (solve_family1, 1.000001, None, 3.973738149607291e-06, 0.0),
    (solve_family2, 2.5, None, 1.0428457682691556, 1.4210854715202004e-14),
    (solve_family2, 3.0, None, 1.3491606530153228, -1.0880185641326534e-13),
    (solve_family2, 40.0, None, 23.571858638974316, 4.440892098500626e-16),
    (solve_family2, 1e8, None, 59999999.57333333, 4.440892098500626e-16),
    (solve_family2, 3.05, 1.35, 1.3796512315689915, -1.0347278589506459e-13),
]


@pytest.mark.parametrize("solve, k, near, c, residual", _PINNED)
def test_solver_bits_pinned(solve, k, near, c, residual):
    sol = solve.__wrapped__(k, near=near)  # past the lru_cache
    assert (sol.c, sol.residual) == (c, residual)


def test_solver_caches():
    assert solve_family1(2.0) is solve_family1(2.0)
    assert solve_family2(3.0) is solve_family2(3.0)


@pytest.mark.parametrize("solve, k", [
    (solve_family1, 1.2), (solve_family1, 2.0), (solve_family1, 2.4),
    (solve_family2, 2.5), (solve_family2, 3.0), (solve_family2, 40.0)])
def test_solve_evaluates_each_condition_value_once(solve, k, monkeypatch):
    # the scan, Brent's method and the residual gate share one solve's
    # evaluations; each (k, c, tol) reaches a functional once, and the
    # scan's 32 or 44 probes leave Brent about ten
    ceiling = 42 if solve is solve_family1 else 54
    calls = []
    for name in ("bigF", "family2_integral"):
        fun = getattr(accessory, name)
        monkeypatch.setattr(accessory, name,
                            lambda *a, _f=fun: calls.append(a) or _f(*a))
    solve.__wrapped__(k)  # past the lru_cache
    assert calls and len(calls) == len(set(calls))
    assert len(calls) <= ceiling
