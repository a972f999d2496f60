"""Seeded inputs of the four workloads.

Only numpy and the critical value k_crit are needed here, so the
orchestrator can rebuild any input without importing the program.  Every
draw is continuous, so no input repeats within a run and the solvers'
lru_caches never turn an operation into a lookup.

Inputs are stratified: each workload cycles through a fixed set of strata
in a seeded order and draws inside the stratum, so every run, whatever its
seed and length, sees nearly the same mix of easy and hard inputs.
"""
from __future__ import annotations

import math

import numpy as np

WORKLOADS = ("solve-scatter", "sweep-ordered", "map-eval", "belyi-verify")

# solve-scatter: distance of k from the nearest domain edge, log-spaced
EDGE_GAP = 1e-3          # k - 1, |k - k_crit| stay at least this far out
K_MAX = 50.0             # family 2 stays at or below this k
SOLVE_BINS = 8           # log-distance bins per edge

# sweep-ordered: the ROADMAP's 57-point grid over about [1.2, 4]
SWEEP_STEPS = 57
SWEEP_H = (4.0 - 1.2) / (SWEEP_STEPS - 1)
SWEEP_BELOW = 24         # grid points below k_crit
SWEEP_FRAC = (0.1, 0.9)  # where k_crit falls between its two grid points

# map-eval: solutions made during set-up, and targets drawn per round
# one solution near each anchor, jittered by the seed; few solutions, so
# anchors keep the cost of a run from depending on where the seed lands
MAP_ANCHORS = (("first", 1.4), ("first", 2.1), ("second", 3.5), ("second", 7.0))
MAP_JITTER = 0.02        # relative
MAP_COMPLEX, MAP_REAL = 3, 1  # targets per solution per round
TARGET_HEIGHT = (0.05, 3.0)
POLE_MARGIN = 0.05       # real targets keep this share of the smallest gap
BOUNDARY_SAMPLES = (12, 20)

BELYI_OPS = (("verify", 1, "corrected"), ("verify", 2, "corrected"),
             ("verify", 3, "corrected"), ("verify", 2, "printed"),
             ("conditions", 2, "corrected"))


def rng_for(seed: tuple[int, int], stream: int) -> np.random.Generator:
    """seed is (the run's seed, the worker process's index in the run)."""
    return np.random.default_rng([*seed, stream])


class _Strata:
    """Cycles through range(n) in a fresh seeded order each cycle."""

    def __init__(self, rng: np.random.Generator, n: int):
        self.rng, self.n, self.queue = rng, n, []

    def next(self) -> int:
        if not self.queue:
            self.queue = list(self.rng.permutation(self.n))
        return int(self.queue.pop())


def _log_draw(rng: np.random.Generator, lo: float, hi: float, bin_: int,
              bins: int) -> float:
    """Log-uniform draw inside bin `bin_` of [lo, hi] cut into `bins`."""
    a, b = math.log(lo), math.log(hi)
    w = (b - a) / bins
    return math.exp(a + w * (bin_ + rng.uniform()))


class SolveInputs:
    """One round is a first-family and a second-family k.

    Family 1: k = 1 + d or k_crit - d, d log-uniform in
    [EDGE_GAP, (k_crit - 1)/2], one stratum per (edge, bin).
    Family 2: k = k_crit + d, d log-uniform in [EDGE_GAP, K_MAX - k_crit].
    """

    def __init__(self, seed: tuple[int, int], k_crit: float):
        self.k_crit = k_crit
        self.rng = rng_for(seed, 1)
        self.s1 = _Strata(self.rng, 2 * SOLVE_BINS)
        self.s2 = _Strata(self.rng, 2 * SOLVE_BINS)

    def round(self) -> list[tuple[str, float]]:
        kc = self.k_crit
        s = self.s1.next()
        d = _log_draw(self.rng, EDGE_GAP, 0.5 * (kc - 1.0), s % SOLVE_BINS,
                      SOLVE_BINS)
        k1 = 1.0 + d if s < SOLVE_BINS else kc - d
        d = _log_draw(self.rng, EDGE_GAP, K_MAX - kc, self.s2.next(),
                      2 * SOLVE_BINS)
        return [("first", k1), ("second", kc + d)]


class SweepInputs:
    """One round is one 57-point sweep that crosses k_crit.

    k_crit falls a seeded fraction of the way between grid points
    SWEEP_BELOW - 1 and SWEEP_BELOW, so no grid point comes closer to it
    than 0.1 grid steps and no two sweeps share a grid.
    """

    def __init__(self, seed: tuple[int, int], k_crit: float):
        self.k_crit = k_crit
        self.rng = rng_for(seed, 2)

    def round(self) -> list[tuple[float, float]]:
        frac = self.rng.uniform(*SWEEP_FRAC)
        k_min = self.k_crit - (SWEEP_BELOW - 1 + frac) * SWEEP_H
        return [(k_min, k_min + (SWEEP_STEPS - 1) * SWEEP_H)]


def map_solution_ks(seed: tuple[int, int]) -> list[tuple[str, float]]:
    rng = rng_for(seed, 3)
    return [(fam, k * (1.0 + MAP_JITTER * rng.uniform(-1.0, 1.0)))
            for fam, k in MAP_ANCHORS]


def _real_target(rng: np.random.Generator, k: float, c: float) -> float:
    """A real point on one of the four sides, clear of poles and
    branch points."""
    pts = sorted([-k, -1.0, 1.0, k, c, -k / c])
    margin = POLE_MARGIN * min(b - a for a, b in zip(pts, pts[1:]))
    sides = ((-1.0, 1.0), (1.0, k), (-k, -1.0), (k, k + 4.0), (-k - 4.0, -k))
    while True:
        a, b = sides[int(rng.integers(len(sides)))]
        x = float(rng.uniform(a, b))
        if all(abs(x - p) >= margin for p in pts):
            return x


class MapInputs:
    """One round holds, for every set-up solution, MAP_COMPLEX complex
    targets and MAP_REAL real targets, then one boundary report on one
    solution.  A real target costs about three complex ones; with these
    shares the median falls among the complex targets and the 90th
    percentile among the real ones, not in a gap between them."""

    def __init__(self, seed: tuple[int, int], solutions: list[tuple[float, float]]):
        self.sols = solutions  # (k, c) per set-up solution
        self.rng = rng_for(seed, 4)
        self.n = 0

    def round(self) -> list[tuple]:
        rng, ops = self.rng, []
        for i, (k, c) in enumerate(self.sols):
            for _ in range(MAP_COMPLEX):
                x = float(rng.uniform(-k - 2.0, k + 2.0))
                y = math.exp(rng.uniform(*map(math.log, TARGET_HEIGHT)))
                ops.append(("complex", i, complex(x, y)))
            for _ in range(MAP_REAL):
                ops.append(("real", i, _real_target(rng, k, c)))
        samples = int(rng.integers(BOUNDARY_SAMPLES[0], BOUNDARY_SAMPLES[1] + 1))
        ops.append(("boundary", self.n % len(self.sols), samples))
        self.n += 1
        return ops


class BelyiInputs:
    """One round is the five Belyi operations in a seeded order.

    The examples are fixed algebraic maps, so these inputs repeat;
    verify_belyi and example2_conditions keep no cache, so each repeat
    is the whole computation again.
    """

    def __init__(self, seed: tuple[int, int]):
        self.rng = rng_for(seed, 5)

    def round(self) -> list[tuple]:
        return [BELYI_OPS[i] for i in self.rng.permutation(len(BELYI_OPS))]
