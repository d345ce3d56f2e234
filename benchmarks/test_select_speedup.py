"""Optimizer selection kernels vs their scalar baselines.

Two optimizer hot loops the cross-region scheduler exposes: the
trial-vs-target pairwise phase of ``GDE3.select`` (two objectives compare
as Python floats in one pass over the pairs instead of 2·N scalar
``dominates()`` calls) and the general-m non-dominated mask (blocked
all-pairs broadcast instead of a Python-level pass per row).  Both must
return outputs identical to the retired scalar implementations — kept in
``tests/optimizer_oracle.py`` as ``select_pairs_scalar`` and
``non_dominated_mask_general_scalar`` — and beat them by at least 5x on
512-point populations.  The oracle import needs the repository root on
``sys.path`` (run ``python -m pytest`` from the root).
"""

from __future__ import annotations

import time

import numpy as np

from repro.optimizer.config import Configuration
from repro.optimizer.gde3 import GDE3, GDE3Settings
from repro.optimizer.pareto import _non_dominated_mask_general
from tests.optimizer_oracle import (
    non_dominated_mask_general_scalar,
    select_pairs_scalar,
)

from conftest import print_banner

N_POINTS = 512
REPS = 30
FLOOR = 5.0


def _population(n: int, seed: int) -> list[Configuration]:
    rng = np.random.default_rng(seed)
    objs = rng.uniform(0.1, 10.0, size=(n, 2))
    return [
        Configuration.make({"x": i}, tuple(row)) for i, row in enumerate(objs)
    ]


def _best_of_pair(fn_a, fn_b, reps: int) -> tuple[float, float]:
    """Min-of-reps wall time for two callables, measured interleaved so
    clock-frequency drift (e.g. thermal throttle after a preceding
    benchmark) hits both sides equally instead of skewing the ratio."""
    fn_a(), fn_b()  # warm-up
    best_a = best_b = float("inf")
    for _ in range(reps):
        t0 = time.perf_counter()
        fn_a()
        best_a = min(best_a, time.perf_counter() - t0)
        t0 = time.perf_counter()
        fn_b()
        best_b = min(best_b, time.perf_counter() - t0)
    return best_a, best_b


def test_vectorized_select_matches_and_beats_scalar():
    population = _population(N_POINTS, seed=1)
    trials = _population(N_POINTS, seed=2)
    # population_size > any possible pair survivor count: select() then
    # returns the bare pairwise phase, directly comparable to the scalar
    gde3 = GDE3(problem=None, settings=GDE3Settings(population_size=2 * N_POINTS))

    vec = gde3.select(population, trials)
    ref = select_pairs_scalar(population, trials)
    assert vec == ref

    t_vec, t_ref = _best_of_pair(
        lambda: gde3.select(population, trials),
        lambda: select_pairs_scalar(population, trials),
        REPS,
    )
    speedup = t_ref / t_vec

    print_banner(f"GDE3.select pairwise phase ({N_POINTS}-point population)")
    print(f"{'scalar 2N dominates()':>24}: {t_ref * 1e3:8.3f} ms")
    print(f"{'pairwise float compare':>24}: {t_vec * 1e3:8.3f} ms  ({speedup:.1f}x)")

    assert speedup >= FLOOR, f"select pairwise phase only {speedup:.2f}x"


def test_vectorized_general_mask_matches_and_beats_scalar():
    rng = np.random.default_rng(7)
    objs = rng.uniform(0.1, 10.0, size=(N_POINTS, 3))

    fast = _non_dominated_mask_general(objs)
    slow = non_dominated_mask_general_scalar(objs)
    assert np.array_equal(fast, slow)

    t_vec, t_ref = _best_of_pair(
        lambda: _non_dominated_mask_general(objs),
        lambda: non_dominated_mask_general_scalar(objs),
        REPS,
    )
    speedup = t_ref / t_vec

    print_banner(f"general-m non-dominated mask ({N_POINTS} points, m=3)")
    print(f"{'per-row sweep':>24}: {t_ref * 1e3:8.3f} ms")
    print(f"{'blocked broadcast':>24}: {t_vec * 1e3:8.3f} ms  ({speedup:.1f}x)")

    assert speedup >= FLOOR, f"vectorized mask only {speedup:.2f}x"
