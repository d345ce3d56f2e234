"""The array decode of a generation against its frozen per-row oracle.

:meth:`TuningProblem.decode` rounds a whole trial matrix at once and keys
it through :meth:`SimulatedTarget.keys_of`; :meth:`TuningProblem.
configurations` builds each Configuration from a name-sorted value row.
``tests/optimizer_oracle.py`` keeps the per-row path it replaced (a value
dict, a ``(tile_sizes, threads)`` pair, a scalar key and a
``Configuration.make`` per row).  Both must give the same canonical keys,
the same E and equal Configurations whose values are Python ``int`` and
whose objectives are Python ``float``, over every registered kernel,
tri-objective tuning, a skeleton with ``unroll``, the skeleton-choice
problem, tiles above their loop's extent and below 1, and exact halves.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.evaluation.simulator import SimulatedTarget
from repro.experiments import make_setup
from repro.frontend.kernels import ALL_KERNELS, EXTRA_KERNELS, get_kernel
from repro.machine import WESTMERE
from repro.optimizer.problem import TuningProblem
from repro.optimizer.skeleton_choice import build_skeleton_choice
from repro.transform.skeleton import default_skeleton
from tests import optimizer_oracle as oracle

KERNELS = sorted(ALL_KERNELS) + sorted(EXTRA_KERNELS)


def wild_vectors(space, seed: int, n: int = 60) -> np.ndarray:
    """*n* rows of unsnapped parameter vectors: tiles from below 1 to
    about twice their loop's extent, every other parameter inside its
    span; a third of the rows sit on exact halves, rows 1, 2 and 4 put
    every tile at -2.5, 0.5 and past the extent, and the last rows
    repeat earlier ones."""
    rng = np.random.default_rng(seed)
    cols = []
    for p in space.parameters:
        lo, hi = p.span()
        if p.name.startswith("tile_"):
            lo, hi = -3, 4 * hi + 3
        cols.append(rng.uniform(lo, hi, size=n))
    vectors = np.stack(cols, axis=1)
    vectors[::3] = np.floor(vectors[::3]) + 0.5
    for j, p in enumerate(space.parameters):
        if p.name.startswith("tile_"):
            vectors[[1, 2, 4], j] = (-2.5, 0.5, 4 * p.hi + 2.5)
    vectors[-5:] = vectors[:5]
    return vectors


def assert_same(old: list, new: list) -> None:
    assert new == old
    for a, b in zip(old, new):
        assert [k for k, _ in b.values] == [k for k, _ in a.values]
        assert {type(v) for _, v in a.values} == {type(v) for _, v in b.values} == {int}
        assert {type(x) for x in a.objectives} == {type(x) for x in b.objectives} == {float}


def check(make_problem, vectors) -> None:
    """Keys, E and Configurations of the array decode equal the oracle's,
    each path on its own fresh problem."""
    old_p, new_p = make_problem(), make_problem()
    _, pairs = oracle.batch_configs(old_p, vectors)
    assert new_p.decode(vectors)[1] == [
        oracle.config_key(old_p.target, tiles, threads) for tiles, threads in pairs
    ]
    assert_same(oracle.evaluate_batch(old_p, vectors), new_p.evaluate_batch(vectors))
    assert new_p.evaluations == old_p.evaluations > 0


@pytest.mark.parametrize("kernel", KERNELS)
def test_every_kernel(kernel):
    setup = make_setup(kernel, WESTMERE)
    problem = setup.problem()
    check(lambda: setup.problem(), wild_vectors(problem.space, seed=len(kernel)))


def test_clipping_is_exercised():
    """The wild rows do reach past both ends of the extent clip."""
    setup = make_setup("mm", WESTMERE)
    problem = setup.problem()
    vectors = wild_vectors(problem.space, seed=2)
    keys = problem.decode(vectors)[1]
    extent = setup.model.extent["i"]
    assert vectors[:, 0].min() < 0 and vectors[:, 0].max() > extent
    assert {k[0] for k in keys} >= {1, extent}


def test_tri_objective():
    setup = make_setup("mm", WESTMERE)

    def make():
        target = SimulatedTarget(setup.model, seed=3, measure_energy=True)
        return TuningProblem.from_skeleton(setup.skeleton(), target, tri_objective=True)

    check(make, wild_vectors(make().space, seed=3))


def test_skeleton_with_unroll():
    setup = make_setup("jacobi2d", WESTMERE)
    skeleton = default_skeleton(
        setup.region,
        setup.sizes,
        WESTMERE.total_cores,
        with_unroll=True,
        band=setup.kernel.tile_loops,
    )
    assert "unroll" in [p.name for p in skeleton.parameters]

    def make():
        return TuningProblem.from_skeleton(skeleton, SimulatedTarget(setup.model, seed=4))

    check(make, wild_vectors(make().space, seed=4))


def test_skeleton_choice():
    function = get_kernel("mm").function

    def make():
        return build_skeleton_choice(function, {"N": 700}, WESTMERE, seed=5, max_orders=3)

    problem = make()
    vectors = wild_vectors(problem.space, seed=5)
    old_p, new_p = make(), make()
    assert_same(
        oracle.skeleton_choice_evaluate_batch(old_p, vectors), new_p.evaluate_batch(vectors)
    )
    assert new_p.evaluations == old_p.evaluations > 0


@pytest.mark.parametrize(
    "bad, error",
    [(np.nan, ValueError), (np.inf, OverflowError), (-np.inf, OverflowError)],
)
def test_non_finite_entry_raises_like_int_round(bad, error):
    problem = make_setup("mm", WESTMERE).problem()
    vectors = wild_vectors(problem.space, seed=6, n=8)
    vectors[3, 1] = bad
    with pytest.raises(error):
        oracle.batch_configs(problem, vectors)
    with pytest.raises(error):
        problem.evaluate_batch(vectors)
    assert problem.evaluations == 0
