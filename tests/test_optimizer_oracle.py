"""GDE3 trial construction, box snapping and the rough-set box against
their frozen per-row oracle.

``tests/optimizer_oracle.py`` keeps the NumPy-per-row ``propose``,
``get_closest_to``, ``sample`` and ``rough_set_boundary`` that the
snap-table / Python-scalar rewrite replaced.  Both must return the same
bits and leave the generator in the same state, so every RS-GDE3 and
NSGA-II run keeps its RNG stream.  The golden pins only cover integer
ranges; these cases add categorical parameters (thread choices, unroll
factors, the skeleton choice), boxes narrowed until no choice lies inside,
coordinates at exact halves, values equidistant between two choices and
populations whose trials collapse onto their targets (the jitter draws).
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np
import pytest

from repro.experiments import EXPERIMENT_KERNELS, make_setup
from repro.machine import BARCELONA, WESTMERE
from repro.optimizer import GDE3, Boundary, Configuration, ParameterSpace
from repro.optimizer.config import value_matrix
from repro.optimizer.roughset import rough_set_boundary
from repro.transform.skeleton import Parameter
from tests import optimizer_oracle as oracle


class CountingRNG:
    """A generator proxy that counts ``uniform`` calls (the jitter draw)."""

    def __init__(self, rng: np.random.Generator):
        self.rng = rng
        self.bit_generator = rng.bit_generator
        self.uniform_calls = 0

    def choice(self, *args, **kwargs):
        return self.rng.choice(*args, **kwargs)

    def integers(self, *args, **kwargs):
        return self.rng.integers(*args, **kwargs)

    def random(self, *args, **kwargs):
        return self.rng.random(*args, **kwargs)

    def uniform(self, *args, **kwargs):
        self.uniform_calls += 1
        return self.rng.uniform(*args, **kwargs)


def _same_bits(new: np.ndarray, old: np.ndarray) -> None:
    assert new.dtype == old.dtype and new.shape == old.shape
    assert new.tobytes() == old.tobytes()


def _gde3(space: ParameterSpace) -> GDE3:
    return GDE3(problem=SimpleNamespace(space=space))


def check_propose(gde3: GDE3, population, box: Boundary, seed: int) -> int:
    """Assert ``propose`` == the oracle (bits and generator state); return
    how many jitter draws the new code made."""
    new_rng = CountingRNG(np.random.default_rng(seed))
    old_rng = np.random.default_rng(seed)
    new = gde3.propose(population, box, new_rng)
    old = oracle.propose(gde3, population, box, old_rng)
    _same_bits(new, old)
    assert new_rng.bit_generator.state == old_rng.bit_generator.state
    return new_rng.uniform_calls


def check_sample(box: Boundary, seed: int, count: int = 40) -> None:
    new_rng = np.random.default_rng(seed)
    old_rng = np.random.default_rng(seed)
    _same_bits(box.sample(new_rng, count), oracle.sample(box, old_rng, count))
    assert new_rng.bit_generator.state == old_rng.bit_generator.state


def check_rough_set(population, full: Boundary, **kwargs) -> Boundary:
    new = rough_set_boundary(population, full, **kwargs)
    old = oracle.rough_set_boundary(population, full, **kwargs)
    assert new.space is old.space
    _same_bits(new.lo, old.lo)
    _same_bits(new.hi, old.hi)
    return new


def check_snap(box: Boundary, rows: np.ndarray) -> None:
    """Row path, array path and matrix path all equal the oracle."""
    expected = np.stack([oracle.get_closest_to(box, row) for row in rows])
    _same_bits(np.stack([box.get_closest_to(row) for row in rows]), expected)
    _same_bits(box.snap_rows(rows), expected)
    assert [box.snap(row) for row in rows.tolist()] == expected.tolist()


def _population(space: ParameterSpace, vecs, objs) -> list[Configuration]:
    return [
        Configuration.make(dict(zip(space.names, map(int, v))), tuple(o))
        for v, o in zip(vecs, objs)
    ]


# ---------------------------------------------------------------- Table VI


def _check_generations(problem) -> None:
    """Five real RS-GDE3 generations: every sample, trial set and
    rough-set box (protected and unprotected) equals the oracle's."""
    gde3 = GDE3(problem)
    full = problem.space.full_boundary()
    check_sample(full, seed=11)
    rng = np.random.default_rng(5)
    pop = problem.evaluate_batch(full.sample(rng, gde3.settings.population_size))
    box = full
    for gen in range(5):
        check_rough_set(pop, full)
        box = check_rough_set(pop, full, protect={"threads"})
        check_sample(box, seed=gen)
        check_propose(gde3, pop, box, seed=100 + gen)
        trials = problem.evaluate_batch(gde3.propose(pop, box, rng))
        pop = gde3.select(pop, trials)


@pytest.mark.parametrize("machine", [WESTMERE, BARCELONA], ids=lambda m: m.name)
@pytest.mark.parametrize("kernel", EXPERIMENT_KERNELS)
def test_table6_generations_match_oracle(kernel, machine):
    _check_generations(make_setup(kernel, machine).problem(seed=3))


# ------------------------------------------------------------- categorical


@pytest.mark.parametrize("machine", [WESTMERE, BARCELONA], ids=lambda m: m.name)
@pytest.mark.parametrize("kernel", ["mm", "jacobi2d"])
def test_thread_choice_generations_match_oracle(kernel, machine):
    """Table VI problems with ``threads`` categorical over the machine's
    default thread counts."""
    setup = make_setup(kernel, machine)
    problem = setup.problem(seed=3, thread_choices=setup.thread_counts)
    assert problem.space.parameter("threads").is_categorical
    _check_generations(problem)


def _categorical_space() -> ParameterSpace:
    return ParameterSpace(
        (
            Parameter("tile_i", 1, 64),
            Parameter("tile_j", 1, 7),
            Parameter("threads", 1, 24, choices=(1, 2, 4, 6, 12, 24)),
            Parameter("unroll", 1, 8, choices=(1, 2, 4, 8)),
            Parameter("skeleton", 0, 5, choices=tuple(range(6))),
        )
    )


def _random_population(space: ParameterSpace, rng, n: int, dup_every: int = 0):
    cols = space.sample(rng, n)
    if dup_every:
        cols[::dup_every] = cols[0]
    objs = rng.integers(1, 6, size=(n, 2)).astype(float)  # ties on purpose
    return _population(space, cols, objs)


@pytest.mark.parametrize("seed", range(12))
def test_categorical_spaces_match_oracle(seed):
    space = _categorical_space()
    full = space.full_boundary()
    gde3 = _gde3(space)
    rng = np.random.default_rng(seed)
    pop = _random_population(space, rng, 30, dup_every=3)
    check_sample(full, seed)
    check_propose(gde3, pop, full, seed)
    for protect in (frozenset(), {"threads"}, {"unroll", "tile_j"}):
        for frac in (0.0, 0.1, 0.5):
            box = check_rough_set(pop, full, min_span_fraction=frac, protect=protect)
            check_sample(box, seed)
            check_propose(gde3, pop, box, seed + 1)


def test_skeleton_choice_space_matches_oracle():
    """The skeleton-choice composite: tiles + threads + a categorical
    ``skeleton`` index."""
    from repro.frontend import get_kernel
    from repro.optimizer.skeleton_choice import build_skeleton_choice

    kernel = get_kernel("mm")
    problem = build_skeleton_choice(kernel.function, {"N": 64}, WESTMERE, max_orders=3)
    assert problem.space.parameter("skeleton").is_categorical
    gde3 = _gde3(problem.space)
    full = problem.space.full_boundary()
    rng = np.random.default_rng(2)
    pop = problem.evaluate_batch(full.sample(rng, 30))
    for gen in range(3):
        box = check_rough_set(pop, full, protect={"threads"})
        check_propose(gde3, pop, box, seed=gen)
        trials = problem.evaluate_batch(gde3.propose(pop, box, rng))
        pop = gde3.select(pop, trials)


def test_box_without_any_choice_falls_back_to_all_choices():
    space = _categorical_space()
    lo = np.array([3.0, 2.0, 7.2, 5.0, 2.3])
    # no thread, unroll or skeleton choice lies inside
    hi = np.array([9.5, 2.5, 11.9, 7.5, 2.7])
    box = Boundary(space, lo, hi)
    rows = np.random.default_rng(0).uniform(-5.0, 30.0, size=(200, space.dim))
    check_snap(box, rows)
    # threads 7.2..11.9 lies between 6 and 12: 7.2 snaps to 6, 11.9 to 12
    snapped = box.snap_rows(np.array([[0, 0, 0, 0, 0], [99, 99, 99, 99, 99]], float))
    assert snapped[:, 2].tolist() == [6.0, 12.0]
    assert snapped[:, 3].tolist() == [4.0, 8.0]
    assert snapped[:, 4].tolist() == [2.0, 3.0]
    check_sample(box, seed=4)
    pop = _random_population(space, np.random.default_rng(1), 30, dup_every=2)
    check_propose(_gde3(space), pop, box, seed=4)


def test_exact_halves_round_to_even():
    space = ParameterSpace((Parameter("tile_i", 1, 100), Parameter("tile_j", 1, 100)))
    box = space.full_boundary()
    rows = np.array([[2.5, 3.5], [0.5, 1.5], [99.5, 100.5], [4.5, 5.5]])
    check_snap(box, rows)
    assert box.get_closest_to(np.array([2.5, 3.5])).tolist() == [2.0, 4.0]
    # a box edge at a half: the clipped 2.5 rounds to 2, just outside it,
    # exactly as Parameter.clamp did
    narrow = Boundary(space, np.array([2.5, 3.5]), np.array([10.5, 20.5]))
    check_snap(narrow, rows)
    assert narrow.snap([0.0, 0.0]) == [2, 4]


def test_equidistant_values_take_the_lower_choice():
    space = ParameterSpace((Parameter("unroll", 1, 8, choices=(1, 2, 4, 8)),))
    box = space.full_boundary()
    rows = np.array([[1.5], [3.0], [6.0], [2.0], [4.0], [5.0], [7.0]])
    check_snap(box, rows)
    assert box.snap_rows(rows)[:, 0].tolist() == [1.0, 2.0, 4.0, 2.0, 4.0, 4.0, 8.0]


def test_duplicate_population_fires_the_jitter_branch():
    """A population of one repeated point makes every donor equal its
    target, so each trial collapses and draws the jitter coordinate; with
    two repeated points only some members collapse."""
    mm_space = ParameterSpace(make_setup("mm", WESTMERE).skeleton().parameters)
    for space in (_categorical_space(), mm_space):
        full = space.full_boundary()
        points = space.sample(np.random.default_rng(0), 2)
        pop = _population(space, np.repeat(points[:1], 30, axis=0), [(1.0, 1.0)] * 30)
        assert check_propose(_gde3(space), pop, full, seed=9) == 30
        pop = _population(space, np.tile(points, (15, 1)), [(1.0, 2.0), (2.0, 1.0)] * 15)
        assert 0 < check_propose(_gde3(space), pop, full, seed=9) < 30


@pytest.mark.parametrize("seed", range(30))
def test_random_spaces_and_boxes_match_oracle(seed):
    """Random mixes of integer and categorical parameters, random
    fractional boxes, populations with duplicates and tied objectives."""
    rng = np.random.default_rng(1000 + seed)
    params = []
    for j in range(int(rng.integers(2, 6))):
        if rng.random() < 0.5:
            lo = int(rng.integers(0, 5))
            params.append(Parameter(f"p{j}", lo, lo + int(rng.integers(0, 40))))
        else:
            k = int(rng.integers(1, 7))
            choices = tuple(sorted(set(rng.integers(0, 50, size=k).tolist())))
            params.append(Parameter(f"p{j}", choices[0], choices[-1], choices=choices))
    space = ParameterSpace(tuple(params))
    full = space.full_boundary()
    a = rng.uniform(full.lo, full.hi)
    b = rng.uniform(full.lo, full.hi)
    if seed % 3 == 0:  # box edges at exact halves
        a, b = np.floor(a) + 0.5, np.floor(b) + 0.5
        a, b = np.minimum(a, full.hi), np.minimum(b, full.hi)
    box = Boundary(space, np.minimum(a, b), np.maximum(a, b))
    rows = rng.uniform(full.lo - 3, full.hi + 3, size=(100, space.dim))
    rows[::4] = np.round(rows[::4] * 2) / 2  # exact halves
    check_snap(full, rows)
    check_snap(box, rows)
    check_sample(full, seed)
    check_sample(box, seed)
    n = int(rng.integers(4, 40))
    pop = _random_population(space, rng, n, dup_every=int(rng.integers(0, 4)))
    gde3 = _gde3(space)
    check_propose(gde3, pop, full, seed)
    check_propose(gde3, pop, box, seed)
    protect = {space.names[0]} if seed % 2 else frozenset()
    reduced = check_rough_set(pop, full, protect=protect)
    check_propose(gde3, pop, reduced, seed)


def test_value_matrix_matches_vector():
    """The one-pass population matrix equals the per-member ``vector()``
    rows in space order, and rejects configurations of another space."""
    space = _categorical_space()
    pop = _random_population(space, np.random.default_rng(6), 25)
    expected = np.stack([c.vector(space.names) for c in pop])
    _same_bits(value_matrix(pop, space.names), expected)
    extra = Configuration.make({**pop[0].as_dict(), "extra": 1}, (1.0, 1.0))
    with pytest.raises(ValueError):
        value_matrix(pop + [extra], space.names)
