"""One RS-GDE3 ``tell`` on Python floats from one front ranking against
the frozen NumPy path in ``tests/optimizer_oracle.py``.

Selection, truncation, the rough-set box, its volume fraction and the
generation's |S| and V must come out identical: the same Configuration
objects in the same order, the same box bytes and the same floats, bit
for bit.  The cases are every generation of the ten Table VI cells, the
NSGA-II mm run, and hand-made populations with exact duplicates, ties in
one objective, fully non-dominated populations, a first front larger
than NP, a last front of one or two points and ties at infinite crowding
distance.
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np
import pytest

from repro.driver.compiler import TuningDriver
from repro.experiments import EXPERIMENT_KERNELS
from repro.machine import BARCELONA, WESTMERE
from repro.optimizer import GDE3, Configuration, ParameterSpace, nsga2, rsgde3
from repro.optimizer.archive import ParetoArchive
from repro.optimizer.config import objective_matrix
from repro.optimizer.gde3 import GDE3Settings, survivors
from repro.optimizer.hypervolume import hypervolume
from repro.optimizer.pareto import (
    crowding,
    first_front,
    front_ranks,
    non_dominated_mask,
    sort_fronts,
)
from repro.optimizer.roughset import rough_set_boundary
from repro.transform.skeleton import Parameter
from tests import optimizer_oracle as oracle


def tell(gde3: GDE3, previous, configs, full, protect, reference):
    """The ``tell`` work of :class:`RSGDE3State`, as :func:`oracle.tell`
    returns it: selection, then the box, its volume and (|S|, V) from the
    selection's ranking."""
    population = gde3.select(previous, configs)
    front = gde3.front
    box = rough_set_boundary(population, full, protect=protect, front=front)
    if front is None:
        points = [c.objectives for c in population]
    else:
        points = [population[i].objectives for i in front]
    stats = ParetoArchive.stats_of(points, reference)
    return population, box, box.volume_fraction(), stats


def assert_same_tell(new, old) -> None:
    (pop, box, volume, (size, hv)), (o_pop, o_box, o_volume, (o_size, o_hv)) = new, old
    assert [id(c) for c in pop] == [id(c) for c in o_pop]
    assert box.lo.dtype == o_box.lo.dtype and box.hi.dtype == o_box.hi.dtype
    assert box.lo.tobytes() == o_box.lo.tobytes()
    assert box.hi.tobytes() == o_box.hi.tobytes()
    assert volume.hex() == o_volume.hex()
    assert size == o_size
    assert float(hv).hex() == float(o_hv).hex()


def assert_same_fronts(points) -> None:
    """Fronts, first front and per-front crowding equal the oracle's."""
    old = oracle.non_dominated_sort(np.array(points, dtype=float).reshape(-1, 2))
    fronts = sort_fronts(points)
    assert fronts == [f.tolist() for f in old]
    assert first_front(points) == (old[0].tolist() if old else [])
    for front in fronts:
        dist = np.array(crowding([points[i] for i in front]), dtype=float)
        expected = oracle.crowding_distance(np.array([points[i] for i in front]))
        assert dist.tobytes() == expected.tobytes()


# ---------------------------------------------------------------- Table VI


def _captured_tells(monkeypatch, machine, kernel):
    """Run one ``tune_kernel`` and keep every ``tell``'s inputs and
    outputs: ``(state, previous, configs, (population, box, volume,
    (|S|, V)))``."""
    told = []
    real = rsgde3.RSGDE3State.tell

    def spy(state, configs):
        previous = state.population
        record = real(state, configs)
        out = (state.population, state.boundary, state.boundary_history[-1],
               (record.front_size, record.hypervolume))
        told.append((state, previous, configs, out))
        return record

    monkeypatch.setattr(rsgde3.RSGDE3State, "tell", spy)
    TuningDriver(machine=machine).tune_kernel(kernel)
    return told


@pytest.mark.parametrize("machine", [WESTMERE, BARCELONA], ids=lambda m: m.name)
@pytest.mark.parametrize("kernel", EXPERIMENT_KERNELS)
def test_table6_tells_match_oracle(monkeypatch, kernel, machine):
    told = _captured_tells(monkeypatch, machine, kernel)
    assert len(told) > 3
    for state, previous, configs, new in told:
        protect = state.settings.protect
        if previous is None:  # the initial sample: no selection
            objs = objective_matrix(configs)
            box = oracle.rough_set_boundary_vectorized(configs, state.full, protect=protect)
            old = (configs, box, oracle.volume_fraction(box),
                   (int(non_dominated_mask(objs).sum()), hypervolume(objs, state.log.ref)))
        else:
            old = oracle.tell(state.gde3, previous, configs, state.full, protect,
                              state.log.ref)
        assert_same_tell(new, old)
        assert_same_fronts([c.objectives for c in configs + (previous or [])])


def test_nsga2_mm_generations_match_oracle(monkeypatch):
    merged_inputs = []
    real_survivors = nsga2.survivors

    def spy(points, size):
        out = real_survivors(points, size)
        merged_inputs.append((points, size, out))
        return out

    recorded = []
    real_record = rsgde3.ConvergenceLog.record

    def record_spy(log, population, previous=None, front=None):
        out = real_record(log, population, previous, front)
        recorded.append((log.ref, population, out))
        return out

    monkeypatch.setattr(nsga2, "survivors", spy)
    monkeypatch.setattr(rsgde3.ConvergenceLog, "record", record_spy)
    TuningDriver(machine=WESTMERE).tune_kernel("mm", optimizer="nsga2")
    assert len(merged_inputs) == nsga2.NSGA2Settings().generations
    for points, size, (kept, n_front) in merged_inputs:
        pop = [Configuration(values=(("i", i),), objectives=p) for i, p in enumerate(points)]
        assert kept == [c.values[0][1] for c in oracle.truncate(pop, size)]
        assert n_front == min(len(oracle.non_dominated_sort(np.array(points))[0]), size)
        assert_same_fronts(points)
    for ref, population, out in recorded:
        objs = objective_matrix(population)
        assert out.front_size == non_dominated_mask(objs).sum()
        assert out.hypervolume.hex() == hypervolume(objs, ref).hex()
        rank, crowd = nsga2.NSGA2._rank_and_crowd(None, population)
        old_rank = np.empty(len(population), dtype=int)
        old_crowd = np.empty(len(population))
        for r, front in enumerate(oracle.non_dominated_sort(objs)):
            old_rank[front] = r
            old_crowd[front] = oracle.crowding_distance(objs[front])
        assert rank == old_rank.tolist()
        assert np.array(crowd).tobytes() == old_crowd.tobytes()


# ------------------------------------------------------------ hand-made


SPACE = ParameterSpace(
    (
        Parameter("tile_i", 1, 64),
        Parameter("tile_j", 1, 40),
        Parameter("threads", 1, 24, choices=(1, 2, 4, 6, 12, 24)),
    )
)
FULL = SPACE.full_boundary()
REF = np.array([12.0, 12.0])


def _configs(rng, objs) -> list[Configuration]:
    vecs = oracle.space_sample(SPACE, rng, len(objs))
    return [
        Configuration.make(dict(zip(SPACE.names, map(int, v))), tuple(map(float, o)))
        for v, o in zip(vecs, objs)
    ]


def check_tell(previous_objs, trial_objs, np_size: int, seed: int = 0):
    rng = np.random.default_rng(seed)
    previous = _configs(rng, previous_objs)
    configs = _configs(rng, trial_objs)
    gde3 = GDE3(
        problem=SimpleNamespace(space=SPACE),
        settings=GDE3Settings(population_size=np_size),
    )
    for protect in (frozenset(), frozenset({"threads"})):
        new = tell(gde3, previous, configs, FULL, protect, REF)
        old = oracle.tell(gde3, previous, configs, FULL, protect, REF)
        assert_same_tell(new, old)
    assert_same_fronts([c.objectives for c in previous + configs])
    return new


def _stair(n, x0=1.0, step=1.0):
    """n mutually non-dominated points."""
    return [(x0 + step * i, x0 + step * (n - 1 - i)) for i in range(n)]


def test_exact_duplicates_share_a_front():
    pts = [(2.0, 3.0), (2.0, 3.0), (1.0, 5.0), (2.0, 3.0), (4.0, 4.0), (4.0, 4.0)]
    assert front_ranks(pts) == [0, 0, 0, 0, 1, 1]
    prev = [(2.0, 3.0)] * 4 + [(5.0, 5.0)] * 4
    trials = [(2.0, 3.0), (3.0, 2.0), (5.0, 5.0), (1.0, 6.0)] * 2
    check_tell(prev, trials, np_size=8)


def test_ties_in_one_objective():
    f0_ties = [(1.0, 5.0), (1.0, 4.0), (1.0, 6.0), (2.0, 4.0), (2.0, 1.0), (3.0, 1.0)]
    f1_ties = [(5.0, 1.0), (4.0, 1.0), (6.0, 1.0), (4.0, 2.0), (1.0, 2.0), (1.0, 3.0)]
    check_tell(f0_ties, f1_ties, np_size=6)
    check_tell(f1_ties, f0_ties, np_size=6)


def test_all_non_dominated_population_keeps_the_full_box():
    pts = _stair(10)
    new = check_tell(pts, pts[::-1], np_size=10)
    assert new[1] is FULL  # nothing dominated: no reduction


def test_first_front_larger_than_np_is_thinned_by_crowding():
    prev = _stair(12, step=0.5)
    trials = _stair(12, x0=1.25, step=0.5)
    pop, _, _, (size, _) = check_tell(prev, trials, np_size=8)
    assert len(pop) == 8 and size == 8


@pytest.mark.parametrize("np_size", [6, 7])
def test_last_front_of_one_or_two_points(np_size):
    # fronts of 5, 2 and 1 targets, every trial dominated by its target:
    # NP = 6 thins the 2-point front (both at infinite distance) to one,
    # NP = 7 admits it whole and has no room for the 1-point front
    prev = _stair(5) + [(9.0, 9.0), (9.5, 8.5), (12.0, 12.0)]
    trials = [(x + 0.5, y + 0.5) for x, y in prev]
    assert [len(f) for f in sort_fronts(prev)] == [5, 2, 1]
    pop, _, _, (size, _) = check_tell(prev, trials, np_size=np_size)
    assert len(pop) == np_size and size == 5


def test_infinite_distance_ties_keep_index_order():
    # four boundary points per objective tie at infinite distance
    pts = [(1.0, 4.0), (1.0, 4.0), (4.0, 1.0), (4.0, 1.0), (2.0, 3.0), (3.0, 2.0)]
    dist = crowding(pts)
    assert dist[:4] == [np.inf] * 4
    kept, n_front = survivors(pts, 3)
    assert kept == [0, 1, 2] and n_front == 3
    check_tell(pts, pts[::-1], np_size=4)


def test_every_pair_decided_leaves_ranking_to_the_box_and_stats():
    # each trial dominates or is dominated by its target: NP survivors,
    # no truncation, so select ranks nothing
    prev = [(1.0, 9.0), (4.0, 4.0), (6.0, 7.0), (9.0, 1.0), (5.0, 5.0)]
    trials = [(2.0, 9.0), (3.0, 3.0), (7.0, 7.0), (8.0, 1.0), (5.0, 6.0)]
    rng = np.random.default_rng(0)
    gde3 = GDE3(problem=SimpleNamespace(space=SPACE), settings=GDE3Settings(population_size=5))
    assert len(gde3.select(_configs(rng, prev), _configs(rng, trials))) == 5
    assert gde3.front is None
    check_tell(prev, trials, np_size=5)


@pytest.mark.parametrize("seed", range(30))
def test_random_populations_with_ties(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(6, 31))
    prev = rng.integers(1, 8, size=(n, 2)).astype(float)
    trials = rng.integers(1, 8, size=(n, 2)).astype(float)
    check_tell(prev.tolist(), trials.tolist(), np_size=max(4, n - int(rng.integers(0, 6))))
    # continuous objectives exercise the crowding and volume arithmetic
    check_tell(rng.random((n, 2)).tolist(), rng.random((n, 2)).tolist(), np_size=n // 2 + 3)


@pytest.mark.parametrize("seed", range(5))
def test_three_objectives_keep_the_general_branch(seed):
    rng = np.random.default_rng(seed)
    objs = rng.integers(1, 5, size=(40, 3)).astype(float)
    fronts = sort_fronts([tuple(o) for o in objs.tolist()])
    assert fronts == [f.tolist() for f in oracle.non_dominated_sort(objs)]
    pop = [Configuration(values=(("i", i),), objectives=tuple(o))
           for i, o in enumerate(objs.tolist())]
    kept, _ = survivors([c.objectives for c in pop], 25)
    assert [pop[i] for i in kept] == oracle.truncate(pop, 25)
