"""The ask/tell RS-GDE3 state shared by single-region and multi-region
tuning: driving it by hand reproduces ``RSGDE3.run``, and multi-region
tuning honours every setting the single-region loop does."""

from __future__ import annotations

import pytest

import repro.optimizer.seeding as seeding
from repro.driver.multiregion import MultiRegionTuner
from repro.experiments import make_setup
from repro.frontend import get_kernel
from repro.machine import WESTMERE
from repro.optimizer import NSGA2, RSGDE3, rsgde3
from repro.optimizer.gde3 import GDE3Settings
from repro.optimizer.rsgde3 import RSGDE3Settings
from repro.util.rng import derive_rng

FAST = RSGDE3Settings(
    gde3=GDE3Settings(population_size=12), max_generations=10, patience=2
)


def mm_problem():
    return make_setup("mm", WESTMERE).problem(seed=7)


def jacobi_tuner(settings=FAST):
    k = get_kernel("jacobi2d")
    return MultiRegionTuner(
        function=k.function,
        sizes={"N": 500, "T": 5},
        machine=WESTMERE,
        settings=settings,
        seed=7,
    )


class TestAskTell:
    def test_hand_driven_state_matches_run(self):
        ref = RSGDE3(mm_problem(), FAST).run(seed=3)
        problem = mm_problem()
        state = rsgde3.RSGDE3State(problem, FAST, derive_rng(3, "rsgde3"))
        while not state.finished:
            state.tell(problem.evaluate_batch(state.ask()))
        assert state.result() == ref

    def test_first_ask_is_the_initial_sample(self):
        problem = mm_problem()
        state = rsgde3.RSGDE3State(problem, FAST, derive_rng(0, "rsgde3"))
        assert state.generation == -1
        vectors = state.ask()
        assert vectors.shape == (FAST.gde3.population_size, problem.space.dim)
        record = state.tell(problem.evaluate_batch(vectors))
        assert record.generation == state.generation == 0
        assert record.accepted == FAST.gde3.population_size
        assert len(state.boundary_history) == 1

    def test_max_generations_caps_the_loop(self):
        settings = RSGDE3Settings(
            gde3=GDE3Settings(population_size=8), max_generations=2, patience=99
        )
        res = RSGDE3(mm_problem(), settings).run(seed=1)
        assert res.generations == 2
        assert len(res.convergence) == len(res.boundary_history) == 3

    def test_hv_history_is_derived_from_convergence(self):
        for res in (
            RSGDE3(mm_problem(), FAST).run(seed=2),
            NSGA2(mm_problem()).run(seed=2),
        ):
            assert res.hv_history == tuple(
                (r.evaluations, r.hypervolume) for r in res.convergence
            )
            assert len(res.hv_history) == res.generations + 1


class TestMultiRegionUsesTheSameLoop:
    def test_informed_seeding_reaches_every_region(self, monkeypatch):
        calls = []
        original = seeding.mixed_initial_vectors

        def spy(*args, **kwargs):
            calls.append(kwargs["informed_fraction"])
            return original(*args, **kwargs)

        monkeypatch.setattr(seeding, "mixed_initial_vectors", spy)
        settings = RSGDE3Settings(
            gde3=FAST.gde3,
            max_generations=FAST.max_generations,
            patience=FAST.patience,
            informed_seed_fraction=0.5,
        )
        res = jacobi_tuner(settings).run(seed=2)
        assert calls == [0.5] * len(res.results)

    def test_informed_seeding_changes_the_initial_population(self):
        settings = RSGDE3Settings(gde3=FAST.gde3, informed_seed_fraction=0.5)
        plain = jacobi_tuner().run(seed=2)
        seeded = jacobi_tuner(settings).run(seed=2)
        assert [r.convergence[0] for r in seeded.results] != [
            r.convergence[0] for r in plain.results
        ]

    @pytest.mark.parametrize("method", ["run", "run_lockstep"])
    def test_boundary_history_per_region(self, method):
        res = getattr(jacobi_tuner(), method)(seed=2)
        for r in res.results:
            assert len(r.boundary_history) == r.generations + 1
            assert len(r.convergence) == r.generations + 1
            assert all(0.0 < b <= 1.0 for b in r.boundary_history)
        assert res.generations == max(r.generations for r in res.results)

    def test_seeded_scheduler_matches_lockstep(self):
        settings = RSGDE3Settings(
            gde3=FAST.gde3,
            max_generations=FAST.max_generations,
            patience=FAST.patience,
            informed_seed_fraction=0.5,
        )
        a = jacobi_tuner(settings).run(seed=2)
        b = jacobi_tuner(settings).run_lockstep(seed=2)
        assert a.results == b.results
        assert a.program_runs == b.program_runs
