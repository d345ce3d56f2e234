"""Golden pins of the paper's results.

RS-GDE3 at the ``repro tune`` defaults (seed 0, run seed 0, default
sizes, serial evaluation) for the five Table VI kernels on both machines,
with each cell's untiled sequential baseline time, the tri-objective
(time, resources, energy) mm run on Westmere, the jacobi-2d multi-region
run, one NSGA-II run, the mm brute-force sweep on Westmere (the
Fig. 9 reference front) and the runtime's selections over seeded
invocation streams (:func:`runtime_case`), compared with ``==``
against ``tests/golden/results.json``.  A refactor of the optimizer loop,
the evaluation engine or the cost model must leave every value unchanged;
floats are pinned as ``float.hex`` and fronts and convergence traces as
sha256 digests, so the comparison is exact.

Regenerate the file only for a change that is meant to move the science::

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import functools
import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.driver.compiler import TuningDriver
from repro.experiments import EXPERIMENT_KERNELS, make_setup, run_brute_force
from repro.frontend import get_kernel
from repro.machine import BARCELONA, WESTMERE
from repro.runtime import BanditSelector, RegionExecutor, RuntimeMonitor, policy_by_name

GOLDEN = Path(__file__).parent / "golden" / "results.json"
MACHINES = (WESTMERE, BARCELONA)


def _sha(obj) -> str:
    return hashlib.sha256(json.dumps(obj).encode()).hexdigest()


def _front_digest(front) -> str:
    """Order-independent digest of a Pareto set: parameter values plus
    the exact objective values of every point."""
    rows = sorted(
        (list(map(list, c.values)), [float(x).hex() for x in c.objectives])
        for c in front
    )
    return _sha(rows)


def _convergence_digest(result) -> str:
    return _sha(
        [
            [r.generation, r.evaluations, r.front_size, float(r.hypervolume).hex(),
             r.accepted, r.dominated]
            for r in result.convergence
        ]
    )


def _pin(result, boundary: bool = True) -> dict:
    pin = {
        "E": result.evaluations,
        "S": result.size,
        "generations": result.generations,
        "V": float(result.convergence[-1].hypervolume).hex(),
        "front": _front_digest(result.front),
        "convergence": _convergence_digest(result),
    }
    if boundary:
        pin["boundary_history"] = _sha([float(b).hex() for b in result.boundary_history])
    return pin


@functools.lru_cache(maxsize=None)
def _tuned(kernel: str, machine):
    return TuningDriver(machine=machine).tune_kernel(kernel)


def rsgde3_case(kernel: str, machine) -> dict:
    return _pin(_tuned(kernel, machine).result)


def baseline_case(kernel: str, machine) -> str:
    """The untiled sequential time (the "-O3" row) of a Table VI cell."""
    return float(_tuned(kernel, machine).baseline_time).hex()


def energy_case() -> dict:
    result = TuningDriver(machine=WESTMERE).tune_kernel("mm", with_energy=True).result
    return _pin(result, boundary=False)


def nsga2_case() -> dict:
    result = TuningDriver(machine=WESTMERE).tune_kernel("mm", optimizer="nsga2").result
    return _pin(result, boundary=False)


def brute_force_case() -> dict:
    result = run_brute_force(make_setup("mm", WESTMERE)).result
    return {
        "E": result.evaluations,
        "S": result.size,
        "V": float(result.convergence[-1].hypervolume).hex(),
        "front": _front_digest(result.front),
    }


def multiregion_case() -> dict:
    kernel = get_kernel("jacobi2d")
    res = TuningDriver(machine=WESTMERE).tune_multiregion(
        kernel.function, kernel.default_size, kernel=kernel
    )
    return {
        "program_runs": res.program_runs,
        "generations": res.generations,
        "regions": [
            {
                "E": r.evaluations,
                "S": r.size,
                "front": _front_digest(r.front),
                "convergence": _convergence_digest(r),
            }
            for r in res.results
        ],
    }


RUNTIME_SEEDS = (0, 1, 2)


def runtime_case(seed: int) -> dict:
    """One seeded stream of 2,000 region invocations through
    ``repro.runtime`` over the five Westmere Table VI version tables.  Each
    region has one monitor and three executors (compiled ``balanced``,
    context-sensitive ``thread_cap``, a seeded bandit); per invocation the
    available cores are set, one executor selects, the monitor records the
    version's tuned time times a lognormal factor as its wall time, and the
    bandit observes it.  Every 200 invocations one region's executors
    recalibrate.  Pins the digest of the selected version indices and of
    every executor's final table (``float.hex`` metadata), so the values
    that feed the runtime stay bit-identical into its decisions.  Like the
    other pins, it assumes the AVX-512 NumPy dispatch the file was
    generated with; on a host without it, the tuned tables may differ in
    their last bits."""
    tables = [_tuned(k, WESTMERE).build_version_table() for k in EXPERIMENT_KERNELS]
    rng = np.random.default_rng([seed, 31])
    n, every = 2000, 200
    regions = rng.integers(0, len(tables), n).tolist()
    policies = rng.integers(0, 3, n).tolist()
    cores = rng.choice((1, 2, 4, 8, 16), n).tolist()
    factors = rng.lognormal(0.0, 0.015, n).tolist()
    executors = []
    for r, table in enumerate(tables):
        monitor = RuntimeMonitor()
        executors.append([
            RegionExecutor(table, policy_by_name("balanced"), monitor=monitor),
            RegionExecutor(table, policy_by_name("thread_cap"), monitor=monitor),
            RegionExecutor(table, BanditSelector(seed=10 * seed + r), monitor=monitor),
        ])
    chosen = []
    for i, (r, p, c, factor) in enumerate(zip(regions, policies, cores, factors)):
        executor = executors[r][p]
        executor.monitor.set_available_cores(c)
        meta = executor.select().meta
        wall = tables[r].versions[meta.index].meta.time * factor
        executor.monitor.record(executor.table.region_name, meta.index, meta.threads,
                                meta.time, wall)
        if p == 2:
            executor.policy.observe(meta.index, wall)
        chosen.append(meta.index)
        if (i + 1) % every == 0:
            for ex in executors[(i // every) % len(executors)]:
                ex.recalibrate()
    final = [
        [
            [m.index, float(m.time).hex(), float(m.resources).hex(), m.threads,
             None if m.energy is None else float(m.energy).hex()]
            for m in (v.meta for v in ex.table.versions)
        ]
        for row in executors
        for ex in row
    ]
    return {"selections": _sha(chosen), "tables": _sha(final)}


def compute() -> dict:
    return {
        "rsgde3": {
            f"{k}/{m.name}": rsgde3_case(k, m)
            for m in MACHINES
            for k in EXPERIMENT_KERNELS
        },
        "baseline_time": {
            f"{k}/{m.name}": baseline_case(k, m)
            for m in MACHINES
            for k in EXPERIMENT_KERNELS
        },
        "energy": {"mm/Westmere": energy_case()},
        "nsga2": {"mm/Westmere": nsga2_case()},
        "brute_force": {"mm/Westmere": brute_force_case()},
        "multiregion": {"jacobi2d/Westmere": multiregion_case()},
        "runtime": {f"seed{seed}": runtime_case(seed) for seed in RUNTIME_SEEDS},
    }


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("machine", MACHINES, ids=lambda m: m.name)
@pytest.mark.parametrize("kernel", EXPERIMENT_KERNELS)
def test_rsgde3_table6_cell(golden, kernel, machine):
    assert rsgde3_case(kernel, machine) == golden["rsgde3"][f"{kernel}/{machine.name}"]


@pytest.mark.parametrize("machine", MACHINES, ids=lambda m: m.name)
@pytest.mark.parametrize("kernel", EXPERIMENT_KERNELS)
def test_baseline_time(golden, kernel, machine):
    assert baseline_case(kernel, machine) == golden["baseline_time"][f"{kernel}/{machine.name}"]


def test_energy_mm(golden):
    assert energy_case() == golden["energy"]["mm/Westmere"]


def test_nsga2_mm(golden):
    assert nsga2_case() == golden["nsga2"]["mm/Westmere"]


def test_brute_force_mm(golden):
    assert brute_force_case() == golden["brute_force"]["mm/Westmere"]


def test_multiregion_jacobi2d(golden):
    assert multiregion_case() == golden["multiregion"]["jacobi2d/Westmere"]


@pytest.mark.parametrize("seed", RUNTIME_SEEDS)
def test_runtime_selections(golden, seed):
    assert runtime_case(seed) == golden["runtime"][f"seed{seed}"]


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(compute(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
