"""Golden pins of the paper's results.

RS-GDE3 at the ``repro tune`` defaults (seed 0, run seed 0, default
sizes, serial evaluation) for the five Table VI kernels on both machines,
with each cell's untiled sequential baseline time, the tri-objective
(time, resources, energy) mm run on Westmere, the jacobi-2d multi-region
run, one NSGA-II run and the mm brute-force sweep on Westmere (the
Fig. 9 reference front), compared with ``==``
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

import pytest

from repro.driver.compiler import TuningDriver
from repro.experiments import EXPERIMENT_KERNELS, make_setup, run_brute_force
from repro.frontend import get_kernel
from repro.machine import BARCELONA, WESTMERE

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


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(compute(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
