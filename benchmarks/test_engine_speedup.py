"""Evaluation-engine speedup under a heavier measurement protocol.

The paper's evaluator parallelizes configuration evaluation because real
measurements dominate tuning time (compile + run per configuration).  The
simulated target models that with ``MeasurementProtocol.overhead_s`` — a
fixed wall-clock cost slept per measured configuration (the sleep releases
the GIL, like a real subprocess compile/run would).  This benchmark checks
the engine actually converts worker threads into wall-time savings, and
that the parallel results stay bit-identical to the serial ones while it
does so.
"""

from __future__ import annotations

import time

from repro.evaluation.parallel_eval import EvaluationEngine
from repro.evaluation.measurements import MeasurementProtocol
from repro.evaluation.simulator import SimulatedTarget
from repro.experiments import make_setup
from repro.machine import WESTMERE

from conftest import print_banner

#: per-configuration measurement cost; 5 ms ≈ a (very fast) compile+run
OVERHEAD_S = 0.005
WORKERS = 8
N_CONFIGS = 64


def _target(overhead: float) -> SimulatedTarget:
    setup = make_setup("mm", WESTMERE)
    return SimulatedTarget(
        setup.model,
        seed=0,
        protocol=MeasurementProtocol(overhead_s=overhead),
    )


def _keys(target: SimulatedTarget, n: int) -> list[tuple]:
    return [
        target.config_key({"i": 8 + 8 * (i % 32), "j": 16 + 16 * (i // 32), "k": 8}, 10)
        for i in range(n)
    ]


def _timed_batch(workers: int) -> tuple[float, list[float], int]:
    target = _target(OVERHEAD_S)
    engine = EvaluationEngine(target, max_workers=workers)
    keys = _keys(target, N_CONFIGS)
    t0 = time.perf_counter()
    result = engine.evaluate_batch(keys)
    wall = time.perf_counter() - t0
    return wall, [o.time for o in result.objectives], target.evaluations


def test_engine_speedup_with_measurement_overhead():
    serial_wall, serial_objs, serial_e = _timed_batch(1)
    parallel_wall, parallel_objs, parallel_e = _timed_batch(WORKERS)
    speedup = serial_wall / parallel_wall

    print_banner(
        f"Evaluation-engine speedup ({N_CONFIGS} configs x "
        f"{OVERHEAD_S * 1000:.0f} ms measurement overhead)"
    )
    print(f"serial (1 worker):    {serial_wall:6.3f} s")
    print(f"pooled ({WORKERS} workers):   {parallel_wall:6.3f} s")
    print(f"speedup:              {speedup:6.2f} x")

    # correctness first: parallelism must not change a single bit or E
    assert parallel_objs == serial_objs
    assert parallel_e == serial_e == N_CONFIGS

    # the measurement overhead floor is ~N*overhead serial vs ~N/W pooled;
    # demand at least 2x at 8 workers (plenty of slack for CI jitter)
    assert speedup >= 2.0, f"expected >= 2x speedup at {WORKERS} workers, got {speedup:.2f}x"


def test_engine_overhead_negligible_without_protocol_cost():
    """With a free measurement protocol the serial bulk path must stay
    within the same order of magnitude as raw target batch evaluation —
    the engine's bookkeeping is not allowed to dominate cheap targets."""
    target = _target(0.0)
    engine = EvaluationEngine(target, max_workers=1)
    keys = _keys(target, N_CONFIGS)
    t0 = time.perf_counter()
    engine.evaluate_batch(keys)
    wall = time.perf_counter() - t0
    assert wall < 0.5  # 64 cheap configs should be milliseconds, not seconds
