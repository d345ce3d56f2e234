"""Chunked vs per-key vs serial evaluation on a paper-scale batch.

Two claims on a 4096-configuration mm batch with no per-configuration
latency, both bit-identical to the serial path with an exact E:

* sharding a batch into ``ceil(B/workers)`` chunks — one vectorized
  ``compute_keys`` call per chunk — beats per-key dispatch
  (``chunk_size=1``: B tiny calls, each paying Python call overhead) by at
  least 2x;
* an 8-worker engine is no slower than the serial one (at least 0.95x its
  throughput).  Serial vectorized code is the honest baseline: without
  latency to overlap, the engine's pool rule evaluates inline, so 8
  workers must cost nothing.

Each case is timed three times, interleaved, and its median wall time
counts.  The run emits ``BENCH_dispatch.json`` (configs/sec for serial,
chunked-8 and per-key-8) which CI uploads as an artifact, so throughput
regressions are visible per commit.
"""

from __future__ import annotations

import json
import statistics
import time
from pathlib import Path

import numpy as np

from repro.evaluation.parallel_eval import EvaluationEngine
from repro.evaluation.simulator import SimulatedTarget
from repro.experiments import make_setup
from repro.machine import WESTMERE

from conftest import print_banner

N_CONFIGS = 4096
WORKERS = 8
REPEATS = 3
ARTIFACT = Path("BENCH_dispatch.json")


def _keys(target: SimulatedTarget, n: int) -> list[tuple]:
    rng = np.random.default_rng(12)
    tiles = rng.integers(1, 512, size=(n, 3))
    threads = rng.choice([1, 5, 10, 20, 40], size=n)
    return target.keys_of(tiles, threads)


def _timed(workers: int, chunk_size: int | None):
    setup = make_setup("mm", WESTMERE)
    target = SimulatedTarget(setup.model, seed=0)
    engine = EvaluationEngine(target, max_workers=workers, chunk_size=chunk_size)
    keys = _keys(target, N_CONFIGS)
    t0 = time.perf_counter()
    result = engine.evaluate_batch(keys)
    wall = time.perf_counter() - t0
    return wall, [o.time for o in result.objectives], target.evaluations


def test_chunked_dispatch_beats_per_key_dispatch():
    cases = {
        "serial": (1, None),
        f"chunked-{WORKERS}": (WORKERS, None),
        f"per-key-{WORKERS}": (WORKERS, 1),
    }
    walls: dict[str, list[float]] = {name: [] for name in cases}
    outputs = {}
    for _ in range(REPEATS):
        for name, (workers, chunk_size) in cases.items():
            wall, objs, evaluations = _timed(workers, chunk_size)
            walls[name].append(wall)
            outputs[name] = (objs, evaluations)
    wall = {name: statistics.median(w) for name, w in walls.items()}
    rates = {name: N_CONFIGS / w for name, w in wall.items()}
    speedup = wall[f"per-key-{WORKERS}"] / wall[f"chunked-{WORKERS}"]
    vs_serial = wall["serial"] / wall[f"chunked-{WORKERS}"]

    print_banner(
        f"Dispatch throughput ({N_CONFIGS} mm configs, {WORKERS} workers, "
        f"median of {REPEATS})"
    )
    for name, rate in rates.items():
        print(f"{name:>12}: {rate:10.0f} configs/s")
    print(f"chunked vs per-key: {speedup:5.2f} x")
    print(f"chunked vs serial:  {vs_serial:5.2f} x")

    ARTIFACT.write_text(
        json.dumps(
            {
                "benchmark": "dispatch_speedup",
                "n_configs": N_CONFIGS,
                "workers": WORKERS,
                "repeats": REPEATS,
                "wall_s": wall,
                "configs_per_sec": rates,
                "chunked_vs_per_key_speedup": speedup,
                "chunked_vs_serial_speedup": vs_serial,
            },
            indent=2,
        )
        + "\n"
    )

    # correctness before throughput: every dispatch shape must agree with
    # the serial path bit-for-bit and keep E exact
    serial_objs, serial_e = outputs["serial"]
    for name, (objs, evaluations) in outputs.items():
        assert objs == serial_objs, name
        assert evaluations == serial_e, name

    # one vectorized call per chunk must beat 4096 tiny calls by >= 2x
    assert speedup >= 2.0, (
        f"chunked-{WORKERS} only {speedup:.2f}x over per-key-{WORKERS}"
    )
    # and 8 workers must not lose to serial code on a latency-free target
    assert vs_serial >= 0.95, (
        f"chunked-{WORKERS} runs at {vs_serial:.2f}x serial"
    )
