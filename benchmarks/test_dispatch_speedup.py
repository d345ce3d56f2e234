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

Both claims are gated on paired runs: each pair times the chunked-8 case
next to the case it is compared with, the pairs alternate which of the two
runs first (so neither always pays for a cold start or a load burst), and
the gate reads the median of the per-pair wall-time ratios.  The cheap
chunked-vs-serial ratio gets :data:`PAIRS` pairs, the per-key one (4096
calls, seconds per run) :data:`PER_KEY_PAIRS`.  The run emits
``BENCH_dispatch.json`` (configs/sec for serial, chunked-8 and per-key-8,
plus the per-pair ratios) which CI uploads as an artifact, so throughput
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
#: chunked-8 vs serial pairs (about 0.1 s each)
PAIRS = 31
#: chunked-8 vs per-key-8 pairs (about 2 s each)
PER_KEY_PAIRS = 3
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


def _paired(
    base: tuple[int, int | None], pairs: int, outputs: dict, walls: dict
) -> list[float]:
    """Time *base* against chunked-8 *pairs* times, alternating which runs
    first; returns the per-pair ratios ``base wall / chunked wall``."""
    chunked = (WORKERS, None)
    ratios = []
    for i in range(pairs):
        order = (base, chunked) if i % 2 == 0 else (chunked, base)
        wall = {}
        for case in order:
            wall[case], objs, evaluations = _timed(*case)
            outputs[case] = (objs, evaluations)
            walls.setdefault(case, []).append(wall[case])
        ratios.append(wall[base] / wall[chunked])
    return ratios


def test_chunked_dispatch_beats_per_key_dispatch():
    names = {
        (1, None): "serial",
        (WORKERS, None): f"chunked-{WORKERS}",
        (WORKERS, 1): f"per-key-{WORKERS}",
    }
    outputs: dict = {}
    walls: dict = {}
    serial_ratios = _paired((1, None), PAIRS, outputs, walls)
    per_key_ratios = _paired((WORKERS, 1), PER_KEY_PAIRS, outputs, walls)
    wall = {names[case]: statistics.median(w) for case, w in walls.items()}
    rates = {name: N_CONFIGS / w for name, w in wall.items()}
    speedup = statistics.median(per_key_ratios)
    vs_serial = statistics.median(serial_ratios)

    print_banner(
        f"Dispatch throughput ({N_CONFIGS} mm configs, {WORKERS} workers, "
        f"median of {PAIRS} / {PER_KEY_PAIRS} alternating pairs)"
    )
    for name, rate in rates.items():
        print(f"{name:>12}: {rate:10.0f} configs/s")
    print(f"chunked vs per-key: {speedup:5.2f} x (pair median)")
    print(
        f"chunked vs serial:  {vs_serial:5.2f} x (pair median; range "
        f"{min(serial_ratios):.2f}-{max(serial_ratios):.2f})"
    )

    ARTIFACT.write_text(
        json.dumps(
            {
                "benchmark": "dispatch_speedup",
                "n_configs": N_CONFIGS,
                "workers": WORKERS,
                "pairs": {"serial": PAIRS, "per_key": PER_KEY_PAIRS},
                "wall_s": wall,
                "configs_per_sec": rates,
                "chunked_vs_per_key_speedup": speedup,
                "chunked_vs_serial_speedup": vs_serial,
                "chunked_vs_serial_pair_ratios": serial_ratios,
                "chunked_vs_per_key_pair_ratios": per_key_ratios,
            },
            indent=2,
        )
        + "\n"
    )

    # correctness before throughput: every dispatch shape must agree with
    # the serial path bit-for-bit and keep E exact
    serial_objs, serial_e = outputs[(1, None)]
    for case, (objs, evaluations) in outputs.items():
        assert objs == serial_objs, names[case]
        assert evaluations == serial_e, names[case]

    # one vectorized call per chunk must beat 4096 tiny calls by >= 2x
    assert speedup >= 2.0, (
        f"chunked-{WORKERS} only {speedup:.2f}x over per-key-{WORKERS}"
    )
    # and 8 workers must not lose to serial code on a latency-free target
    assert vs_serial >= 0.95, (
        f"chunked-{WORKERS} runs at {vs_serial:.2f}x serial"
    )
