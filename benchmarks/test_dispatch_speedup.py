"""Chunked vs per-key vs serial evaluation on a paper-scale batch.

Two claims on a 4096-configuration mm batch with no per-configuration
latency, both bit-identical to the serial path with an exact E:

* evaluating a batch with one vectorized ``compute_keys`` call per chunk
  (the engine's way) beats per-key dispatch — one ``compute_keys([key])``
  call per key, B tiny calls each paying Python call overhead, then one
  ``commit_many`` — by at least 2x;
* an 8-worker engine is no slower than the serial one (at least 0.95x its
  throughput).  Serial vectorized code is the honest baseline: without
  latency to overlap, the engine's pool rule evaluates inline, so 8
  workers must cost nothing.

Per-key dispatch is timed here, on the target itself: the engine has no
per-key mode.  Both claims are gated on paired runs: each pair times the
chunked-8 case next to the case it is compared with, the pairs alternate
which of the two runs first (so neither always pays for a cold start or a
load burst), and the gate reads the median of the per-pair wall-time
ratios.  The cheap chunked-vs-serial ratio gets :data:`PAIRS` pairs, the
per-key one (4096 calls, seconds per run) :data:`PER_KEY_PAIRS`.  The run
emits ``BENCH_dispatch.json`` (configs/sec for serial, chunked-8 and
per-key, plus the per-pair ratios) which CI uploads as an artifact, so
throughput regressions are visible per commit.
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
#: chunked-8 vs per-key pairs (about 2 s each)
PER_KEY_PAIRS = 3
ARTIFACT = Path("BENCH_dispatch.json")
SERIAL, CHUNKED, PER_KEY = "serial", f"chunked-{WORKERS}", "per-key"


def _keys(target: SimulatedTarget, n: int) -> list[tuple]:
    rng = np.random.default_rng(12)
    tiles = rng.integers(1, 512, size=(n, 3))
    threads = rng.choice([1, 5, 10, 20, 40], size=n)
    return target.keys_of(tiles, threads)


def _per_key(target: SimulatedTarget, keys: list[tuple]) -> list:
    """Per-key dispatch: one ``compute_keys`` call per key, then one
    commit of the whole batch."""
    rows = [target.compute_keys([key])[0] for key in keys]
    target.commit_many(dict(zip(keys, rows)))
    return rows


def _timed(case: str):
    setup = make_setup("mm", WESTMERE)
    target = SimulatedTarget(setup.model, seed=0)
    keys = _keys(target, N_CONFIGS)
    if case == PER_KEY:
        t0 = time.perf_counter()
        rows = _per_key(target, keys)
        wall = time.perf_counter() - t0
    else:
        engine = EvaluationEngine(target, max_workers=1 if case == SERIAL else WORKERS)
        t0 = time.perf_counter()
        rows = engine.evaluate_batch(keys).rows
        wall = time.perf_counter() - t0
    return wall, list(rows), target.evaluations


def _paired(base: str, pairs: int, outputs: dict, walls: dict) -> list[float]:
    """Time *base* against chunked-8 *pairs* times, alternating which runs
    first; returns the per-pair ratios ``base wall / chunked wall``."""
    ratios = []
    for i in range(pairs):
        order = (base, CHUNKED) if i % 2 == 0 else (CHUNKED, base)
        wall = {}
        for case in order:
            wall[case], rows, evaluations = _timed(case)
            outputs[case] = (rows, evaluations)
            walls.setdefault(case, []).append(wall[case])
        ratios.append(wall[base] / wall[CHUNKED])
    return ratios


def test_chunked_dispatch_beats_per_key_dispatch():
    outputs: dict = {}
    walls: dict = {}
    serial_ratios = _paired(SERIAL, PAIRS, outputs, walls)
    per_key_ratios = _paired(PER_KEY, PER_KEY_PAIRS, outputs, walls)
    wall = {case: statistics.median(w) for case, w in walls.items()}
    rates = {case: N_CONFIGS / w for case, w in wall.items()}
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
    serial_rows, serial_e = outputs[SERIAL]
    for case, (rows, evaluations) in outputs.items():
        assert rows == serial_rows, case
        assert evaluations == serial_e, case

    # one vectorized call per chunk must beat 4096 tiny calls by >= 2x
    assert speedup >= 2.0, f"{CHUNKED} only {speedup:.2f}x over {PER_KEY}"
    # and 8 workers must not lose to serial code on a latency-free target
    assert vs_serial >= 0.95, f"{CHUNKED} runs at {vs_serial:.2f}x serial"
