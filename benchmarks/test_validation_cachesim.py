"""Substrate validation — analytical traffic model vs. trace-driven cache
simulator.

The entire evaluation rests on the analytical cost model; this benchmark
validates its central quantity (cache traffic as a function of tile size)
against ground truth: a miniature mm's exact address trace replayed through
a set-associative LRU hierarchy, swept over tile sizes.

Shape assertions: both curves fall steeply from the untiled extreme to the
well-tiled region; their improvement factors agree within a small factor;
and the rank correlation of the two curves across tile sizes is strongly
positive.
"""

from __future__ import annotations

import math

import numpy as np
from conftest import print_banner

from repro.analysis import extract_regions
from repro.evaluation import RegionCostModel
from repro.frontend import get_kernel
from repro.ir.interp import run_function
from repro.machine import CacheHierarchy
from repro.machine.cache import AddressTraceRecorder
from repro.machine.model import CacheLevel, MachineModel
from repro.transform import replace_at_path, tile
from tests.cost_oracle import ScalarCostModel

N = 24
TILE_SIZES = [2, 4, 6, 8, 12, 24]

TINY = MachineModel(
    name="Tiny",
    sockets=1,
    cores_per_socket=1,
    freq_hz=1e9,
    flops_per_cycle=1.0,
    levels=(
        CacheLevel("L1", 2 * 1024, 64, 2, shared=False, fetch_bw=1e9),
        CacheLevel("L2", 16 * 1024, 64, 4, shared=True, fetch_bw=1e9),
    ),
    dram_bw_per_socket=1e9,
    dram_bw_per_core=1e9,
)


def simulated_l1_bytes(tiles: dict[str, int] | None) -> int:
    k = get_kernel("mm")
    region = extract_regions(k.function)[0]
    fn = k.function
    if tiles:
        fn = replace_at_path(fn, region.path, tile(region.nest, tiles))
    rec = AddressTraceRecorder()
    for name in ("A", "B", "C"):
        rec.register(name, (N, N))
    rng = np.random.default_rng(0)
    inputs = k.make_inputs({"N": N}, rng)
    run_function(fn, inputs, {"N": N}, trace_hook=rec.record)
    hier = CacheHierarchy.from_machine(TINY)
    rec.replay(hier)
    return hier.miss_bytes("L1")


def analytic_l1_bytes(tiles: dict[str, int] | None) -> float:
    k = get_kernel("mm")
    region = extract_regions(k.function)[0]
    m = ScalarCostModel(RegionCostModel(region, {"N": N}, TINY))
    t = {v: (tiles or {}).get(v, N) for v in m.band}
    t = {v: min(max(1, x), N) for v, x in t.items()}
    trips = {v: math.ceil(N / t[v]) for v in m.band}
    spans = m._unit_spans(t)
    level = TINY.levels[0]
    s_idx = m._fitting_unit(spans, level.size, level.line_size)
    traffic = max(
        m._unit_traffic(spans[s_idx], s_idx, t, trips, level.line_size),
        m._compulsory_traffic({v: N for v in m.band}, level.line_size),
    )
    return traffic


def rank_correlation(a: list[float], b: list[float]) -> float:
    ra = np.argsort(np.argsort(a)).astype(float)
    rb = np.argsort(np.argsort(b)).astype(float)
    ra -= ra.mean()
    rb -= rb.mean()
    return float((ra * rb).sum() / np.sqrt((ra**2).sum() * (rb**2).sum()))


def test_validation_analytic_vs_simulated(benchmark):
    def compute():
        sim, ana, labels = [], [], []
        for t in TILE_SIZES:
            tiles = None if t == N else {"i": t, "j": t, "k": t}
            sim.append(float(simulated_l1_bytes(tiles)))
            ana.append(float(analytic_l1_bytes(tiles)))
            labels.append("untiled" if t == N else f"t={t}")
        return labels, sim, ana

    labels, sim, ana = benchmark.pedantic(compute, rounds=1, iterations=1)

    print_banner(
        f"VALIDATION — L1 traffic, mm N={N} on a tiny 2K-L1 machine: "
        "trace-driven simulator vs analytical model"
    )
    print(f"{'config':>9} | {'simulated MB':>12} | {'analytic MB':>11} | ratio")
    for lab, s, a in zip(labels, sim, ana):
        print(f"{lab:>9} | {s / 1e6:12.3f} | {a / 1e6:11.3f} | {a / s:5.2f}")
    rho = rank_correlation(sim, ana)
    print(f"\nrank correlation over tile sizes: {rho:.3f}")

    # both agree the untiled code is far worse than the best tiling
    sim_gain = max(sim) / min(sim)
    ana_gain = max(ana) / min(ana)
    assert sim_gain > 3 and ana_gain > 3
    assert 0.25 < ana_gain / sim_gain < 4.0

    # pointwise agreement within a small factor everywhere
    for lab, s, a in zip(labels, sim, ana):
        assert 0.2 < a / s < 5.0, (lab, s, a)

    # and the curves rank tile sizes consistently
    assert rho > 0.7