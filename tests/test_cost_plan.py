"""The precompiled cost-model plan against the frozen per-stream oracle.

``RegionCostModel.time_batch`` evaluates over a plan built once per model;
``tests/cost_oracle.py`` keeps the per-stream, per-level formulation it
replaced.  The two must agree bit-for-bit (``np.array_equal``, not approx)
on every machine, kernel region and parallel spec, including batches whose
``fetches × footprint`` products exceed 2^53 — where any reordering of the
float operations would show.  Building the plan must also leave the model's
fingerprint (the disk-cache key) and its picklability unchanged.
"""

from __future__ import annotations

import hashlib
import math
import pickle

import numpy as np
import pytest

from repro.analysis.regions import extract_regions
from repro.evaluation.cost import RegionCostModel
from repro.frontend import parse_function
from repro.frontend.kernels import get_kernel
from repro.machine.model import BARCELONA, LAPTOP, SERVER2S, WESTMERE
from tests.cost_oracle import ScalarCostModel
from tests.cost_oracle import time_batch as oracle_time_batch

MACHINES = (WESTMERE, BARCELONA, LAPTOP, SERVER2S)
KERNELS = ("mm", "dsyrk", "jacobi2d", "stencil3d", "nbody", "2mm")

#: sha256 over the fingerprints of every model in ``_models()``, in order,
#: as computed before the plan existed — the plan must not change them
FINGERPRINTS_SHA256 = "bb6eddea4c5a5b2003ff20f22185b698f08dc4751935dd33314e40de1168f7c1"


def _specs(band):
    return (
        [None, ("collapse", 1), ("collapse", 2), ("none", None)]
        + [("tile", v) for v in band]
        + [("point", v) for v in band]
    )


def _models():
    """(label, model) for every machine × kernel region × parallel spec, at
    the kernel's default size."""
    for kname in KERNELS:
        kernel = get_kernel(kname)
        for r, region in enumerate(extract_regions(kernel.function)):
            for machine in MACHINES:
                for spec in _specs(region.domain.vars):
                    model = RegionCostModel(
                        region,
                        kernel.default_size,
                        machine,
                        flops_per_iteration=kernel.flops_per_point,
                        parallel_spec=spec,
                    )
                    yield f"{kname}[{r}]/{machine.name}/{spec}", model


def _batches(model, rng):
    """B=1, all-ones tiles, full-extent tiles and a random batch whose tiles
    overshoot the extents (exercising the clip) across thread counts."""
    ext = np.array([model.extent[v] for v in model.band])
    n = len(ext)
    cores = model.machine.total_cores
    threads = np.array(sorted({1, 2, 3, cores // 2 or 1, cores}))
    yield rng.integers(1, ext + 1, size=(1, n)), rng.integers(1, cores + 1, size=1)
    yield np.ones((len(threads), n), dtype=np.int64), threads
    yield np.tile(ext, (len(threads), 1)), threads
    B = 64
    yield rng.integers(1, ext + 3, size=(B, n)), rng.integers(1, cores + 1, size=B)


def _assert_same(model, tiles, threads, label):
    new = model.time_batch(tiles, threads)
    old = oracle_time_batch(model, tiles, threads)
    assert new.dtype == old.dtype and new.shape == old.shape, label
    assert np.array_equal(new, old), f"{label}: max rel diff {np.max(np.abs(new / old - 1))}"


def test_plan_matches_oracle_on_every_machine_kernel_and_spec():
    rng = np.random.default_rng(2024)
    count = 0
    for label, model in _models():
        for tiles, threads in _batches(model, rng):
            _assert_same(model, tiles, threads, label)
            count += 1
    assert count > 500


@pytest.mark.parametrize("machine", MACHINES, ids=lambda m: m.name)
def test_plan_matches_oracle_when_whole_problem_fits(machine):
    """At test sizes the whole problem fits the caches and the TLB, so the
    compulsory-traffic branch decides every level."""
    rng = np.random.default_rng(7)
    for kname in KERNELS:
        kernel = get_kernel(kname)
        for region in extract_regions(kernel.function):
            model = RegionCostModel(region, kernel.test_size, machine)
            for tiles, threads in _batches(model, rng):
                _assert_same(model, tiles, threads, f"{kname}/{machine.name}")


def test_plan_matches_oracle_beyond_2_to_the_53():
    """A huge mm: refetch counts times footprints exceed 2^53, so float
    products and sums round, and only the oracle's operation order
    reproduces its results."""
    region = extract_regions(get_kernel("mm").function)[0]
    N = 1 << 20
    model = RegionCostModel(region, {"N": N}, WESTMERE)
    tiles = np.array([[1, 1, 1], [1, 7, 3], [N, 1, N], [13, N, 5], [N, N, N]])
    # the scalar traffic of the innermost unit really is beyond exact range
    t = {v: 1 for v in model.band}
    trips = {v: N for v in model.band}
    scalar = ScalarCostModel(model)
    units = scalar._unit_spans(t)
    n = len(model.band)
    assert scalar._unit_traffic(units[n], n, t, trips, 64) > 2**53
    for threads in (np.ones(5, dtype=np.int64), np.full(5, 12), np.arange(1, 6)):
        _assert_same(model, tiles, threads, "mm N=2^20")
    rng = np.random.default_rng(11)
    tiles = np.exp(rng.uniform(0, math.log(N), size=(64, 3))).astype(np.int64)
    _assert_same(model, tiles, rng.integers(1, 13, size=64), "mm N=2^20 random")


#: a parsed one-loop band (n = 1): the loop-overhead sums run over a
#: single prefix row, an edge no Table VI kernel reaches
SAXPY = """
void saxpy(int N, double a, double x[N], double y[N]) {
    for (int i = 0; i < N; i++)
        y[i] = a * x[i] + y[i];
}
"""


@pytest.mark.parametrize("machine", MACHINES, ids=lambda m: m.name)
def test_plan_matches_oracle_on_a_one_loop_band(machine):
    (region,) = extract_regions(parse_function(SAXPY))
    assert region.domain.vars == ("i",)
    rng = np.random.default_rng(31)
    for N in (1000, 10**6):
        for spec in _specs(region.domain.vars):
            model = RegionCostModel(region, {"N": N}, machine, parallel_spec=spec)
            for tiles, threads in _batches(model, rng):
                _assert_same(model, tiles, threads, f"saxpy N={N}/{machine.name}/{spec}")


def test_fingerprints_unchanged():
    h = hashlib.sha256()
    for _label, model in _models():
        h.update(model.fingerprint().encode() + b"\n")
    assert h.hexdigest() == FINGERPRINTS_SHA256


def test_model_pickle_round_trip():
    """A pickled model carries its plan and evaluates identically after
    the round trip."""
    rng = np.random.default_rng(3)
    for kname in ("mm", "stencil3d", "2mm"):
        kernel = get_kernel(kname)
        region = extract_regions(kernel.function)[-1]
        model = RegionCostModel(region, kernel.default_size, SERVER2S)
        clone = pickle.loads(pickle.dumps(model))
        assert clone.fingerprint() == model.fingerprint()
        for tiles, threads in _batches(model, rng):
            assert np.array_equal(
                clone.time_batch(tiles, threads), model.time_batch(tiles, threads)
            )
