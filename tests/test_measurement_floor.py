"""The measurement path against its frozen per-level formulation.

``RegionCostModel._predict`` picks the fitting reuse unit of every cache
level and of the TLB in one fused pass and reads its thread-count terms
from the plan; ``repro.util.ndtri.ndtri`` lays out every element's Horner
coefficients with one ``take``.  ``tests/measurement_oracle.py`` keeps the
formulations they replaced (:func:`predict_per_level`,
:func:`ndtri_gather`), and both pairs must agree bit for bit
(``np.array_equal``) — on every machine, kernel region and parallel spec
of ``tests/test_cost_plan.py``, at the batch sizes tuning and sweeps issue,
untiled rows and the thread counts where the per-socket and per-machine
terms change included.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.regions import extract_regions
from repro.evaluation.cost import RegionCostModel
from repro.frontend.kernels import get_kernel
from repro.util.ndtri import ndtri
from tests.measurement_oracle import energy_batch_per_level, ndtri_gather, predict_per_level
from tests.test_cost_plan import MACHINES, _models

BATCH_SIZES = (1, 7, 28, 300)


def _thread_counts(machine) -> np.ndarray:
    """1, a full socket, one past it and the whole machine."""
    cps, cores = machine.cores_per_socket, machine.total_cores
    return np.array([1, cps, min(cps + 1, cores), cores])


def _assert_same(model, tiles, threads, label, collapsed=None):
    new = model._predict(tiles, threads, collapsed)
    old = predict_per_level(model, tiles, threads, collapsed)
    for name, a, b in zip(("time", "dram bytes", "active sockets"), new, old):
        assert a.shape == b.shape, (label, name)
        assert np.array_equal(a, b), (label, name, tiles, threads)


def _batches(model, rng):
    """B = 1, 7, 28 and 300: random tiles overshooting the extents, every
    other row untiled (full extents), over the edge thread counts and
    random ones in 1..cores."""
    ext = np.array([model.extent[v] for v in model.band])
    edges = _thread_counts(model.machine)
    for B in BATCH_SIZES:
        tiles = rng.integers(1, ext + 3, size=(B, len(ext)))
        tiles[1::2] = ext
        threads = rng.integers(1, model.machine.total_cores + 1, size=B)
        threads[: len(edges)] = edges[:B]
        yield tiles, threads


def test_predict_matches_per_level_oracle():
    rng = np.random.default_rng(31)
    count = 0
    for label, model in _models():
        for tiles, threads in _batches(model, rng):
            _assert_same(model, tiles, threads, label)
            new_e = model.energy_batch(tiles, threads)
            old_e = energy_batch_per_level(model, tiles, threads)
            assert all(map(np.array_equal, new_e, old_e)), label
            count += 1
    assert count > 1000


@pytest.mark.parametrize("collapsed", [1, 2])
def test_predict_matches_per_level_oracle_with_collapse_override(collapsed):
    rng = np.random.default_rng(5)
    for label, model in list(_models())[::7]:
        for tiles, threads in _batches(model, rng):
            _assert_same(model, tiles, threads, label, collapsed)


@pytest.mark.parametrize("machine", MACHINES, ids=lambda m: m.name)
def test_predict_matches_per_level_oracle_beyond_2_to_the_53(machine):
    """A huge mm, whose refetch counts times footprints and loop-overhead
    sums exceed 2^53: there every product and sum rounds, so only the
    per-level formulation's operation order reproduces its bits."""
    region = extract_regions(get_kernel("mm").function)[0]
    model = RegionCostModel(region, {"N": 1 << 20}, machine)
    for tiles, threads in _batches(model, np.random.default_rng(53)):
        _assert_same(model, tiles, threads, "mm N=2^20")
        tiles = np.exp(np.random.default_rng(7).uniform(0, 20, size=tiles.shape))
        _assert_same(model, tiles.astype(np.int64), threads, "mm N=2^20, log-uniform tiles")


@pytest.mark.parametrize(
    "past_cores, count", [(True, 2), (False, 0), (False, -1)], ids=["cores+2", "0", "-1"]
)
def test_thread_counts_outside_the_table_are_rejected(past_cores, count):
    """Counts past ``total_cores`` and below 1 raise, rather than
    reading another count's row (a negative index would wrap)."""
    _, model = next(_models())
    threads = count + (model.machine.total_cores if past_cores else 0)
    with pytest.raises(ValueError, match="threads"):
        model.time_batch([[1] * len(model.band)] * 2, [1, threads])


@pytest.mark.parametrize("past_cores, count", [(True, 1), (False, 0)], ids=["cores+1", "0"])
def test_scalar_and_batch_entry_points_share_one_thread_rule(past_cores, count):
    """``time``/``energy`` and ``time_batch``/``energy_batch`` accept
    exactly 1..``total_cores``: one past the machine and 0 raise on all
    four, and ``total_cores`` itself is accepted by all four."""
    _, model = next(_models())
    cores = model.machine.total_cores
    threads = count + (cores if past_cores else 0)
    tiles = [[1] * len(model.band)]
    for call in (
        lambda t: model.time({}, t),
        lambda t: model.energy({}, t),
        lambda t: model.time_batch(tiles, [t]),
        lambda t: model.energy_batch(tiles, [t]),
    ):
        with pytest.raises(ValueError, match="threads"):
            call(threads)
        call(cores)


def test_empty_batch():
    """B = 0 gives empty outputs, as the per-level formulation does."""
    for label, model in list(_models())[::25]:
        _assert_same(model, np.empty((0, len(model.band)), int), np.empty(0, int), label)


def test_ndtri_matches_gather_oracle():
    rng = np.random.default_rng(17)
    u = rng.random(200_000)
    edges = np.array([
        np.nextafter(0.0, 1.0), 1e-300, 1e-20, np.exp(-32.0), np.exp(-2.0),
        np.nextafter(np.exp(-2.0), 1.0), 0.5, 1.0 - np.exp(-2.0),
        np.nextafter(1.0 - np.exp(-2.0), 1.0), np.nextafter(1.0, 0.0),
    ])
    for y in (u, u[:140].reshape(28, 5), u[:1], edges, rng.random(50) * 0.1):
        assert ndtri(y).tobytes() == ndtri_gather(y).tobytes()
    special = np.array([0.0, 1.0, np.nan, -0.5, 1.5, 0.3])
    assert ndtri(special).tobytes() == ndtri_gather(special).tobytes()
