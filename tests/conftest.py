"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.regions import extract_regions
from repro.evaluation.cost import RegionCostModel
from repro.evaluation.simulator import SimulatedTarget
from repro.frontend.kernels import ALL_KERNELS, get_kernel
from repro.machine.model import BARCELONA, WESTMERE


@pytest.fixture(params=sorted(ALL_KERNELS))
def kernel(request):
    """Parametrized over all five benchmark kernels."""
    return get_kernel(request.param)


@pytest.fixture(params=[WESTMERE, BARCELONA], ids=lambda m: m.name)
def machine(request):
    return request.param


@pytest.fixture
def mm_region():
    return extract_regions(get_kernel("mm").function)[0]


@pytest.fixture
def mm_model(mm_region):
    return RegionCostModel(mm_region, {"N": 1400}, WESTMERE)


@pytest.fixture
def mm_target(mm_model):
    return SimulatedTarget(mm_model, seed=0)


@pytest.fixture
def split_compute(monkeypatch):
    """``split_compute(size)`` makes every ``SimulatedTarget.compute_keys``
    call measure its keys in consecutive calls of at most *size* keys
    (``None`` leaves each call whole), so a test can check that a run is
    bit-identical however its batches are partitioned into computations."""

    def apply(size):
        if size is None:
            return
        bulk = SimulatedTarget.compute_keys

        def compute_keys(self, keys):
            keys = list(keys)
            return [
                row
                for i in range(0, len(keys), size)
                for row in bulk(self, keys[i : i + size])
            ]

        monkeypatch.setattr(SimulatedTarget, "compute_keys", compute_keys)

    return apply


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
