"""Shared fixtures for the benchmark harness.

Brute-force sweeps are expensive and reused by several tables/figures, so a
session-scoped cache hands out one sweep per (kernel, machine).
"""

from __future__ import annotations

import contextlib
import threading
from unittest import mock

import pytest

from repro.experiments import BruteForceSweep, make_setup, run_brute_force
from repro.machine import BARCELONA, WESTMERE


@pytest.fixture(scope="session")
def sweep_cache():
    cache: dict[tuple[str, str], BruteForceSweep] = {}

    def get(kernel: str, machine) -> BruteForceSweep:
        key = (kernel, machine.name)
        if key not in cache:
            cache[key] = run_brute_force(make_setup(kernel, machine))
        return cache[key]

    return get


@pytest.fixture(params=[WESTMERE, BARCELONA], ids=lambda m: m.name)
def machine(request):
    return request.param


def print_banner(title: str) -> None:
    print()
    print("=" * 78)
    print(title)
    print("=" * 78)


@contextlib.contextmanager
def inline_batches():
    """Record the engine's batches under the pool rule's inline case.

    Yields a list that gains, per submitted batch, ``(dispatched, calls)``:
    its cold key count and the ``(thread id, key count)`` of every
    ``SimulatedTarget.compute_keys`` call made while submitting it.  Any
    ``compute_keys`` call outside a submission, or a worker pool being
    created, fails at once."""
    from repro.evaluation import parallel_eval
    from repro.evaluation.simulator import SimulatedTarget

    batches: list[tuple[int, list[tuple[int, int]]]] = []
    calls: list[tuple[int, int]] | None = None
    compute, submit = SimulatedTarget.compute_keys, parallel_eval.EvaluationEngine._submit

    def recorded_compute(self, keys):
        assert calls is not None, "compute_keys called outside a batch submission"
        calls.append((threading.get_ident(), len(keys)))
        return compute(self, keys)

    def recorded_submit(self, target, keys, region):
        nonlocal calls
        calls = []
        try:
            batch = submit(self, target, keys, region)
            batches.append((batch.stats.dispatched, calls))
            return batch
        finally:
            calls = None

    def no_pool(*args, **kwargs):
        raise AssertionError("the engine created a worker pool")

    with mock.patch.object(SimulatedTarget, "compute_keys", recorded_compute), \
            mock.patch.object(parallel_eval.EvaluationEngine, "_submit", recorded_submit), \
            mock.patch.object(parallel_eval, "ThreadPoolExecutor", no_pool):
        yield batches


def assert_one_inline_call_per_batch(batches) -> None:
    """Every batch :func:`inline_batches` recorded with cold keys made
    exactly one ``compute_keys`` call, over all of them, on the caller's
    thread; the others made none."""
    me = threading.get_ident()
    assert batches, "no batch was submitted"
    for dispatched, calls in batches:
        assert calls == ([(me, dispatched)] if dispatched else []), (dispatched, calls)
