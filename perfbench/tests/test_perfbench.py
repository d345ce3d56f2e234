"""Tests of the benchmark itself: seeded job lists, repeatable quality
metrics, the traced run's layer-sum identity, missing hooks, and that every
``ok_frac`` check rejects a corrupted result.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from repro.optimizer.config import Configuration  # noqa: E402
from repro.transform.skeleton import Parameter  # noqa: E402


# -- seeded job lists and repeatable quality --------------------------------


def test_same_seed_same_job_list():
    assert run.job_order(7, 10, 3) == run.job_order(7, 10, 3)
    assert run.job_order(7, 10, 3) != run.job_order(8, 10, 3)
    order = run.job_order(7, 10, 3)
    for p in range(3):
        assert sorted(k for q, k in order if q == p) == list(range(10))


def test_runtime_streams_repeat_per_seed():
    a = workloads.RuntimeInvoke(3)
    b = workloads.RuntimeInvoke(3)
    for wl in (a, b):
        wl.tables = [None] * 5
    assert a.stream(2) == b.stream(2)
    assert a.stream(2) != a.stream(3)


def test_job_times_are_scaled_to_the_reference_host_speed():
    jobs = [{"ms": 10.0, "probe_ms": run.PROBE_REF_MS * f, "ok": ok, "work": 1}
            for f, ok in ((1, True), (1, True), (1, True), (2, False), (2, True))]
    run.scale_to_reference(jobs)
    # each job's speed is the median probe of the jobs centred on it
    assert [j["ref_ms"] for j in jobs] == pytest.approx([10, 10, 10, 20 / 3, 5])
    assert run.job_times(jobs)[3] == float("inf")
    assert run.throughput(jobs) == pytest.approx(4 / (125 / 3 / 1000))


def _quality(workload, seed, kinds):
    record = run.measure(workload, seed, passes=1, trace=False, kinds=kinds)
    assert all(j["ok"] for j in record["jobs"])
    return workload.quality(record["first"])


def test_table6_quality_repeats_across_runs():
    kinds = [0, 5]  # mm on both machines
    first = _quality(workloads.Table6Cold(1), 1, kinds)
    second = _quality(workloads.Table6Cold(1), 1, kinds)
    assert first == second
    evaluations, sizes, volumes = first
    assert evaluations > 0 and len(sizes) == 2 and all(0 < v <= 1 for v in volumes)


def test_multiregion_quality_repeats_across_runs(tmp_path):
    kinds = [3]  # 2mm on Barcelona
    first = _quality(workloads.MultiregionCache(1, tmp_path / "a"), 1, kinds)
    second = _quality(workloads.MultiregionCache(1, tmp_path / "b"), 1, kinds)
    assert first == second
    assert len(first[1]) == 2  # two regions


# -- traced run ---------------------------------------------------------------


def test_layer_sum_identity_on_one_traced_job():
    record = run.measure(workloads.Table6Cold(1), 1, passes=2, trace=True, kinds=[0])
    (job,) = record["job_traces"]
    assert run.trace_errors(record["job_traces"], workers=1) == []
    assert sum(job.self_s.values()) + job.other_s == pytest.approx(job.wall_s, abs=1e-9)
    assert job.self_s["optimizer.propose_s"] > 0
    assert job.counts["optimizer.generations"] > 0
    assert record["missing_hooks"] == []
    metrics = run.per_layer(record, import_s=0.5)
    assert set(metrics) == set(run.per_layer_units())
    # the hooks are gone again after the run
    from repro.optimizer.gde3 import GDE3

    assert not hasattr(GDE3.propose, "__wrapped__")


def test_trace_check_flags_a_broken_sum():
    job = layers.JobTrace(job="j", wall_s=1.0, other_s=0.25)
    job.self_s["optimizer.propose_s"] = 0.5
    job.busy_s["optimizer.propose_s"] = 0.5
    assert "layers" in run.trace_errors([job], workers=1)[0]


def test_trace_check_flags_pool_time_beyond_the_workers():
    job = layers.JobTrace(job="j", wall_s=1.0, other_s=0.5)
    job.self_s["parallel_eval.wait_s"] = 0.5
    job.busy_s["parallel_eval.wait_s"] = 0.5
    job.busy_s["cost.time_batch_s"] = 1.9
    assert run.trace_errors([job], workers=2) == []
    assert "pool threads" in run.trace_errors([job], workers=1)[0]


def test_missing_hook_is_reported_not_raised():
    from repro.optimizer.gde3 import GDE3

    original = GDE3.select
    hooks = (
        layers.Hook("optimizer.propose_s", "repro.optimizer.gde3", "GDE3.no_such_method"),
        layers.Hook("analysis.extract_s", "repro.no_such_module", "extract_regions"),
        layers.Hook("optimizer.select_s", "repro.optimizer.gde3", "GDE3.select"),
    )
    patches, missing = layers.install(layers.Tracer(), hooks)
    try:
        assert len(missing) == 2
        assert "no_such_method" in missing[0] and "no_such_module" in missing[1]
        assert GDE3.select is not original
    finally:
        layers.uninstall(patches)
    assert GDE3.select is original


def test_module_function_aliases_are_traced_and_restored():
    import repro.driver.compiler as compiler
    import repro.analysis.regions as regions

    original = regions.extract_regions
    hook = layers.Hook("analysis.extract_s", "repro.analysis.regions", "extract_regions")
    patches, missing = layers.install(layers.Tracer(), (hook,))
    try:
        assert missing == []
        assert compiler.extract_regions is regions.extract_regions is not original
    finally:
        layers.uninstall(patches)
    assert compiler.extract_regions is regions.extract_regions is original


def test_volume_moves_when_the_front_scales():
    front = (_config(8, 1, 0.1, 1.2), _config(16, 4, 0.05, 1.8))
    volume = workloads.front_volume(front, "mm/Westmere")
    assert 0 < volume < 1
    slower = tuple(_config(8 * i + 8, 1, c.objectives[0] * 1.1, c.objectives[1])
                   for i, c in enumerate(front))
    assert workloads.front_volume(slower, "mm/Westmere") < volume


# -- ok_frac checks reject corrupted results ---------------------------------


PARAMS = (Parameter("tile_i", 1, 64), Parameter("threads", 1, 8))


def _config(tile, threads, time, cpu):
    return Configuration.make({"tile_i": tile, "threads": threads}, (time, cpu))


def test_front_check_rejects_a_dominated_point():
    front = (_config(8, 1, 2.0, 2.0), _config(16, 4, 1.0, 4.0))
    assert workloads.check_front(front, PARAMS) is None
    assert "dominated" in workloads.check_front(front + (_config(4, 4, 2.5, 4.5),), PARAMS)
    assert workloads.check_front((), PARAMS) == "empty front"


def test_front_check_rejects_a_config_outside_the_skeleton():
    front = (_config(8, 1, 2.0, 2.0), _config(128, 4, 1.0, 4.0))
    assert "outside" in workloads.check_front(front, PARAMS)


def _multiregion(dispatched, evaluations, front):
    result = SimpleNamespace(evaluations=evaluations, front=front)
    return SimpleNamespace(results=(result,), engine_stats=SimpleNamespace(dispatched=dispatched))


def test_warm_check_rejects_a_warm_run_that_dispatches():
    front = (_config(8, 1, 2.0, 2.0),)
    cold = _multiregion(40, 40, front)
    assert workloads.check_warm(cold, _multiregion(0, 40, front)) is None
    assert "dispatched 3" in workloads.check_warm(cold, _multiregion(3, 40, front))
    assert "E differs" in workloads.check_warm(cold, _multiregion(0, 41, front))
    other = (_config(16, 1, 2.0, 2.0),)
    assert "fronts differ" in workloads.check_warm(cold, _multiregion(0, 40, other))


@pytest.fixture(scope="module")
def runtime_workload():
    wl = workloads.RuntimeInvoke(5)
    wl.invocations = 600
    wl.setup()
    assert wl.setup_failures == []
    return wl


def test_selection_check_rejects_a_wrong_selection(runtime_workload):
    wl = runtime_workload
    chosen = wl.run(wl.prepare(1))
    assert wl.check(1, chosen, True) is None
    i = min(wl.stream(1).sample)
    region = wl.stream(1).regions[i]
    wrong = list(chosen)
    wrong[i] = (chosen[i] + 1) % len(wl.tables[region])
    assert "oracle" in wl.check(1, wrong, True)


def test_runtime_setup_failure_fails_every_job(runtime_workload):
    wl = runtime_workload
    chosen = wl.run(wl.prepare(0))
    wl.setup_failures.append("mm version 0: C differs from kernel.reference")
    try:
        assert "set-up check failed" in wl.check(0, chosen, False)
    finally:
        wl.setup_failures.clear()


# -- contract: refuses to run without the program --------------------------


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__", "tests"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "table6-cold",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "{" not in proc.stdout
