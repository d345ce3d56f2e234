"""Per-layer attribution for the benchmark's traced run.

The traced run wraps public functions of each layer of ``repro`` from this
file, without touching the package: :data:`HOOKS` is the one table of
``(layer metric, module, public function)`` entries.  Each wrapped call is
a span; a span's *self time* is its duration minus the time covered by the
spans it caused.  On the job's own thread the self times of every layer
plus the job's uncovered remainder (``other.self_s``) add up to the job's
traced wall time exactly.  Spans on evaluation-pool threads count towards
their layer's busy time but not towards that identity, because the job's
thread is blocked in ``parallel_eval.wait_s`` while they run.

A hook whose module, class or function no longer exists is reported as
missing and never stops the run: a later change may rename a function, and
the layer's metric then reads 0 with the hook listed under ``missing``.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Callable

__all__ = ["HOOKS", "Hook", "Tracer", "install", "uninstall"]

#: spans kept in memory for the dump at exit; later spans are still
#: accounted but only counted in :attr:`Tracer.dropped`
SPAN_BUDGET = 100_000


# -- count extractors: (args, kwargs, result) -> {count metric: increment} --


def _trials(args, kwargs, result):
    return {"optimizer.trials": len(result)}


def _accepted(args, kwargs, result):
    # GDE3.select(self, population, trial_configs): a trial is accepted
    # when the very object survives into the next population
    trials = args[2] if len(args) > 2 else kwargs["trial_configs"]
    ids = {id(t) for t in trials}
    return {
        "optimizer.generations": 1,
        "optimizer.accepted": sum(1 for c in result if id(c) in ids),
    }


def _time_batch(args, kwargs, result):
    return {"cost.calls": 1, "cost.configs": len(result)}


_ENGINE_FIELDS = (
    ("batches", "parallel_eval.batches"),
    ("configs", "parallel_eval.configs"),
    ("dispatched", "parallel_eval.dispatched"),
    ("cache_hits", "parallel_eval.memo_hits"),
    ("deduped", "parallel_eval.deduped"),
    ("disk_hits", "parallel_eval.disk_hits"),
    ("shared_hits", "parallel_eval.shared_hits"),
)


def _engine_counts(stats_list) -> dict[str, float]:
    out: dict[str, float] = defaultdict(float)
    for stats in stats_list:
        for attr, metric in _ENGINE_FIELDS:
            out[metric] += getattr(stats, attr)
    return out


def _batch_stats(args, kwargs, result):
    return _engine_counts([result.stats])


def _fused_stats(args, kwargs, result):
    return _engine_counts([batch.stats for batch in result])


def _disk_fetch(args, kwargs, result):
    return {"disk_cache.fetches": 1, "disk_cache.hits": int(result is not None)}


def _disk_store(args, kwargs, result):
    return {"disk_cache.records_written": result}


def _one_compile(args, kwargs, result):
    return {"runtime.compiles": 1}


@dataclass(frozen=True)
class Hook:
    """One wrapped public function.

    :param metric: the time metric its self time feeds, or None for a
        count-only hook (its time stays with the enclosing span).
    :param module: defining module, e.g. ``repro.optimizer.gde3``.
    :param function: ``name`` or ``Class.method`` inside *module*.
    :param counts: extracts count increments from one completed call.
    """

    metric: str | None
    module: str
    function: str
    counts: Callable | None = None


HOOKS: tuple[Hook, ...] = (
    Hook("analysis.extract_s", "repro.analysis.regions", "extract_regions"),
    Hook("transform.skeleton_s", "repro.transform.skeleton", "default_skeleton"),
    Hook("cost.model_build_s", "repro.evaluation.cost", "RegionCostModel.__init__"),
    Hook("optimizer.propose_s", "repro.optimizer.gde3", "GDE3.propose", _trials),
    Hook("optimizer.select_s", "repro.optimizer.gde3", "GDE3.select", _accepted),
    Hook("optimizer.roughset_s", "repro.optimizer.roughset", "rough_set_boundary"),
    Hook("optimizer.archive_s", "repro.optimizer.archive", "ParetoArchive.stats_of"),
    Hook("optimizer.archive_s", "repro.optimizer.archive", "ParetoArchive.add"),
    Hook("optimizer.archive_s", "repro.optimizer.archive", "ParetoArchive.add_many"),
    Hook("simulator.compute_s", "repro.evaluation.simulator", "SimulatedTarget.compute_keys"),
    Hook("cost.time_batch_s", "repro.evaluation.cost", "RegionCostModel.time_batch", _time_batch),
    Hook("parallel_eval.self_s", "repro.evaluation.parallel_eval",
         "EvaluationEngine.evaluate_batch", _batch_stats),
    Hook("parallel_eval.self_s", "repro.evaluation.parallel_eval",
         "EvaluationEngine.fused_submit"),
    Hook("parallel_eval.self_s", "repro.evaluation.parallel_eval",
         "EvaluationEngine.fused_wait", _fused_stats),
    # concurrent.futures.wait as the engine module binds it: the caller
    # blocked on the pool
    Hook("parallel_eval.wait_s", "repro.evaluation.parallel_eval", "wait"),
    Hook("disk_cache.read_s", "repro.evaluation.disk_cache", "MeasurementDiskCache.shard_for"),
    Hook("disk_cache.read_s", "repro.evaluation.disk_cache", "MeasurementDiskCache.fetch",
         _disk_fetch),
    Hook("disk_cache.write_s", "repro.evaluation.disk_cache", "MeasurementDiskCache.store_many",
         _disk_store),
    Hook("backend.build_table_s", "repro.driver.compiler", "TunedKernel.build_version_table"),
    Hook("runtime.select_s", "repro.runtime.scheduler", "RegionExecutor.select"),
    Hook("runtime.record_s", "repro.runtime.monitor", "RuntimeMonitor.record"),
    Hook("runtime.observe_s", "repro.runtime.online", "BanditSelector.observe"),
    Hook("runtime.recalibrate_s", "repro.runtime.scheduler", "RegionExecutor.recalibrate"),
    Hook(None, "repro.runtime.compiled", "compile_policy", _one_compile),
)


@dataclass
class JobTrace:
    """What one traced job (or the traced set-up) spent, per layer."""

    job: str
    wall_s: float = 0.0
    #: self time per layer on the job's thread (sums with other_s to wall_s)
    self_s: dict[str, float] = field(default_factory=lambda: defaultdict(float))
    #: self time per layer on every thread (pool threads included)
    busy_s: dict[str, float] = field(default_factory=lambda: defaultdict(float))
    counts: dict[str, float] = field(default_factory=lambda: defaultdict(float))
    other_s: float = 0.0


class Tracer:
    """Span stack per thread, self-time accounting per job, spans in memory
    (the first :data:`SPAN_BUDGET`)."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.dropped = 0
        self._local = threading.local()
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._job: JobTrace | None = None
        self._job_thread: int | None = None
        self._root: list | None = None

    # -- spans ------------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def enter(self, name: str) -> list:
        stack = self._stack()
        span_id = next(self._ids)  # atomic under the interpreter lock
        parent = stack[-1][3] if stack else None
        # [name, start, covered-by-children, id, parent]
        frame = [name, 0.0, 0.0, span_id, parent]
        stack.append(frame)
        frame[1] = time.perf_counter()
        return frame

    def exit(self, frame: list) -> tuple[float, float]:
        """Close *frame*; returns its ``(duration, self time)``."""
        end = time.perf_counter()
        stack = self._stack()
        stack.pop()
        name, start, covered, span_id, parent = frame
        duration = end - start
        own = duration - covered
        if stack:
            stack[-1][2] += duration
        on_job_thread = threading.get_ident() == self._job_thread
        with self._lock:
            job = self._job
            if job is not None and name != "job":
                job.busy_s[name] += own
                if on_job_thread:
                    job.self_s[name] += own
            if len(self.spans) < SPAN_BUDGET:
                self.spans.append(
                    (job.job if job else None, span_id, parent,
                     threading.current_thread().name, name, start, end, own)
                )
            else:
                self.dropped += 1
        return duration, own

    def count(self, increments: dict[str, float]) -> None:
        with self._lock:
            if self._job is not None:
                for key, value in increments.items():
                    self._job.counts[key] += value

    # -- jobs -------------------------------------------------------------

    def begin(self, job: str) -> None:
        """Open the root span of one job on the calling thread."""
        self._job = JobTrace(job=job)
        self._job_thread = threading.get_ident()
        self._root = self.enter("job")

    def end(self) -> JobTrace:
        """Close the job's root span; its self time is ``other.self_s``."""
        job = self._job
        job.wall_s, job.other_s = self.exit(self._root)
        self._job = None
        self._job_thread = None
        return job

    def dump(self, path) -> None:
        """Write every kept span as one JSON object per line."""
        keys = ("job", "id", "parent", "thread", "name", "start", "end", "self_s")
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")


# -- installing and removing the hooks ---------------------------------------


def _wrap(tracer: Tracer, hook: Hook, fn):
    metric, counts = hook.metric, hook.counts

    if metric is None:
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            tracer.count(counts(args, kwargs, result))
            return result

        return counted

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        frame = tracer.enter(metric)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.exit(frame)
        if counts is not None:
            tracer.count(counts(args, kwargs, result))
        return result

    return traced


def _resolve(hook: Hook):
    """``(owner, attribute, raw value)`` of a hook's target; raises
    ImportError, AttributeError or TypeError when it no longer exists."""
    owner = importlib.import_module(hook.module)
    *path, attr = hook.function.split(".")
    for part in path:
        owner = getattr(owner, part)
    if isinstance(owner, type):
        for klass in owner.__mro__:
            if attr in vars(klass):
                raw = vars(klass)[attr]
                break
        else:
            raise AttributeError(f"{owner.__name__} has no attribute {attr!r}")
    else:
        raw = getattr(owner, attr)
    fn = raw.__func__ if isinstance(raw, (classmethod, staticmethod)) else raw
    if not callable(fn):
        raise TypeError(f"{hook.module}.{hook.function} is not callable")
    return owner, attr, raw


def install(tracer: Tracer, hooks=HOOKS):
    """Wrap every hook's target; returns ``(patches, missing)``.

    A module-level function is also replaced wherever another ``repro``
    module imported it by name, so calls through that alias are traced.
    *missing* lists ``"module.function: reason"`` for targets that no
    longer exist.
    """
    patches: list[tuple[object, str, object, bool]] = []
    missing: list[str] = []
    for hook in hooks:
        try:
            owner, attr, raw = _resolve(hook)
        except (ImportError, AttributeError, TypeError) as exc:
            missing.append(f"{hook.module}.{hook.function}: {exc}")
            continue
        if isinstance(raw, (classmethod, staticmethod)):
            wrapped = type(raw)(_wrap(tracer, hook, raw.__func__))
        else:
            wrapped = _wrap(tracer, hook, raw)
        targets = [owner]
        if not isinstance(owner, type):
            targets += [
                mod for name, mod in list(sys.modules.items())
                if name.startswith("repro") and mod is not owner
                and getattr(mod, attr, None) is raw
            ]
        for target in targets:
            own = attr in vars(target)
            patches.append((target, attr, vars(target).get(attr), own))
            setattr(target, attr, wrapped)
    return patches, missing


def uninstall(patches) -> None:
    """Undo :func:`install`, newest patch first."""
    for target, attr, original, own in reversed(patches):
        if own:
            setattr(target, attr, original)
        else:
            delattr(target, attr)
