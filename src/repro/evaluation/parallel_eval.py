"""The parallel evaluation engine.

Paper §III-A: "multiple independent configurations are generated, compiled
and if possible evaluated in parallel on distinct instances of the targeted
platform", and §IV notes the evaluator "exploits the availability of
multiple cores ... to generate, compile and execute code versions in
parallel".  :class:`EvaluationEngine` is that component: optimizers hand it
the configurations of one generation and it runs a three-stage pipeline —

1. **classify** — one read of the target's memo ledger, then one pass over
   the batch's canonical keys (the target's ``keys_of``): in-batch
   duplicates, ledger hits, the fused session's shared and in-flight
   results, then one read of the persistent disk cache for whatever is
   left.  Each unique configuration is computed at most once per run;
2. **compute** — the cold keys run *inline*, in the caller's thread, as
   one vectorized ``compute_keys`` call, unless a worker pool can overlap
   something.  A pool is used only when ``max_workers > 1`` and the
   backend is ``"process"``, the target declares per-configuration
   latency (``protocol.overhead_s > 0``, the compile-and-run wait of a
   real evaluation), or a ``timeout_s`` or ``fault_policy`` is set (only
   a pool can abandon a hung attempt).  Pooled keys are sharded
   into ``ceil(B/workers)``-sized chunks, one vectorized call per worker;
   workers are *pure*: they produce ``key → row`` results (``(time,
   samples, energy)``) without touching the evaluation ledger;
3. **commit** — the engine commits each batch's rows in batch order, under
   one lock, through the target's single-writer ``commit_many``.  Because
   measurement noise is hash-derived per key, results are bit-identical
   for any worker count or chunking, and the ``E`` metric (paper Table VI)
   stays exact.

A robustness layer wraps pooled dispatch: one wall-clock deadline per
attempt (``concurrent.futures.wait`` — n stragglers cost one timeout, not
n), bounded per-chunk retry with linear backoff, and graceful degradation —
configurations whose pooled attempts keep failing are rescued **per key**
serially in the caller's thread, and an engine that has to rescue
``degrade_after`` consecutive batches stops using the pool altogether.  A
failed inline call is rescued per key the same way.  :class:`FaultPolicy`
injects failures for testing.  :class:`EngineStats` records the
accounting (dispatched / cache hits / deduped / disk hits / retried /
failed, wall time).

Freshly computed results are persisted to the target's
:class:`~repro.evaluation.disk_cache.MeasurementDiskCache` (if any) after
the commit, so repeated runs perform zero model evaluations for
already-cached configurations while ``E`` stays exact.

Besides the blocking single-target :meth:`EvaluationEngine.evaluate_batch`,
the engine offers a **fused session** for multi-region tuning
(:meth:`fused_submit` / :meth:`fused_wait`): several regions' generation
batches — each against its *own* target — go through the same pool rule,
are deduplicated **across regions** by target fingerprint (equal
fingerprints ⇒ one computation serves every region, counted as
``shared_hits``; each consuming region still commits to its own ledger, so
per-region ``E`` is exactly what separate evaluation would have produced),
and commit deterministically in per-batch order as soon as each batch's
results drain.  The coordinator thread owns all session state (workers only
run the pure ``compute_keys``), so results are bit-identical for any worker
count, chunk size or completion order.  The cross-region scheduler in
:mod:`repro.driver.multiregion` is the consumer.

``BatchEvaluator`` remains as a backwards-compatible alias.
"""

from __future__ import annotations

import math
import os
import time
from concurrent.futures import FIRST_COMPLETED, ThreadPoolExecutor, wait
from dataclasses import dataclass, field, fields
from typing import TYPE_CHECKING

from repro.evaluation.measurements import Row, row_objectives
from repro.evaluation.objectives import Objectives
from repro.evaluation.simulator import SimulatedTarget
from repro.obs import DISABLED, Observability

if TYPE_CHECKING:
    from concurrent.futures import ProcessPoolExecutor

__all__ = [
    "EvaluationEngine",
    "EngineStats",
    "BatchResult",
    "FusedBatch",
    "FaultPolicy",
    "FlakyFaultPolicy",
    "InjectedFault",
    "EvaluationError",
    "BatchEvaluator",
    "auto_workers",
]


class InjectedFault(RuntimeError):
    """Raised by fault policies to simulate a worker failure."""


class EvaluationError(RuntimeError):
    """A configuration could not be evaluated even after retries and the
    serial rescue path."""


def auto_workers() -> int:
    """Default worker-pool width: ``nproc * 3 / 4`` (MITuna's default),
    never below 1."""
    return max(1, (os.cpu_count() or 4) * 3 // 4)


class FaultPolicy:
    """Injectable fault hook for testing the engine's robustness layer.

    :meth:`check` is called before every computation attempt.  The base
    policy never fails; subclasses raise (or sleep, to trip the timeout
    path) to simulate flaky compilers, crashed runs, or hung targets.
    """

    def check(self, key: tuple, attempt: int, serial: bool) -> None:
        """Called with the canonical config key, the 1-based attempt number
        and whether the attempt runs serially in the caller's thread (the
        rescue/degraded path) rather than on the worker pool."""


@dataclass
class FlakyFaultPolicy(FaultPolicy):
    """Deterministic fault injection.

    :param fail_attempts: raise :class:`InjectedFault` on pooled attempts
        ``<= fail_attempts`` (0 disables).
    :param slow_attempts: sleep ``delay_s`` on pooled attempts
        ``<= slow_attempts`` — combined with an engine timeout this
        exercises the timeout/retry path.
    :param keys: restrict the faults to these canonical keys (None = all).
    :param fail_serial: also fail serial (rescue) attempts — makes the
        failure terminal.
    """

    fail_attempts: int = 0
    slow_attempts: int = 0
    delay_s: float = 0.0
    keys: frozenset | None = None
    fail_serial: bool = False
    calls: list = field(default_factory=list)

    def check(self, key: tuple, attempt: int, serial: bool) -> None:
        if self.keys is not None and key not in self.keys:
            return
        self.calls.append((key, attempt, serial))
        if serial:
            if self.fail_serial:
                raise InjectedFault(f"injected serial fault for {key}")
            return
        if attempt <= self.slow_attempts and self.delay_s > 0:
            time.sleep(self.delay_s)
        if attempt <= self.fail_attempts:
            raise InjectedFault(f"injected fault for {key} (attempt {attempt})")


@dataclass
class EngineStats:
    """Evaluation-engine accounting (cumulative or per batch).

    ``configs = dispatched + cache_hits + deduped + disk_hits +
    shared_hits`` always holds; ``E`` grows by exactly
    ``new_evaluations`` (disk hits commit to the ledger too, so E is
    identical between cold and warm disk caches).
    """

    batches: int = 0
    configs: int = 0
    #: unique configurations actually computed
    dispatched: int = 0
    #: configurations served from the target's memo cache
    cache_hits: int = 0
    #: duplicate configurations within batches (computed once)
    deduped: int = 0
    #: configurations served from the persistent on-disk cache
    disk_hits: int = 0
    #: configurations served by another region's computation in a fused
    #: session (equal target fingerprints ⇒ shared measurement)
    shared_hits: int = 0
    #: ledger commits (== dispatched unless an external caller raced)
    new_evaluations: int = 0
    #: retry attempts after pooled failures/timeouts
    retried: int = 0
    #: pooled attempts abandoned after the per-config timeout
    timeouts: int = 0
    #: configurations rescued serially after all pooled attempts failed
    failed: int = 0
    #: batches evaluated serially because the engine degraded
    serial_fallbacks: int = 0
    wall_time_s: float = 0.0

    def merge(self, other: "EngineStats") -> None:
        for name in _STATS_FIELDS:
            setattr(self, name, getattr(self, name) + getattr(other, name))

    def summary(self) -> str:
        return (
            f"batches={self.batches} configs={self.configs} "
            f"dispatched={self.dispatched} cache_hits={self.cache_hits} "
            f"deduped={self.deduped} disk_hits={self.disk_hits} "
            f"shared_hits={self.shared_hits} retried={self.retried} "
            f"failed={self.failed} wall={self.wall_time_s:.3f}s"
        )

    def as_dict(self) -> dict:
        return {name: getattr(self, name) for name in _STATS_FIELDS}


#: the field names of :class:`EngineStats`, read once
_STATS_FIELDS = tuple(f.name for f in fields(EngineStats))

#: (metric, help, :class:`EngineStats` field) of the per-batch counters
_ENGINE_COUNTERS = (
    ("repro_engine_batches_total", "evaluation batches processed", "batches"),
    ("repro_engine_configs_total", "configurations submitted", "configs"),
    ("repro_engine_dispatched_total", "unique configurations computed", "dispatched"),
    ("repro_engine_cache_hits_total", "configurations served from the memo cache",
     "cache_hits"),
    ("repro_engine_deduped_total", "in-batch duplicate configurations", "deduped"),
    ("repro_engine_disk_hits_total", "configurations served from the persistent disk cache",
     "disk_hits"),
    ("repro_engine_shared_hits_total", "configurations served by a sibling region's computation",
     "shared_hits"),
    ("repro_engine_retries_total", "retry attempts after pooled failures", "retried"),
    ("repro_engine_timeouts_total", "pooled attempts abandoned on timeout", "timeouts"),
    ("repro_engine_failed_total", "configurations rescued serially", "failed"),
    ("repro_engine_serial_fallbacks_total", "batches run serially after degradation",
     "serial_fallbacks"),
)


@dataclass(frozen=True)
class BatchResult:
    """One batch's measurements: the submitted *keys* and their *rows*, in
    input order."""

    keys: list[tuple]
    rows: tuple[Row, ...]
    new_evaluations: int
    stats: EngineStats | None = None

    @property
    def objectives(self) -> tuple[Objectives, ...]:
        """The rows as :class:`Objectives`, in input order."""
        return tuple(map(row_objectives, self.keys, self.rows))


@dataclass
class FusedBatch:
    """One region's in-flight batch inside a fused evaluation session.

    Returned by :meth:`EvaluationEngine.fused_submit`; once
    :meth:`EvaluationEngine.fused_wait` hands it back, :attr:`rows` holds
    the results in submission order (:attr:`objectives` as records) and
    :attr:`stats` the batch's accounting.

    :param region: caller-chosen label (trace events carry it).
    :param fp: the target's measurement fingerprint — the cross-region
        dedup key: equal fingerprints measure identically, so one
        computation serves every region that shares one.
    """

    region: str
    target: SimulatedTarget
    fp: str
    #: every submitted canonical key, input order
    keys: list[tuple]
    #: the target ledger's results for *keys* (its hits at submission,
    #: then every committed key)
    known: dict
    #: the unique ledger-miss keys this batch commits, in batch order
    order: list[tuple]
    #: session-result entries that must exist before the batch can commit
    needs: set[tuple]
    #: keys this batch dispatched itself (persisted to disk after commit)
    compute: list[tuple]
    stats: EngineStats
    t0: float
    rows: tuple[Row, ...] | None = None
    done: bool = False

    @property
    def objectives(self) -> tuple[Objectives, ...] | None:
        """The rows as :class:`Objectives` once the batch is done."""
        return None if self.rows is None else tuple(map(row_objectives, self.keys, self.rows))


class EvaluationEngine:
    """Parallel, fault-tolerant batch evaluator over a target platform.

    :param target: the (simulated) platform; must provide ``lookup_rows``,
        pure ``compute_keys`` and single-writer ``commit_many``.
    :param max_workers: the widest pool the engine may use; ``"auto"`` →
        :func:`auto_workers`.  1 (the default) always evaluates inline.
        Above 1, a batch still runs inline unless the pool rule (module
        docstring) holds: process backend, per-configuration latency on
        the target, or a timeout or fault policy.
    :param timeout_s: wall-time limit per pooled *attempt* — one deadline
        covers the whole fan-out (a worker cannot be killed, but its
        result is abandoned and its chunk retried).  None disables.
    :param retries: extra attempts after a failed/timed-out pooled attempt.
    :param backoff_s: linear backoff between retry rounds.
    :param degrade_after: after this many consecutive batches needing the
        serial rescue, the engine stops using the pool entirely.
    :param fault_policy: test hook, see :class:`FaultPolicy`.
    :param obs: observability handle — every batch becomes an
        ``engine.batch`` span and the accounting is folded into metric
        counters/histograms; the default disabled handle is free.
    :param backend: ``"thread"`` (default) shares the model between
        workers; ``"process"`` ships the target's pure measurement state
        with each chunk to a cached ``ProcessPoolExecutor`` for true
        parallelism on large grids (incompatible with ``fault_policy``,
        whose in-memory call log cannot cross processes).
    :param chunk_size: configurations per ``compute_keys`` call; None
        (default) uses the whole batch inline and ``ceil(B/workers)``
        per pooled chunk, so one vectorized call per worker covers the
        batch.  ``chunk_size=1`` reproduces per-key dispatch (the
        benchmark baseline).  Any value is bit-identical.
    """

    def __init__(
        self,
        target: SimulatedTarget,
        max_workers: int | str = 1,
        timeout_s: float | None = None,
        retries: int = 2,
        backoff_s: float = 0.02,
        degrade_after: int = 2,
        fault_policy: FaultPolicy | None = None,
        obs: Observability | None = None,
        backend: str = "thread",
        chunk_size: int | None = None,
    ) -> None:
        if max_workers == "auto" or max_workers is None:
            max_workers = auto_workers()
        if int(max_workers) < 1:
            raise ValueError("max_workers must be >= 1 (or 'auto')")
        if backend not in ("thread", "process"):
            raise ValueError(f"backend must be 'thread' or 'process', got {backend!r}")
        if backend == "process" and fault_policy is not None:
            raise ValueError(
                "backend='process' cannot inject faults: the policy's state "
                "lives in this process — use the thread backend for fault tests"
            )
        if chunk_size is not None and int(chunk_size) < 1:
            raise ValueError("chunk_size must be >= 1 (or None for auto)")
        self.target = target
        self.max_workers = int(max_workers)
        self.timeout_s = timeout_s
        self.retries = int(retries)
        self.backoff_s = float(backoff_s)
        self.degrade_after = int(degrade_after)
        self.fault_policy = fault_policy
        self.obs = obs or DISABLED
        self.backend = backend
        self.chunk_size = None if chunk_size is None else int(chunk_size)
        #: cumulative accounting across all batches
        self.stats = EngineStats()
        self._degraded = False
        self._strikes = 0
        #: shared by both paths; the thread backend's batch pools are per
        #: batch (so abandoned workers never block one), the fused one lives
        #: until close()
        self._process_pool: ProcessPoolExecutor | None = None
        self._fused_pool: ThreadPoolExecutor | None = None
        # fused-session state (multi-target cross-region scheduling)
        self._fused_pending: list[FusedBatch] = []
        self._fused_futures: dict = {}
        self._fused_results: dict[tuple[str, tuple], tuple] = {}
        self._fused_inflight: set[tuple[str, tuple]] = set()

    # ------------------------------------------------------------------

    @property
    def degraded(self) -> bool:
        """Whether repeated worker failures forced permanent serial mode."""
        return self._degraded

    def reset_faults(self) -> None:
        """Re-arm the worker pool after degradation."""
        self._degraded = False
        self._strikes = 0

    def close(self) -> None:
        """Release the cached process pool and the fused-session pool
        (the thread backend's batch pools are per batch)."""
        for pool in (self._process_pool, self._fused_pool):
            if pool is not None:
                pool.shutdown(wait=False, cancel_futures=True)
        self._process_pool = self._fused_pool = None
        self.fused_reset()

    def _pooled(self, target: SimulatedTarget) -> bool:
        """The pool rule: a pool pays only when it can overlap waits —
        another process's compute, the target's per-configuration latency,
        or an attempt that may have to be abandoned.  Otherwise the
        batch's cold keys are computed inline."""
        return self.max_workers > 1 and (
            self.backend == "process"
            or target.protocol.overhead_s > 0
            or self.timeout_s is not None
            or self.fault_policy is not None
        )

    # ------------------------------------------------------------------

    def evaluate_batch(self, keys: list[tuple]) -> BatchResult:
        """Evaluate canonical keys (``keys_of``); preserves order.

        Results are bit-identical for any ``max_workers`` and the ledger's
        ``E`` grows by exactly the number of configurations that were new
        to the target.
        """
        t0 = time.perf_counter()
        batch = EngineStats(batches=1, configs=len(keys))

        with self.obs.tracer.span(
            "engine.batch", configs=len(keys), workers=self.max_workers
        ) as span:
            order, known, results, compute = self._classify(self.target, keys, batch)
            if compute:
                if self._degraded:
                    batch.serial_fallbacks += 1
                if self._degraded or len(compute) <= 1 or not self._pooled(self.target):
                    self._compute_inline(compute, results, batch, self.target)
                else:
                    self._compute_parallel(compute, results, batch)
            self._commit(self.target, order, compute, results, batch, known)
            rows = tuple(map(known.__getitem__, keys))
            batch.wall_time_s = time.perf_counter() - t0
            if self.obs.tracer.enabled:
                span.set(**batch.as_dict())

        self._observe_batch(batch)
        self.stats.merge(batch)
        return BatchResult(
            keys=keys,
            rows=rows,
            new_evaluations=batch.new_evaluations,
            stats=batch,
        )

    def _classify(
        self,
        target: SimulatedTarget,
        keys: list[tuple],
        stats: EngineStats,
        fp: str | None = None,
    ) -> tuple[list[tuple], dict, dict, list[tuple]]:
        """Sort a batch's canonical *keys* by where their result comes from:
        in-batch duplicates (``deduped``), the target's ledger, read once
        (``cache_hits``), the fused session's computed or in-flight results
        under fingerprint *fp* (``shared_hits``; fused batches only), then
        one disk-cache read over the rest (``disk_hits``).  Returns the
        unique ledger misses in batch order, the ledger's hits, the
        disk-served results and the cold keys left to compute
        (``dispatched``)."""
        known = target.lookup_rows(keys)
        pending: dict[tuple, None] = {}
        for key in keys:
            if key in pending:
                stats.deduped += 1
            elif key in known:
                stats.cache_hits += 1
            else:
                pending[key] = None
        order = list(pending)
        cold = order
        if fp is not None:
            cold = [
                key
                for key in order
                if (fp, key) not in self._fused_results
                and (fp, key) not in self._fused_inflight
            ]
            stats.shared_hits = len(order) - len(cold)
        disk = target.disk_fetch_many(cold)
        stats.disk_hits = len(disk)
        compute = [key for key in cold if key not in disk] if disk else cold
        stats.dispatched = len(compute)
        return order, known, disk, compute

    def _commit(self, target, order, compute, results, stats, known) -> None:
        """Single-writer commit of the batch's rows in batch order, under
        one lock — the only ledger mutation, also recorded in *known*, the
        batch's ledger hits — then persist the keys this batch computed
        itself."""
        fresh = {key: results[key] for key in order}
        known.update(fresh)
        stats.new_evaluations += target.commit_many(fresh)
        if compute and target.has_disk_cache:
            target.disk_store_many([(key, results[key]) for key in compute])

    def _observe_batch(self, batch: EngineStats) -> None:
        """Fold one batch's accounting into the metrics registry."""
        m = self.obs.metrics
        if not m.enabled:
            return
        for name, help_text, attr in _ENGINE_COUNTERS:
            m.counter(name, help_text).inc(getattr(batch, attr))
        m.gauge(
            "repro_engine_degraded", "1 while the engine is in permanent serial mode"
        ).set(int(self._degraded))
        m.histogram(
            "repro_engine_batch_seconds", "wall time per evaluation batch"
        ).observe(batch.wall_time_s)

    # -- inline path -------------------------------------------------------

    def _compute_inline(self, keys, results, stats, target) -> None:
        """Compute *keys* into *results* in the caller's thread, one
        ``compute_keys`` call per ``chunk_size`` keys (the whole batch by
        default).  A failed call is rescued per key, like a failed pooled
        chunk; under a fault policy every key takes the checked per-key
        path."""
        if self.fault_policy is not None:
            for key in keys:
                results[key] = self._rescue(key, stats, 1, target)
            return
        for chunk in self._chunks(keys) if self.chunk_size else [keys]:
            try:
                results.update(zip(chunk, target.compute_keys(chunk)))
            except Exception:  # noqa: BLE001 — rescued below
                stats.failed += len(chunk)
                for key in chunk:
                    results[key] = self._rescue(key, stats, 2, target)

    # -- pooled path -------------------------------------------------------

    def _chunks(self, keys: list[tuple]) -> list[tuple[tuple, ...]]:
        """Shard *keys* into the ``compute_keys`` calls of one fan-out:
        ``chunk_size`` keys each, by default ``ceil(B/workers)`` so every
        worker makes one vectorized call over its whole share."""
        size = self.chunk_size or max(1, math.ceil(len(keys) / self.max_workers))
        return [tuple(keys[i : i + size]) for i in range(0, len(keys), size)]

    def _compute_parallel(self, order, results, batch) -> None:
        remaining = list(order)
        position = {key: i for i, key in enumerate(order)}
        attempt = 1
        pool = self._pool()
        try:
            while remaining and attempt <= 1 + self.retries:
                if attempt > 1:
                    batch.retried += len(remaining)
                    time.sleep(self.backoff_s * (attempt - 1))
                futures = {
                    self._submit(pool, chunk, attempt, self.target): chunk
                    for chunk in self._chunks(remaining)
                }
                # one deadline for the whole attempt: n stragglers cost one
                # timeout budget, not n sequential ones
                done, not_done = wait(set(futures), timeout=self.timeout_s)
                still_failing = []
                for future in not_done:
                    batch.timeouts += 1
                    future.cancel()
                    still_failing.extend(futures[future])
                for future in done:
                    chunk = futures[future]
                    try:
                        chunk_results = future.result()
                    except Exception:
                        still_failing.extend(chunk)
                    else:
                        for key, result in zip(chunk, chunk_results):
                            results[key] = result
                # wait() hands back sets — restore batch order so retry
                # chunking (and therefore accounting) is deterministic
                still_failing.sort(key=position.__getitem__)
                remaining = still_failing
                attempt += 1
        finally:
            if self.backend == "thread":
                # don't wait for abandoned (timed-out) workers
                pool.shutdown(wait=False, cancel_futures=True)

        if remaining:
            batch.failed += len(remaining)
            self._strikes += 1
            if self._strikes >= self.degrade_after and not self._degraded:
                self._degraded = True
                self.obs.tracer.event(
                    "engine.degraded",
                    strikes=self._strikes,
                    failed_configs=len(remaining),
                )
            # last line of defence: per-key serial rescue in this thread
            for key in remaining:
                results[key] = self._rescue(key, batch, attempt, self.target)
        else:
            self._strikes = 0

    def _pool(self, fused: bool = False):
        """The cached process pool (both paths), the fused session's
        cached thread pool, or a fresh per-batch thread pool."""
        if self.backend == "process":
            if self._process_pool is None:
                # the process machinery (multiprocessing, subprocess) loads
                # only when this backend is used
                from concurrent.futures import ProcessPoolExecutor

                self._process_pool = ProcessPoolExecutor(max_workers=self.max_workers)
            return self._process_pool
        if not fused:
            return ThreadPoolExecutor(
                max_workers=self.max_workers, thread_name_prefix="repro-eval"
            )
        if self._fused_pool is None:
            self._fused_pool = ThreadPoolExecutor(
                max_workers=self.max_workers, thread_name_prefix="repro-fused"
            )
        return self._fused_pool

    def _submit(self, pool, chunk: tuple[tuple, ...], attempt: int, target):
        if self.backend == "process":
            return pool.submit(_proc_compute, target, chunk)
        return pool.submit(self._compute_chunk, chunk, attempt, target)

    def _compute_chunk(
        self, keys: tuple[tuple, ...], attempt: int, target: SimulatedTarget
    ) -> list[Row]:
        """Pure chunk computation (worker body): one vectorized
        ``compute_keys`` call per chunk; a fault on any key fails the whole
        chunk (its keys are retried together, then rescued per key)."""
        if self.fault_policy is not None:
            for key in keys:
                self.fault_policy.check(key, attempt, False)
        return target.compute_keys(keys)

    def _rescue(
        self, key: tuple, batch: EngineStats, first_attempt: int, target
    ) -> Row:
        """Serial per-key computation with bounded retries; the last line
        of defence — raises :class:`EvaluationError` if even this fails."""
        last_error: Exception | None = None
        for attempt in range(first_attempt, first_attempt + self.retries + 1):
            try:
                if self.fault_policy is not None:
                    self.fault_policy.check(key, attempt, True)
                return target.compute_keys([key])[0]
            except Exception as exc:  # noqa: BLE001 — deliberate catch-all
                last_error = exc
                batch.retried += 1
                time.sleep(self.backoff_s)
        raise EvaluationError(
            f"configuration {key} failed after {self.retries + 1} serial attempts"
        ) from last_error

    # -- fused multi-target session (cross-region scheduling) --------------

    @property
    def fused_active(self) -> bool:
        """Whether the fused session has undrained batches."""
        return bool(self._fused_pending)

    def fused_reset(self) -> None:
        """Drop all fused-session state (pending batches, shared results).

        Call between independent runs; the worker pool itself survives
        until :meth:`close`."""
        self._fused_pending.clear()
        self._fused_futures.clear()
        self._fused_results.clear()
        self._fused_inflight.clear()

    def fused_submit(
        self, target: SimulatedTarget, keys: list[tuple], region: str = ""
    ) -> FusedBatch:
        """Enqueue one region's batch of canonical keys into the fused
        session.

        Dedups against the batch itself, *target*'s ledger, the session's
        shared results, and sibling in-flight chunks, then reads the disk
        cache once.  The cold remainder is computed inline right here, or,
        when the pool rule holds, dispatched as ``ceil(B/workers)`` chunks
        onto the shared pool.  :meth:`fused_wait` delivers the batch once
        its results (own keys plus awaited sibling keys) are in.
        """
        fp = target.fingerprint()
        bstats = EngineStats(batches=1, configs=len(keys))
        order, known, disk, compute = self._classify(target, keys, bstats, fp)
        self._fused_results.update(((fp, key), r) for key, r in disk.items())

        batch = FusedBatch(
            region=region,
            target=target,
            fp=fp,
            keys=keys,
            known=known,
            order=order,
            needs={(fp, key) for key in order},
            compute=compute,
            stats=bstats,
            t0=time.perf_counter(),
        )
        if self._pooled(target):
            for chunk in self._chunks(compute):
                future = self._submit(self._pool(fused=True), chunk, 1, target)
                self._fused_futures[future] = (fp, chunk, batch)
                self._fused_inflight.update((fp, key) for key in chunk)
        elif compute:
            computed: dict = {}
            self._compute_inline(compute, computed, bstats, target)
            self._fused_results.update(((fp, key), r) for key, r in computed.items())
        self._fused_pending.append(batch)
        return batch

    def fused_wait(self) -> list[FusedBatch]:
        """Block until at least one pending batch is complete; commit and
        return every complete batch (submission order).  Returns ``[]``
        only when nothing is pending.

        A failed chunk is rescued per key serially in the caller's thread
        (bounded retries, then :class:`EvaluationError`) — the fused path
        trades the pooled retry/timeout dance for deterministic inline
        rescue, since one straggler would stall every region behind it.
        """
        t0 = time.perf_counter()
        while True:
            # a view-vs-set comparison probes only the batch's own keys
            computed = self._fused_results.keys()
            ready = [b for b in self._fused_pending if computed >= b.needs]
            if ready or not self._fused_futures:
                break
            done, _ = wait(set(self._fused_futures), return_when=FIRST_COMPLETED)
            for future in done:
                fp, chunk, owner = self._fused_futures.pop(future)
                try:
                    chunk_results = future.result()
                except Exception:
                    owner.stats.failed += len(chunk)
                    chunk_results = [
                        self._rescue(key, owner.stats, 2, owner.target)
                        for key in chunk
                    ]
                for key, result in zip(chunk, chunk_results):
                    self._fused_results[(fp, key)] = result
                    self._fused_inflight.discard((fp, key))

        m = self.obs.metrics
        m.gauge(
            "repro_scheduler_inflight_chunks",
            "fused-session worker chunks currently in flight",
        ).set(len(self._fused_futures))
        m.histogram(
            "repro_scheduler_drain_seconds",
            "coordinator wait time per fused drain",
        ).observe(time.perf_counter() - t0)

        for batch in ready:
            self._fused_commit(batch)
            self._fused_pending.remove(batch)
        return ready

    def _fused_commit(self, batch: FusedBatch) -> None:
        """Commit one complete batch through the shared commit stage."""
        results = {key: self._fused_results[(batch.fp, key)] for key in batch.order}
        self._commit(
            batch.target, batch.order, batch.compute, results, batch.stats, batch.known
        )
        batch.rows = tuple(map(batch.known.__getitem__, batch.keys))
        batch.stats.wall_time_s = time.perf_counter() - batch.t0
        batch.done = True
        self.obs.tracer.event(
            "scheduler.batch",
            region=batch.region,
            configs=batch.stats.configs,
            dispatched=batch.stats.dispatched,
            cache_hits=batch.stats.cache_hits,
            deduped=batch.stats.deduped,
            shared_hits=batch.stats.shared_hits,
            disk_hits=batch.stats.disk_hits,
            new_evaluations=batch.stats.new_evaluations,
            latency_s=batch.stats.wall_time_s,
        )
        self._observe_batch(batch.stats)
        self.stats.merge(batch.stats)


def _proc_compute(target: SimulatedTarget, keys: tuple[tuple, ...]) -> list[Row]:
    """Process-backend worker body.  Each chunk ships its own target — the
    pickle carries only the pure measurement state (model + noise
    parameters), no ledger — so one pool serves every target of a fused
    session; the parent keeps the ledgers and commits serially, exactly as
    with the thread backend."""
    return target.compute_keys(keys)


#: Backwards-compatible alias — the old BatchEvaluator interface
#: (``BatchEvaluator(target, max_workers=n).evaluate_batch(keys)``) is a
#: strict subset of the engine's.
BatchEvaluator = EvaluationEngine
