"""The parallel evaluation engine.

Paper §III-A: "multiple independent configurations are generated, compiled
and if possible evaluated in parallel on distinct instances of the targeted
platform", and §IV notes the evaluator "exploits the availability of
multiple cores ... to generate, compile and execute code versions in
parallel".  :class:`EvaluationEngine` is that component: optimizers hand it
each generation's configurations as one *batch* of canonical keys (the
target's ``keys_of``), and every batch runs the same three stages —

1. **classify** — one read of the target's memo ledger, then one pass over
   the keys: in-batch duplicates, ledger hits, the session's computed or
   in-flight results under the target's fingerprint, then one disk-cache
   read for whatever is left.  Each unique configuration is computed at
   most once per run;
2. **compute** — the cold keys run *inline*, in the caller's thread, as one
   vectorized ``compute_keys`` call, unless a pool can overlap something:
   only when ``max_workers > 1`` and the target declares per-configuration
   latency (``protocol.overhead_s > 0``, the compile-and-run wait of a real
   evaluation).  Pooled keys go out in ``ceil(B/workers)``-sized chunks,
   one vectorized call per worker on the engine's thread pool; workers are
   *pure*: they produce ``key → row`` results (``(time, samples, energy)``)
   without touching the ledger;
3. **commit** — once none of a batch's keys is still in flight, its rows
   are committed in batch order, under one lock, through the target's
   single-writer ``commit_many``; the keys it computed go to the target's
   disk cache (if any), and its accounting to one ``engine.batch`` trace
   event.  Measurement noise is hash-derived per key, so results are
   bit-identical for any worker count, chunking or completion order, and
   ``E`` (paper Table VI) stays exact.

There is one scheduler.  :meth:`EvaluationEngine.evaluate_batch` is a
one-batch session on the engine's own target: submit, then drain until that
batch commits.  Multi-region tuning (:mod:`repro.driver.multiregion`) keeps
several regions' batches in flight through
:meth:`~EvaluationEngine.fused_submit` / :meth:`~EvaluationEngine.fused_wait`,
each against its *own* target.  Equal fingerprints measure identically, so
one computation serves every region sharing one (``shared_hits``), while
each region still commits to its own ledger: per-region ``E`` is exactly
that of separate evaluation.  The caller's thread owns all session state.

There is one failure policy: a ``compute_keys`` call that fails, inline or
pooled, is rescued **per key** in the caller's thread, with up to
:data:`RESCUE_ATTEMPTS` attempts per key, then :class:`EvaluationError`.
There is no deadline: the simulated ``compute_keys`` is pure NumPy and
cannot hang, and a hung thread could not be killed anyway — a real
compile-and-run target puts its timeout in its own runner.
:class:`FaultPolicy` injects failures for testing; :class:`EngineStats`
holds the accounting.
"""

from __future__ import annotations

import math
import os
import time
from concurrent.futures import FIRST_COMPLETED, ThreadPoolExecutor, wait
from dataclasses import dataclass, field, fields

from repro.evaluation.measurements import Row, row_objectives
from repro.evaluation.objectives import Objectives
from repro.evaluation.simulator import SimulatedTarget
from repro.obs import DISABLED, Observability

__all__ = [
    "EvaluationEngine",
    "EngineStats",
    "BatchResult",
    "FaultPolicy",
    "FlakyFaultPolicy",
    "InjectedFault",
    "EvaluationError",
    "RESCUE_ATTEMPTS",
    "auto_workers",
]

#: per-key attempts of the serial rescue after a failed ``compute_keys`` call
RESCUE_ATTEMPTS = 3


class InjectedFault(RuntimeError):
    """Raised by fault policies to simulate a worker failure."""


class EvaluationError(RuntimeError):
    """A configuration could not be evaluated even by the per-key serial
    rescue."""


def auto_workers() -> int:
    """Default worker-pool width: ``nproc * 3 / 4`` (MITuna's default),
    never below 1."""
    return max(1, (os.cpu_count() or 4) * 3 // 4)


class FaultPolicy:
    """Injectable fault hook for testing the engine's failure policy.

    :meth:`check` is called before every computation attempt.  The base
    policy never fails; subclasses raise to simulate flaky compilers or
    crashed runs.
    """

    def check(self, key: tuple, attempt: int, serial: bool) -> None:
        """Called with the canonical config key, the 1-based attempt number
        and whether the attempt is a per-key rescue in the caller's thread
        (``serial``) rather than the batch's own ``compute_keys`` call,
        inline or pooled (always attempt 1)."""


@dataclass
class FlakyFaultPolicy(FaultPolicy):
    """Deterministic fault injection.

    :param fail_attempts: raise :class:`InjectedFault` on ``compute_keys``
        call attempts ``<= fail_attempts`` (0 disables; the call is
        attempt 1, so any positive value fails it and sends its keys to the
        rescue).
    :param keys: restrict the faults to these canonical keys (None = all).
    :param fail_serial: also fail serial (rescue) attempts — makes the
        failure terminal.
    """

    fail_attempts: int = 0
    keys: frozenset | None = None
    fail_serial: bool = False
    calls: list = field(default_factory=list)

    def check(self, key: tuple, attempt: int, serial: bool) -> None:
        if self.keys is not None and key not in self.keys:
            return
        self.calls.append((key, attempt, serial))
        if self.fail_serial if serial else attempt <= self.fail_attempts:
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
    #: per-key rescue attempts that failed
    retried: int = 0
    #: configurations whose ``compute_keys`` call failed, rescued per key
    failed: int = 0
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


@dataclass(eq=False)
class BatchResult:
    """One batch of canonical keys through the engine.

    :meth:`EvaluationEngine.evaluate_batch` returns it committed;
    :meth:`EvaluationEngine.fused_submit` returns it in flight, and
    :meth:`EvaluationEngine.fused_wait` hands it back once committed.  A
    committed batch has :attr:`done` set, :attr:`rows` holds its results in
    input order (:attr:`objectives` as records) and :attr:`stats` the
    batch's accounting.

    :param region: caller-chosen label (the ``engine.batch`` event carries
        it; ``""`` for :meth:`EvaluationEngine.evaluate_batch`).
    :param fp: the target's measurement fingerprint — the session's dedup
        key: equal fingerprints measure identically, so one computation
        serves every batch that shares one.
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
    #: keys this batch dispatched itself (persisted to disk after commit)
    compute: list[tuple]
    stats: EngineStats
    t0: float
    rows: tuple[Row, ...] | None = None
    done: bool = False

    @property
    def new_evaluations(self) -> int:
        """Configurations this batch added to the target's ``E``."""
        return self.stats.new_evaluations

    @property
    def objectives(self) -> tuple[Objectives, ...] | None:
        """The rows as :class:`Objectives` once the batch is done."""
        return None if self.rows is None else tuple(map(row_objectives, self.keys, self.rows))


class EvaluationEngine:
    """Parallel batch evaluator over a target platform.

    :param target: the (simulated) platform :meth:`evaluate_batch`
        measures on; must provide ``lookup_rows``, pure ``compute_keys``
        and single-writer ``commit_many``.
    :param max_workers: the widest pool the engine may use; ``"auto"`` →
        :func:`auto_workers`.  1 (the default) always evaluates inline.
        Above 1, a batch still runs inline, as one ``compute_keys`` call,
        unless its target declares per-configuration latency (the pool
        rule, module docstring); then it is split into ``ceil(B/workers)``
        chunks on a thread pool that is created on first use and lives
        until :meth:`close`.
    :param fault_policy: test hook, see :class:`FaultPolicy`.
    :param obs: observability handle — every committed batch becomes an
        ``engine.batch`` event (the metrics are folded from these); the
        default disabled handle is free.
    """

    def __init__(
        self,
        target: SimulatedTarget,
        max_workers: int | str = 1,
        fault_policy: FaultPolicy | None = None,
        obs: Observability | None = None,
    ) -> None:
        if max_workers == "auto" or max_workers is None:
            max_workers = auto_workers()
        if int(max_workers) < 1:
            raise ValueError("max_workers must be >= 1 (or 'auto')")
        self.target = target
        self.max_workers = int(max_workers)
        self.fault_policy = fault_policy
        self.obs = obs or DISABLED
        #: cumulative accounting across all batches
        self.stats = EngineStats()
        #: the worker pool, created on first pooled batch, released by close()
        self._pool: ThreadPoolExecutor | None = None
        # session state, owned by the caller's thread: submitted batches not
        # yet committed, the chunk of each pooled future, and per target
        # fingerprint the computed rows and the keys still in flight
        self._pending: list[BatchResult] = []
        self._futures: dict = {}
        self._results: dict[str, dict[tuple, Row]] = {}
        self._inflight: dict[str, set[tuple]] = {}

    # ------------------------------------------------------------------

    def close(self) -> None:
        """Release the worker pool and drop the session state; :attr:`stats`
        stays readable, and a later pooled batch starts a new pool."""
        if self._pool is not None:
            self._pool.shutdown(wait=True, cancel_futures=True)
            self._pool = None
        self.fused_reset()

    def _pooled(self, target: SimulatedTarget) -> bool:
        """The pool rule: a pool pays only when it can overlap the
        target's per-configuration latency.  Otherwise the batch's cold
        keys are computed inline."""
        return self.max_workers > 1 and target.protocol.overhead_s > 0

    # ------------------------------------------------------------------

    def evaluate_batch(self, keys: list[tuple]) -> BatchResult:
        """Evaluate canonical keys (``keys_of``) on :attr:`target` as a
        one-batch session — the submit and commit stages of
        :meth:`fused_submit` / :meth:`fused_wait`, draining only this batch.
        The returned batch is committed, its rows in input order; they are
        bit-identical for any ``max_workers``, and the ledger's ``E`` grows
        by exactly the configurations that were new to the target."""
        batch = self._submit(self.target, keys, "")
        while not batch.done:
            self._drain([batch])
        if not self._pending:
            # no fused batch can share these results any more
            self._results.clear()
            self._inflight.clear()
        return batch

    def _submit(self, target: SimulatedTarget, keys: list[tuple], region: str) -> BatchResult:
        """Classify a batch, start computing its cold keys, and enqueue it.

        Sorts the canonical *keys* by where their result comes from:
        in-batch duplicates (``deduped``), the target's ledger, read once
        (``cache_hits``), the session's computed or in-flight results under
        the target's fingerprint (``shared_hits``), then one disk-cache
        read over the rest (``disk_hits``).  The cold remainder
        (``dispatched``) is computed inline right here or, when the pool
        rule holds, sent to the pool in ``ceil(B/workers)``-sized chunks.
        """
        t0 = time.perf_counter()
        fp = target.fingerprint()
        stats = EngineStats(batches=1, configs=len(keys))
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
        results = self._results.setdefault(fp, {})
        inflight = self._inflight.setdefault(fp, set())
        cold = order
        if results or inflight:
            cold = [key for key in order if key not in results and key not in inflight]
            stats.shared_hits = len(order) - len(cold)
        disk = target.disk_fetch_many(cold)
        stats.disk_hits = len(disk)
        results.update(disk)
        compute = [key for key in cold if key not in disk] if disk else cold
        stats.dispatched = len(compute)

        batch = BatchResult(region, target, fp, keys, known, order, compute, stats, t0)
        if compute and self._pooled(target):
            if self._pool is None:
                self._pool = ThreadPoolExecutor(self.max_workers, thread_name_prefix="repro-eval")
            for chunk in self._chunks(compute):
                self._futures[self._pool.submit(self._compute, chunk, target)] = (batch, chunk)
            inflight.update(compute)
        elif compute:
            try:
                rows = self._compute(compute, target)
            except Exception:  # noqa: BLE001 — rescued per key
                rows = self._rescue(compute, target, stats)
            results.update(zip(compute, rows))
        self._pending.append(batch)
        return batch

    def _chunks(self, keys: list[tuple]) -> list[tuple[tuple, ...]]:
        """Shard *keys* into the ``compute_keys`` calls of one fan-out:
        ``ceil(B/workers)`` keys each, so every worker makes one vectorized
        call over its whole share."""
        size = math.ceil(len(keys) / self.max_workers)
        return [tuple(keys[i : i + size]) for i in range(0, len(keys), size)]

    def _compute(self, keys, target: SimulatedTarget, attempt: int = 1) -> list[Row]:
        """Pure computation of *keys* (inline, a pool thread's body, or one
        rescue attempt): one vectorized ``compute_keys`` call; a fault on
        any key fails the whole call (a batch's call is attempt 1, its
        keys' rescue attempts follow)."""
        if self.fault_policy is not None:
            for key in keys:
                self.fault_policy.check(key, attempt, attempt > 1)
        return target.compute_keys(keys)

    def _rescue(self, keys, target: SimulatedTarget, stats: EngineStats) -> list[Row]:
        """The one failure policy: after a failed ``compute_keys`` call,
        compute its *keys* one at a time in the caller's thread, up to
        :data:`RESCUE_ATTEMPTS` attempts each; raises
        :class:`EvaluationError` for a key that fails them all, after
        dropping the session (that key's batch can never commit)."""
        stats.failed += len(keys)
        rows = []
        for key in keys:
            for attempt in range(2, 2 + RESCUE_ATTEMPTS):
                try:
                    rows.append(self._compute([key], target, attempt)[0])
                    break
                except Exception as exc:  # noqa: BLE001 — deliberate catch-all
                    stats.retried += 1
                    error = exc
            else:
                self.fused_reset()
                raise EvaluationError(
                    f"configuration {key} failed after {RESCUE_ATTEMPTS} serial attempts"
                ) from error
        return rows

    def _drain(self, candidates: list[BatchResult]) -> list[BatchResult]:
        """Block until at least one of *candidates* (pending batches) is
        complete — none of its keys still in flight — then commit every
        complete one, in submission order, and return them."""
        while True:
            ready = [b for b in candidates if self._inflight[b.fp].isdisjoint(b.order)]
            if ready or not self._futures:
                break
            done, _ = wait(set(self._futures), return_when=FIRST_COMPLETED)
            for future in done:
                owner, chunk = self._futures.pop(future)
                try:
                    rows = future.result()
                except Exception:  # noqa: BLE001 — rescued per key
                    rows = self._rescue(chunk, owner.target, owner.stats)
                self._results[owner.fp].update(zip(chunk, rows))
                self._inflight[owner.fp].difference_update(chunk)
        for batch in ready:
            self._commit(batch)
            self._pending.remove(batch)
        return ready

    def _commit(self, batch: BatchResult) -> None:
        """Single-writer commit of the batch's rows in batch order, under
        one lock — the only ledger mutation, also recorded in the batch's
        ``known`` — then persist the keys this batch computed itself, and
        report the batch."""
        results = self._results[batch.fp]
        target, stats = batch.target, batch.stats
        fresh = {key: results[key] for key in batch.order}
        batch.known.update(fresh)
        stats.new_evaluations += target.commit_many(fresh)
        if batch.compute and target.has_disk_cache:
            target.disk_store_many([(key, results[key]) for key in batch.compute])
        batch.rows = tuple(map(batch.known.__getitem__, batch.keys))
        stats.wall_time_s = time.perf_counter() - batch.t0
        batch.done = True
        if self.obs.tracer.enabled:
            self.obs.tracer.event("engine.batch", region=batch.region, **stats.as_dict())
        self.stats.merge(stats)

    # -- fused multi-target session (cross-region scheduling) --------------

    @property
    def fused_active(self) -> bool:
        """Whether the fused session has undrained batches."""
        return bool(self._pending)

    def fused_reset(self) -> None:
        """Drop all session state (pending batches, shared results).

        Call between independent runs; the worker pool itself survives
        until :meth:`close`."""
        self._pending.clear()
        self._futures.clear()
        self._results.clear()
        self._inflight.clear()

    def fused_submit(
        self, target: SimulatedTarget, keys: list[tuple], region: str = ""
    ) -> BatchResult:
        """Enqueue one region's batch of canonical keys, measured on its own
        *target*, into the fused session: classified, and its cold keys
        computed inline or sent to the pool, as for every batch.
        :meth:`fused_wait` delivers it once its own and its awaited sibling
        keys are in.  Session results persist across generations until
        :meth:`fused_reset`."""
        return self._submit(target, keys, region)

    def fused_wait(self) -> list[BatchResult]:
        """Block until at least one pending batch is complete; commit and
        return every complete batch (submission order).  Returns ``[]``
        only when nothing is pending.

        A failed chunk is rescued per key in the caller's thread (the one
        failure policy, see the module docstring).
        """
        return self._drain(self._pending)

