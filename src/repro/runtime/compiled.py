"""Precompiled policy scoring: version selection as a frozen decision.

The paper's runtime consults the selection policy on *every* region
invocation; the scalar ``SelectionPolicy.select`` implementations — Python
loops re-scoring the whole version table per call — would dominate the cost
of a region call.  But every deterministic policy is a pure function
of (table metadata, policy parameters, runtime context), and the table is
frozen between recalibrations: the decision can be computed **once** and
replayed.

``policy.compile(table)`` folds a policy into a :class:`CompiledSelection`:

* context-free policies (weighted sum, fastest/most-efficient, explicit
  caps, floors, greenest) reduce to a score/feasibility vector over the
  table's cached :class:`~repro.runtime.version_table.VersionColumns` and a
  **single argmin at compile time** — per-call selection is returning a
  stored :class:`~repro.runtime.version_table.Version`;
* ``thread_cap`` with the cap read from the runtime context precomputes the
  prefix-best version per distinct thread count, so a call is one dict get
  plus a binary search — no per-call rescoring.

Tie-breaking matches the scalar path exactly (``min`` keeps the first
minimum in table order; ``argmin`` does the same), and the scalar
implementations stay in-tree as the differential oracle: for every policy
registered in ``policy_by_name`` the compiled and per-call selection
sequences must be identical (asserted by ``TestCompiledOracle`` in
``tests/test_runtime.py``).
Learning policies (:class:`~repro.runtime.online.BanditSelector`) are
stateful and do not compile — ``compile_policy`` returns ``None`` and
callers fall back to the per-call path.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from repro.runtime.version_table import Version, VersionTable

__all__ = [
    "CompiledSelection",
    "FixedSelection",
    "ThreadCapSelection",
    "compile_policy",
    "masked_argmin",
]


def masked_argmin(scores: np.ndarray, feasible: np.ndarray | None = None) -> int | None:
    """Position of the smallest score among feasible rows.

    First minimum wins — the same tie-break as ``min()`` over versions in
    table order.  Returns ``None`` when no row is feasible.
    """
    s = np.asarray(scores, dtype=float)
    if feasible is not None:
        if not feasible.any():
            return None
        s = np.where(feasible, s, np.inf)
    return int(np.argmin(s))


class CompiledSelection:
    """One (policy, table) pair frozen into constant-time selection."""

    #: whether the decision ignores the runtime context entirely
    context_free = True

    def select(self, context: dict | None = None) -> Version:
        raise NotImplementedError


@dataclass(frozen=True)
class FixedSelection(CompiledSelection):
    """A context-free policy: the argmin was taken at compile time."""

    version: Version

    def select(self, context: dict | None = None) -> Version:
        return self.version


class ThreadCapSelection(CompiledSelection):
    """``thread_cap`` with the core budget read from the runtime context.

    Compile time sorts the versions by thread count and records the
    prefix-best (fastest, first-in-table on ties) version per distinct
    count; a call binary-searches ``context['available_cores']`` into the
    thresholds.  Caps below every version fall back to the version with the
    fewest threads — the scalar policy's rule.
    """

    context_free = False

    def __init__(self, table: VersionTable) -> None:
        cols = table.columns()
        threads, times = cols.threads, cols.times
        thresholds: list[int] = []
        winners: list[int] = []
        best: tuple[float, int] | None = None
        for pos in np.argsort(threads, kind="stable"):
            pos = int(pos)
            if (
                best is None
                or times[pos] < best[0]
                or (times[pos] == best[0] and pos < best[1])
            ):
                best = (float(times[pos]), pos)
            count = int(threads[pos])
            if thresholds and thresholds[-1] == count:
                winners[-1] = best[1]
            else:
                thresholds.append(count)
                winners.append(best[1])
        self._thresholds = thresholds
        self._winners = [table.versions[i] for i in winners]
        self._smallest = table.versions[masked_argmin(threads)]
        self._default_cap = thresholds[-1]

    def select(self, context: dict | None = None) -> Version:
        cap = int((context or {}).get("available_cores", self._default_cap))
        i = bisect_right(self._thresholds, cap)
        if i == 0:
            return self._smallest
        return self._winners[i - 1]


def compile_policy(policy, table: VersionTable) -> CompiledSelection | None:
    """Compile *policy* against *table*, or ``None`` when the policy is
    stateful/unknown and must stay on the per-call path."""
    compiler = getattr(policy, "compile", None)
    if compiler is None:
        return None
    return compiler(table)
