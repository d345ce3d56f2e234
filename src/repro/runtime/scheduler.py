"""Region execution with dynamic version selection.

The executor is the runtime-side endpoint of the paper's pipeline: region
invocations are delegated to it (label 6 in Fig. 3), it consults the
selection policy and the monitor's system context, runs the chosen version
and records the outcome.  Policies can be swapped and the context can change
between invocations — the "dynamically adjusting to changing circumstances"
of the abstract.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.backend.meta import VersionMeta
from repro.obs import DISABLED, Observability
from repro.runtime.compiled import CompiledSelection, compile_policy
from repro.runtime.monitor import RuntimeMonitor
from repro.runtime.selection import SelectionPolicy, WeightedSumPolicy
from repro.runtime.version_table import Version, VersionTable

__all__ = ["RegionExecutor"]


@dataclass
class RegionExecutor:
    """Executes a multi-versioned region under a selection policy.

    :param table: the region's version table.
    :param policy: selection policy (defaults to the paper's weighted sum
        with equal weights).
    :param monitor: shared runtime monitor; a private one is created when
        not supplied.  Its clock also times invocations.
    :param obs: observability handle — every decision becomes a
        ``runtime.selection`` event (policy, context, chosen version,
        predicted vs. actual time).

    Deterministic policies are compiled against the frozen table once and
    every subsequent decision replays the stored result; the cache is keyed
    on the identity of both the policy object and the table's versions
    tuple, so :meth:`set_policy` and :meth:`recalibrate` (which builds a new
    table) invalidate it without any explicit bookkeeping.
    """

    table: VersionTable
    policy: SelectionPolicy = field(default_factory=WeightedSumPolicy)
    monitor: RuntimeMonitor = field(default_factory=RuntimeMonitor)
    obs: Observability | None = None

    def __post_init__(self) -> None:
        self._compiled_policy: SelectionPolicy | None = None
        self._compiled_versions: tuple[Version, ...] | None = None
        self._compiled_selection: CompiledSelection | None = None

    def set_policy(self, policy: SelectionPolicy) -> None:
        self.policy = policy

    def compiled_selection(self) -> CompiledSelection | None:
        """The policy compiled against the current table (cached), or
        ``None`` when the policy is stateful."""
        if (
            self._compiled_policy is not self.policy
            or self._compiled_versions is not self.table.versions
        ):
            self._compiled_selection = compile_policy(self.policy, self.table)
            self._compiled_policy = self.policy
            self._compiled_versions = self.table.versions
        return self._compiled_selection

    def _select(self) -> Version:
        compiled = self.compiled_selection()
        if compiled is None:
            return self.policy.select(self.table, self.monitor.context())
        if compiled.context_free:
            return compiled.select()
        return compiled.select(self.monitor.context())

    def select(self) -> Version:
        """The version the current policy would pick right now."""
        version = self._select()
        tracer = (self.obs or DISABLED).tracer
        if tracer.enabled:
            self._emit_selection(tracer, version, wall_time=None)
        return version

    def execute(
        self,
        arrays: dict[str, np.ndarray],
        scalars: dict[str, int],
    ) -> Version:
        """Run the selected version on the given data; returns it."""
        version = self._select()
        clock = self.monitor.clock
        t0 = clock.perf()
        version(arrays, scalars)
        wall = clock.perf() - t0
        self.monitor.record(
            region=self.table.region_name,
            version_index=version.meta.index,
            threads=version.meta.threads,
            predicted_time=version.meta.time,
            wall_time=wall,
        )
        tracer = (self.obs or DISABLED).tracer
        if tracer.enabled:
            self._emit_selection(tracer, version, wall_time=wall)
        return version

    def _emit_selection(self, tracer, version: Version, wall_time: float | None) -> None:
        """Record one selection decision (actual time only when the version
        actually ran).  Callers skip it on a disabled tracer, so no
        attribute is built there."""
        tracer.event(
            "runtime.selection",
            region=self.table.region_name,
            policy=self.policy.describe(),
            context=self.monitor.context(),
            version=version.meta.index,
            threads=version.meta.threads,
            predicted_time=version.meta.time,
            actual_time=wall_time,
        )

    def recalibrate(self, min_samples: int = 3) -> int:
        """Fold observed wall times back into the version metadata.

        The static optimizer's times come from tuning-time measurement;
        production conditions drift ("dynamically adjusting to changing
        circumstances").  For every version with at least *min_samples*
        recorded executions of this region, its metadata time (and the
        derived resources/energy-proportional fields) is replaced by the
        observed median, so subsequent policy decisions reflect reality.

        The medians come from the monitor's sorted per-region index; a
        call with no update keeps the current table object.

        :returns: the number of versions whose metadata was updated.
        """
        if min_samples < 1:
            raise ValueError(f"min_samples must be at least 1, got {min_samples!r}")
        table = self.table
        medians = self.monitor.wall_medians(table.region_name)
        updated = 0
        new_versions = []
        for version in table.versions:
            meta = version.meta
            count, observed = medians.get(meta.index, (0, 0.0))
            if count < min_samples:
                new_versions.append(version)
                continue
            scale = observed / meta.time if meta.time > 0 else 1.0
            new_versions.append(Version(
                VersionMeta(
                    index=meta.index,
                    time=observed,
                    resources=observed * meta.threads,
                    threads=meta.threads,
                    tile_sizes=meta.tile_sizes,
                    values=meta.values,
                    energy=None if meta.energy is None else meta.energy * scale,
                ),
                version.fn,
            ))
            updated += 1
        if updated:
            self.table = VersionTable(
                region_name=table.region_name, versions=tuple(new_versions)
            )
        return updated
