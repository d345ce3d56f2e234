"""Frozen reference formulation of runtime recalibration.

:func:`recalibrated` is ``RegionExecutor.recalibrate`` as it stood before
the monitor kept a per-region index of wall times: it scans the complete
execution history, keeps the records of the table's region and folds each
version's median back into its metadata.  It is a pure function of the
table and the records, kept as the exact differential oracle of the
indexed path::

    updated, table = recalibrated(executor.table, monitor.records(), 3)
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import replace

from repro.runtime.monitor import ExecutionRecord
from repro.runtime.version_table import VersionTable
from repro.util.stats import median


def recalibrated(
    table: VersionTable,
    records: Sequence[ExecutionRecord],
    min_samples: int = 3,
) -> tuple[int, VersionTable]:
    """``(updated count, new table)``; the table itself when nothing was
    updated."""
    samples: dict[int, list[float]] = {}
    for record in records:
        if record.region != table.region_name:
            continue
        samples.setdefault(record.version_index, []).append(record.wall_time)

    updated = 0
    new_versions = []
    for version in table:
        obs = samples.get(version.meta.index, [])
        if len(obs) >= min_samples:
            observed = median(obs)
            scale = observed / version.meta.time if version.meta.time > 0 else 1.0
            meta = replace(
                version.meta,
                time=observed,
                resources=observed * version.meta.threads,
                energy=None
                if version.meta.energy is None
                else version.meta.energy * scale,
            )
            new_versions.append(replace(version, meta=meta))
            updated += 1
        else:
            new_versions.append(version)
    if not updated:
        return 0, table
    return updated, VersionTable(
        region_name=table.region_name, versions=tuple(new_versions)
    )
