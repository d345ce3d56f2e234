"""The in-process version table.

Mirrors the statically generated C table (paper Fig. 6): one entry per
Pareto-optimal code version, carrying the callable (from
:mod:`repro.backend.pygen`) and the trade-off metadata the selection
policies consult.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from repro.backend.meta import VersionMeta

__all__ = ["Version", "VersionColumns", "VersionTable"]


@dataclass(frozen=True)
class Version:
    """One executable code version with its metadata."""

    meta: VersionMeta
    fn: Callable[[dict[str, np.ndarray], dict[str, int]], None] | None = None

    def __call__(self, arrays: dict[str, np.ndarray], scalars: dict[str, int]) -> None:
        if self.fn is None:
            raise RuntimeError(
                f"version {self.meta.index} has no executable body "
                "(metadata-only table)"
            )
        self.fn(arrays, scalars)


@dataclass(frozen=True)
class VersionColumns:
    """The table's metadata as column vectors (version-table order).

    The frozen, dictionary-free view the precompiled selection path scores
    against: one float64 vector per objective, ``np.nan`` marking versions
    without energy metadata.  Arrays are read-only — they are shared by
    every compiled policy of the owning table.
    """

    indices: np.ndarray
    times: np.ndarray
    resources: np.ndarray
    threads: np.ndarray
    energies: np.ndarray

    @classmethod
    def of(cls, versions: tuple[Version, ...]) -> "VersionColumns":
        cols = cls(
            indices=np.array([v.meta.index for v in versions], dtype=np.int64),
            times=np.array([v.meta.time for v in versions], dtype=float),
            resources=np.array([v.meta.resources for v in versions], dtype=float),
            threads=np.array([v.meta.threads for v in versions], dtype=np.int64),
            energies=np.array(
                [
                    np.nan if v.meta.energy is None else v.meta.energy
                    for v in versions
                ],
                dtype=float,
            ),
        )
        for arr in (cols.indices, cols.times, cols.resources, cols.threads,
                    cols.energies):
            arr.setflags(write=False)
        return cols

    @property
    def has_energy(self) -> np.ndarray:
        return ~np.isnan(self.energies)


@dataclass
class VersionTable:
    """All versions of one tuned region, ordered by index.

    The ``versions`` tuple is treated as frozen: :meth:`columns` is computed
    once and cached against the tuple's identity, so per-call consumers (the
    precompiled selection path scores every policy against it) never rebuild
    arrays.  Replacing ``versions`` — the executor's ``recalibrate`` builds a
    whole new table — invalidates the cache automatically.
    """

    region_name: str
    versions: tuple[Version, ...] = field(default=())

    def __post_init__(self) -> None:
        if not self.versions:
            raise ValueError("a version table needs at least one version")
        indices = [v.meta.index for v in self.versions]
        if indices != sorted(set(indices)):
            raise ValueError(f"version indices must be unique and sorted: {indices}")
        self._columns_for: tuple[Version, ...] | None = None
        self._columns: VersionColumns | None = None

    def __len__(self) -> int:
        return len(self.versions)

    def __iter__(self):
        return iter(self.versions)

    def __getitem__(self, index: int) -> Version:
        for v in self.versions:
            if v.meta.index == index:
                return v
        raise IndexError(f"no version with index {index}")

    @property
    def metas(self) -> list[VersionMeta]:
        return [v.meta for v in self.versions]

    def pareto_summary(self) -> str:
        return "\n".join(v.meta.describe() for v in self.versions)

    def fastest(self) -> Version:
        return min(self.versions, key=lambda v: v.meta.time)

    def most_efficient(self) -> Version:
        return min(self.versions, key=lambda v: v.meta.resources)

    # -- frozen column cache ---------------------------------------------

    def columns(self) -> VersionColumns:
        """Cached read-only metadata vectors (see :class:`VersionColumns`),
        rebuilt when the ``versions`` tuple was swapped."""
        if self._columns_for is not self.versions:
            self._columns = VersionColumns.of(self.versions)
            self._columns_for = self.versions
        return self._columns
