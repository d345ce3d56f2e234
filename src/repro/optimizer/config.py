"""Configurations: parameter assignments with measured objectives."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["Configuration", "value_matrix", "objective_matrix"]


@dataclass(frozen=True)
class Configuration:
    """One evaluated point of the search space.

    :param values: sorted (name, value) pairs — tile sizes, thread count,
        flags — everything "modeled uniformly" as the paper puts it.
    :param objectives: measured objective vector (minimization).
    """

    values: tuple[tuple[str, int], ...]
    objectives: tuple[float, ...]

    @staticmethod
    def make(values: dict[str, int], objectives: tuple[float, ...] | list[float]) -> "Configuration":
        return Configuration(
            values=tuple(sorted((k, int(v)) for k, v in values.items())),
            objectives=tuple(float(x) for x in objectives),
        )

    def value(self, name: str) -> int:
        for k, v in self.values:
            if k == name:
                return v
        raise KeyError(f"configuration has no parameter {name!r}")

    def as_dict(self) -> dict[str, int]:
        return dict(self.values)

    def vector(self, names: list[str] | tuple[str, ...]) -> np.ndarray:
        d = self.as_dict()
        return np.array([d[n] for n in names], dtype=float)

    @property
    def time(self) -> float:
        """First objective (wall time by convention)."""
        return self.objectives[0]

    @property
    def resources(self) -> float:
        """Second objective (threads × time by convention)."""
        return self.objectives[1]


def value_matrix(
    configs: list[Configuration], names: list[str] | tuple[str, ...]
) -> np.ndarray:
    """(N, dim) float matrix of *configs*' values in *names* order.

    Every configuration stores its values sorted by name, and every
    configuration of a problem carries exactly its space's parameters, so
    one fixed column permutation maps the flat ``values`` stream onto the
    matrix — one ``np.fromiter`` pass instead of a
    :meth:`Configuration.vector` dict per member.

    :raises ValueError: when a configuration carries other parameters.
    """
    dim = len(names)
    if not configs:
        return np.empty((0, dim))
    key_order = tuple(sorted(names))
    keys, values = zip(*[kv for c in configs for kv in c.values])
    if keys != key_order * len(configs):
        raise ValueError(f"configurations do not all carry exactly {sorted(names)}")
    flat = np.fromiter(values, dtype=float, count=len(values))
    column = {k: pos for pos, k in enumerate(key_order)}
    return flat.reshape(len(configs), dim)[:, [column[n] for n in names]]


def objective_matrix(configs: list[Configuration]) -> np.ndarray:
    """(N, m) objective array of *configs* — np.fromiter over a flat
    generator skips np.array's per-tuple inspection, which matters in
    the per-generation selection hot loop."""
    if not configs:
        return np.empty((0, 2))
    m = len(configs[0].objectives)
    flat = np.fromiter(
        (x for c in configs for x in c.objectives),
        dtype=float,
        count=len(configs) * m,
    )
    return flat.reshape(len(configs), m)
