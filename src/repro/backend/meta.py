"""Version metadata: the trade-off information attached to each generated
code version (paper Fig. 6: "function pointers enriched with meta-information
comprising specific properties of the individual versions").
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["VersionMeta"]


@dataclass(frozen=True)
class VersionMeta:
    """Trade-off metadata of one code version.

    :param index: position in the version table.
    :param time: measured (or predicted) region wall time, seconds.
    :param resources: cpu-seconds (threads × time).
    :param threads: thread count the version was tuned for.
    :param tile_sizes: fixed tile sizes of the version.
    :param values: the full parameter assignment.
    :param energy: measured joules per invocation when the tuning run
        included the energy objective; ``None`` otherwise.
    """

    index: int
    time: float
    resources: float
    threads: int
    tile_sizes: tuple[tuple[str, int], ...]
    values: tuple[tuple[str, int], ...] = field(default=())
    energy: float | None = None

    def objective(self, weights: tuple[float, float]) -> float:
        """Weighted-sum score Σ w_c f_c(v) used by the runtime's default
        selection policy (paper §IV)."""
        return weights[0] * self.time + weights[1] * self.resources

    def describe(self) -> str:
        tiles = ",".join(f"{k}={v}" for k, v in self.tile_sizes)
        return (
            f"v{self.index}: threads={self.threads} tiles[{tiles}] "
            f"t={self.time:.4g}s r={self.resources:.4g}cpu-s"
        )
