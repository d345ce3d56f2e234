"""The measurement protocol.

Paper §V-B1: "Each of the resulting configurations has been evaluated
multiple times and the median of the collected execution times was used for
comparison."  :class:`MeasurementProtocol` reproduces that: k noisy samples,
median aggregation.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.evaluation.objectives import Objectives
from repro.util.stats import median

__all__ = ["Measurement", "MeasurementProtocol", "Row", "row_measurement", "row_objectives"]

#: One measured configuration as the engine, the evaluation ledger and the
#: disk cache share it, never mutated: ``(median time, samples, energy or
#: None)``, threads being the canonical key's last entry.  The read APIs
#: return :func:`row_objectives` and :func:`row_measurement` records.
Row = tuple[float, list[float], "float | None"]


def row_objectives(key: tuple, row: Row) -> Objectives:
    """The :class:`Objectives` of canonical *key* measured as *row*."""
    return Objectives(time=row[0], threads=key[-1], energy=row[2])


def row_measurement(row: Row) -> "Measurement":
    """The :class:`Measurement` (median and samples) of *row*."""
    return Measurement(value=row[0], samples=tuple(row[1]))


@dataclass(frozen=True)
class Measurement:
    """One aggregated measurement of a configuration."""

    value: float
    samples: tuple[float, ...]

    @property
    def repetitions(self) -> int:
        return len(self.samples)

    @property
    def spread(self) -> float:
        """Relative spread (max-min)/median — a quick noise indicator."""
        if not self.samples:
            return 0.0
        return (max(self.samples) - min(self.samples)) / self.value


@dataclass
class MeasurementProtocol:
    """Median-of-k sampling.

    :param repetitions: samples per configuration (the paper evaluates each
        configuration "multiple times"; 5 is our default).
    :param overhead_s: fixed wall-clock cost per measured configuration
        (seconds, slept by the simulated target).  Models the generate +
        compile + run latency of a real evaluation pipeline; the parallel
        evaluation engine benchmarks use it to exercise worker scaling.
    """

    repetitions: int = 5
    overhead_s: float = 0.0

    def __post_init__(self) -> None:
        if self.repetitions < 1:
            raise ValueError("repetitions must be >= 1")
        if self.overhead_s < 0:
            raise ValueError("overhead_s must be >= 0")

    def measure(self, sampler) -> Measurement:
        """Aggregate ``repetitions`` calls of ``sampler() -> float``."""
        samples = tuple(float(sampler()) for _ in range(self.repetitions))
        for s in samples:
            if s <= 0:
                raise ValueError(f"non-positive time sample {s}")
        return Measurement(value=median(samples), samples=samples)
