"""Per-generation optimizer telemetry.

The paper's evidence is *trajectories*: hypervolume V(S) and Pareto-set
size |S| as functions of the evaluation count E (Tables VI–VIII, Figs.
4–5).  A :class:`ConvergenceRecord` captures one point of that curve —
every optimizer emits one per generation (or per batch for the
non-generational strategies), both onto its
:class:`~repro.optimizer.rsgde3.OptimizerResult` and, when tracing is
enabled, as ``optimizer.generation`` events in the trace.

Records are derived exclusively from the deterministic evaluation ledger,
so a trajectory is bit-identical across evaluation-engine worker counts.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

__all__ = ["ConvergenceRecord", "population_delta", "emit_generation"]


@dataclass(frozen=True)
class ConvergenceRecord:
    """One point of the V-vs-E convergence trajectory.

    :param generation: 0 for the initial population, then 1, 2, ...
    :param evaluations: cumulative E spent by this run so far.
    :param front_size: |S| — size of the population's non-dominated front.
    :param hypervolume: V of the population front against the run's fixed
        reference point (established from the initial population).
    :param accepted: configurations that entered the population this
        generation (trial vectors that survived selection).
    :param dominated: previous members displaced this generation.
    """

    generation: int
    evaluations: int
    front_size: int
    hypervolume: float
    accepted: int = 0
    dominated: int = 0

    def as_dict(self) -> dict:
        return asdict(self)

    @staticmethod
    def from_dict(d: dict) -> "ConvergenceRecord":
        return ConvergenceRecord(
            generation=int(d["generation"]),
            evaluations=int(d["evaluations"]),
            front_size=int(d["front_size"]),
            hypervolume=float(d["hypervolume"]),
            accepted=int(d.get("accepted", 0)),
            dominated=int(d.get("dominated", 0)),
        )


def emit_generation(obs, algorithm: str, record: ConvergenceRecord) -> None:
    """Publish one convergence point as an ``optimizer.generation`` trace
    event, from which the optimizer metrics are folded (*obs* is an
    :class:`~repro.obs.Observability` handle; duck-typed to avoid the
    circular import)."""
    if obs.tracer.enabled:
        obs.tracer.event(
            "optimizer.generation", algorithm=algorithm, **record.as_dict()
        )


def population_delta(before, after) -> tuple[int, int]:
    """(accepted, dominated) between two populations of configurations.

    Membership is by parameter assignment (``Configuration.values``):
    *accepted* counts members of *after* not present in *before*,
    *dominated* counts members of *before* that were displaced.
    """
    old = {c.values for c in before}
    new = {c.values for c in after}
    return len(new - old), len(old - new)
