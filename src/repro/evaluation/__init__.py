"""Evaluation substrate: turning configurations into measurements.

The paper evaluates configurations by generating, compiling and running code
variants on the target machine (§III-A, label 3).  Here the target machines
are simulated: :mod:`repro.evaluation.cost` predicts the execution time of a
tiled, parallelized region on a :class:`~repro.machine.model.MachineModel`
from first principles (cache-capacity-driven traffic, bandwidth saturation,
load imbalance, parallel overheads), :mod:`repro.evaluation.simulator` adds
measurement noise and the median-of-k protocol the paper uses, and
:mod:`repro.evaluation.parallel_eval` provides the parallel, fault-tolerant
:class:`~repro.evaluation.parallel_eval.EvaluationEngine` that evaluates
configuration batches the way the paper's optimizer does ("multiple
independent configurations are generated, compiled and ... evaluated in
parallel") while keeping the ledger exact under concurrency.
"""

from repro._lazy import lazy_exports

# name -> submodule, imported on first access
_EXPORTS = {
    "RegionCostModel": "cost",
    "DEFAULT_CACHE_DIR": "disk_cache",
    "MeasurementDiskCache": "disk_cache",
    "Measurement": "measurements",
    "MeasurementProtocol": "measurements",
    "SimulatedTarget": "simulator",
    "BatchResult": "parallel_eval",
    "EngineStats": "parallel_eval",
    "EvaluationEngine": "parallel_eval",
    "FaultPolicy": "parallel_eval",
    "FlakyFaultPolicy": "parallel_eval",
    "auto_workers": "parallel_eval",
    "Objectives": "objectives",
    "efficiency": "objectives",
    "resource_usage": "objectives",
    "speedup": "objectives",
}

__all__ = list(_EXPORTS)

__getattr__ = lazy_exports(__name__, _EXPORTS)
