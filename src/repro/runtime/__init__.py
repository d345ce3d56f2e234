"""Runtime system: dynamic selection among generated code versions.

The paper's runtime (Fig. 3, label 6) receives multi-versioned regions and
"dynamically selects among the available code versions" using configurable,
application-specific policies — the default being the weighted-sum rule of
§IV (select the version minimizing ``Σ_c w_c f_c(v)``).

* :mod:`repro.runtime.version_table` — the in-process version table,
* :mod:`repro.runtime.selection` — selection policies,
* :mod:`repro.runtime.scheduler` — region executor with dynamic
  re-selection on context changes (available cores, energy budgets),
* :mod:`repro.runtime.monitor` — execution history and system state,
* :mod:`repro.runtime.compiled` — deterministic policies folded into
  constant-time precompiled selections.
"""

from repro._lazy import lazy_exports

# name -> submodule, imported on first access
_EXPORTS = {
    "Version": "version_table",
    "VersionColumns": "version_table",
    "VersionTable": "version_table",
    "EfficiencyFloorPolicy": "selection",
    "EnergyCapPolicy": "selection",
    "FastestPolicy": "selection",
    "GreenestPolicy": "selection",
    "MostEfficientPolicy": "selection",
    "SelectionPolicy": "selection",
    "ThreadCapPolicy": "selection",
    "TimeCapPolicy": "selection",
    "WeightedSumPolicy": "selection",
    "policy_by_name": "selection",
    "CompiledSelection": "compiled",
    "FixedSelection": "compiled",
    "ThreadCapSelection": "compiled",
    "compile_policy": "compiled",
    "RegionExecutor": "scheduler",
    "BanditSelector": "online",
    "ExecutionRecord": "monitor",
    "RuntimeMonitor": "monitor",
}

__all__ = list(_EXPORTS)

__getattr__ = lazy_exports(__name__, _EXPORTS)
