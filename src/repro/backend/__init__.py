"""Code generation backends.

The paper's backend (Fig. 3, label 5) outlines each tuned region into a
function, generates one specialized variant per Pareto-optimal configuration
and embeds a statically generated table of function pointers enriched with
trade-off metadata (Fig. 6).

* :mod:`repro.backend.cgen` — C + OpenMP source from IR functions,
* :mod:`repro.backend.multiversion` — the multi-versioned C translation
  unit with the version table,
* :mod:`repro.backend.pygen` — executable Python functions compiled from
  IR (used by the runtime system and the examples to really run versions),
* :mod:`repro.backend.meta` — version metadata records shared between the
  backends and the runtime.
"""

from repro._lazy import lazy_exports

# name -> submodule, imported on first access
_EXPORTS = {
    "function_to_c": "cgen",
    "VersionMeta": "meta",
    "MultiVersionUnit": "multiversion",
    "build_multiversion_c": "multiversion",
    "ParameterizedUnit": "parameterized",
    "build_parameterized_c": "parameterized",
    "compile_function": "pygen",
}

__all__ = list(_EXPORTS)

__getattr__ = lazy_exports(__name__, _EXPORTS)
