"""Shared utilities: deterministic RNG handling, statistics, table formatting."""

from repro._lazy import lazy_exports

# name -> submodule, imported on first access
_EXPORTS = {
    "derive_rng": "rng",
    "spawn_seed": "rng",
    "median": "stats",
    "mean": "stats",
    "geomean": "stats",
    "relative_loss": "stats",
    "Table": "tables",
}

__all__ = list(_EXPORTS)

__getattr__ = lazy_exports(__name__, _EXPORTS)
