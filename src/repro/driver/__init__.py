"""End-to-end compiler driver (the workflow of the paper's Fig. 3)."""

from repro.driver.compiler import TunedKernel, TuningDriver

__all__ = ["TuningDriver", "TunedKernel"]
