"""Objective definitions for the multi-objective tuning problem.

The paper optimizes each region for **execution time** and **parallel
efficiency** simultaneously.  Efficiency `e(x) = s(x)/x` is a monotone
transform of **resource usage** ``x · t_p(x)`` (cpu-seconds), which is the
quantity shown on the axes of Fig. 8/9 ("resource usage") — minimizing
(time, resources) is equivalent to maximizing (speedup, efficiency) and
keeps both objectives in minimization form for the solver.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["Objectives", "speedup", "efficiency", "resource_usage"]


@dataclass(frozen=True)
class Objectives:
    """One configuration's measured objective values.

    :param time: wall time of the region, seconds.
    :param threads: threads used (needed to derive efficiency/resources).
    :param energy: joules, when the target measures it (the paper's third
        example objective, §III-B1); ``None`` in the bi-objective setting.
    """

    time: float
    threads: int
    energy: float | None = None

    @property
    def resources(self) -> float:
        """CPU-seconds consumed: ``threads × time``."""
        return self.threads * self.time


def speedup(t_parallel: float, t_seq: float) -> float:
    """``s(x) = t_s / t_p(x)`` with ``t_s`` the fastest sequential version."""
    if t_parallel <= 0:
        raise ValueError("parallel time must be positive")
    return t_seq / t_parallel

def efficiency(t_parallel: float, threads: int, t_seq: float) -> float:
    """``e(x) = s(x) / x``."""
    if threads < 1:
        raise ValueError("threads must be >= 1")
    return speedup(t_parallel, t_seq) / threads


def resource_usage(t_parallel: float, threads: int) -> float:
    """CPU-seconds: ``x · t_p(x)``; relative resources in the paper's
    Table III are this quantity normalized by ``t_s``."""
    return threads * t_parallel
