"""Static kernel features.

The Insieme infrastructure supports "automatic evaluation of static and
dynamic program features to be used in program analysis and optimization".
This module computes the static features consumed downstream:

* floating-point operation counts per innermost iteration and in total,
* per-array data footprints,
* computation/memory complexity classes (paper Table IV),
* per-reference stream descriptors (stride of the innermost dimension per
  loop variable) used by the machine cost model.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.polyhedral import AccessFunction, access_functions, iteration_domain
from repro.analysis.regions import TunableRegion
from repro.ir.nodes import BinOp, Call, Function, UnOp
from repro.ir.types import ArrayType
from repro.ir.visitors import collect

__all__ = ["KernelFeatures", "analyze_features", "count_flops_per_iteration"]

#: flop cost of intrinsic calls (sqrt-class ops count as several flops)
_INTRINSIC_FLOPS = {
    "sqrt": 6,
    "rsqrt": 6,
    "rsqrt3": 8,
    "exp": 10,
    "log": 10,
    "min": 1,
    "max": 1,
}


def count_flops_per_iteration(region: TunableRegion) -> int:
    """Floating-point operations executed per innermost-loop iteration.

    Counts value arithmetic only: subscript expressions are address
    computation, and structurally identical subtrees are counted once (a
    compiler would CSE the repeated differences in e.g. n-body)."""
    from repro.ir.nodes import ArrayRef, Assign
    from repro.ir.visitors import perfect_nest

    _, inner = perfect_nest(region.nest)
    seen: set[object] = set()
    flops = 0

    def visit(expr: object) -> None:
        nonlocal flops
        if isinstance(expr, ArrayRef):
            return
        if isinstance(expr, (BinOp, UnOp, Call)) and expr not in seen:
            seen.add(expr)
            flops += _INTRINSIC_FLOPS.get(expr.fn, 4) if isinstance(expr, Call) else 1
        for child in expr.children():  # type: ignore[union-attr]
            visit(child)

    for assign in collect(inner, Assign):
        assert isinstance(assign, Assign)
        visit(assign.value)
    return flops


@dataclass(frozen=True)
class KernelFeatures:
    """Static summary of one tunable region.

    :param flops_per_iteration: arithmetic per innermost iteration.
    :param total_iterations: product of all trip counts (with sizes bound).
    :param sweep_factor: repetitions contributed by enclosing sweep loops.
    :param footprint_bytes: per-array byte footprints.
    :param accesses: affine access functions of the region.
    """

    region_name: str
    flops_per_iteration: int
    total_iterations: int
    sweep_factor: int
    footprint_bytes: dict[str, int]
    accesses: tuple[AccessFunction, ...]

    @property
    def total_flops(self) -> int:
        return self.flops_per_iteration * self.total_iterations * self.sweep_factor

    @property
    def total_footprint(self) -> int:
        return sum(self.footprint_bytes.values())


def analyze_features(region: TunableRegion, bindings: dict[str, int]) -> KernelFeatures:
    """Compute :class:`KernelFeatures` for *region* with problem sizes bound.

    ``bindings`` must cover all symbolic array extents and loop bounds (and
    sweep-loop bounds, e.g. ``T`` for jacobi-2d)."""
    fn = region.function
    footprints: dict[str, int] = {}
    arrays = fn.arrays
    accesses = tuple(access_functions(region.nest))
    for acc in accesses:
        at = arrays.get(acc.array)
        if at is None:
            continue
        footprints[acc.array] = at.byte_size(bindings)

    sweep_factor = 1
    for sweep_var in region.sweep_loops:
        sweep_factor *= _sweep_trip(fn, sweep_var, bindings)

    return KernelFeatures(
        region_name=region.name,
        flops_per_iteration=count_flops_per_iteration(region),
        total_iterations=region.domain.size(bindings),
        sweep_factor=sweep_factor,
        footprint_bytes=footprints,
        accesses=accesses,
    )


def _sweep_trip(fn: Function, var: str, bindings: dict[str, int]) -> int:
    """Trip count of the named sweep loop found anywhere in *fn*."""
    from repro.ir.nodes import For
    from repro.analysis.polyhedral import affine_of

    for node in collect(fn.body, For):
        assert isinstance(node, For)
        if node.var == var:
            lo = affine_of(node.lower)
            hi = affine_of(node.upper)
            step = affine_of(node.step)
            if lo is None or hi is None or step is None or not step.is_constant():
                raise ValueError(f"sweep loop {var!r} has non-affine bounds")
            return max(0, -(-(hi.evaluate(bindings) - lo.evaluate(bindings)) // step.const))
    raise KeyError(f"sweep loop {var!r} not found in function {fn.name!r}")
