"""Transformation skeletons: parametric transformation sequences per region.

Paper §III-A: "the analyzer determines a set of transformation skeletons
which describe generic sequences of code transformations using unbound
parameters for tunable properties (e.g. tile sizes, unrolling factors or
number of threads)".

A :class:`TransformationSkeleton` binds a region to the sequence

    tile(band, t_1..t_n) → collapse(outer 2 tile loops) → parallelize(threads)
    [→ unroll(innermost, u)]

with the tile sizes, thread count and (optionally) the unroll factor left as
:class:`Parameter`\\ s.  :meth:`TransformationSkeleton.instantiate` turns a
concrete parameter assignment into a :class:`TransformedRegion` — the IR the
backend turns into one code version.
"""

from __future__ import annotations

from dataclasses import dataclass, replace as dc_replace

from repro.analysis.regions import TunableRegion
from repro.ir.nodes import Block, For, Function, Stmt
from repro.transform.collapse import collapse
from repro.transform.parallelize import parallelize
from repro.transform.splice import replace_at_path
from repro.transform.tiling import tile, tile_var
from repro.transform.unroll import unroll


def _parallelize_inner(nest: For, target_var: str, threads: int) -> For:
    """Mark the descendant loop named *target_var* parallel."""
    from repro.ir.visitors import transform as ir_transform

    found = False

    def mark(node):
        nonlocal found
        if isinstance(node, For) and node.var == target_var:
            found = True
            return parallelize(node, threads)
        return None

    out = ir_transform(nest, mark)
    if not found:
        raise ValueError(f"no loop named {target_var!r} to parallelize")
    assert isinstance(out, For)
    return out

__all__ = ["Parameter", "TransformationSkeleton", "TransformedRegion", "default_skeleton"]


@dataclass(frozen=True)
class Parameter:
    """One unbound tuning parameter.

    :param name: e.g. ``tile_i`` or ``threads``.
    :param lo: inclusive lower bound.
    :param hi: inclusive upper bound.
    :param choices: when non-empty, the parameter is categorical over these
        values and ``lo``/``hi`` are ignored for sampling (but retained as
        the numeric envelope for the rough-set boundary logic).
    """

    name: str
    lo: int
    hi: int
    choices: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if not self.choices and self.lo > self.hi:
            raise ValueError(f"parameter {self.name!r}: lo {self.lo} > hi {self.hi}")
        if self.choices and list(self.choices) != sorted(set(self.choices)):
            raise ValueError(f"parameter {self.name!r}: choices must be sorted unique")

    @property
    def is_categorical(self) -> bool:
        return bool(self.choices)

    def clamp(self, value: float) -> int:
        """Snap a (possibly fractional, out-of-range) value into the domain."""
        if self.choices:
            return min(self.choices, key=lambda c: abs(c - value))
        return int(min(max(round(value), self.lo), self.hi))

    def span(self) -> tuple[int, int]:
        if self.choices:
            return self.choices[0], self.choices[-1]
        return self.lo, self.hi


@dataclass(frozen=True)
class TransformedRegion:
    """The result of instantiating a skeleton: transformed IR + metadata."""

    region: TunableRegion
    nest: For
    values: tuple[tuple[str, int], ...]
    tile_sizes: tuple[tuple[str, int], ...]
    num_threads: int
    collapsed: int
    unroll_factor: int = 1

    def value(self, name: str) -> int:
        return dict(self.values)[name]

    def apply(self) -> Function:
        """The whole kernel function with the transformed nest spliced in."""
        return replace_at_path(self.region.function, self.region.path, self.nest)


@dataclass(frozen=True)
class TransformationSkeleton:
    """A parametric transformation recipe for one region.

    :param tile_band: the loops whose tile sizes are parameters (any subset
        of the region's tilable band — n-body tiles only its reduction
        dimension ``j``).
    :param collapse_outer: how many outermost tile loops to coalesce into
        the worksharing loop; 0/1 disables collapsing.  Must only cover
        parallelizable dimensions (collapsing a reduction dimension into a
        parallel loop would race on the accumulator).
    :param parallel_var: the loop variable carrying the parallelism when no
        collapse happens — either a tiled var (its *tile* loop is marked)
        or an untiled one (its original loop is marked, e.g. n-body's
        ``i`` inside the hoisted ``j`` tile loop).
    """

    region: TunableRegion
    parameters: tuple[Parameter, ...]
    tile_band: tuple[str, ...]
    collapse_outer: int = 2
    parallel: bool = True
    parallel_var: str | None = None
    unrollable: bool = False

    def parallel_spec(self) -> tuple[str, object]:
        """How the instantiated code workshares — consumed by the cost
        model: ``("collapse", n)``, ``("tile", var)``, ``("point", var)``
        or ``("none", None)``."""
        if not self.parallel:
            return ("none", None)
        if self.collapse_outer >= 2 and len(self.tile_band) >= self.collapse_outer:
            return ("collapse", self.collapse_outer)
        pv = self.parallel_var or self.tile_band[0]
        if pv in self.tile_band:
            return ("tile", pv)
        return ("point", pv)

    def parameter(self, name: str) -> Parameter:
        for p in self.parameters:
            if p.name == name:
                return p
        raise KeyError(f"skeleton has no parameter {name!r}")

    @property
    def parameter_names(self) -> tuple[str, ...]:
        return tuple(p.name for p in self.parameters)

    def validate(self, values: dict[str, int]) -> None:
        for p in self.parameters:
            if p.name not in values:
                raise KeyError(f"missing value for parameter {p.name!r}")
            v = values[p.name]
            lo, hi = p.span()
            if p.is_categorical:
                if v not in p.choices:
                    raise ValueError(f"{p.name}={v} not in choices {p.choices}")
            elif not (lo <= v <= hi):
                raise ValueError(f"{p.name}={v} outside [{lo}, {hi}]")

    def instantiate(self, values: dict[str, int]) -> TransformedRegion:
        """Apply the transformation sequence with concrete parameter values."""
        self.validate(values)
        tile_sizes = {v: int(values[f"tile_{v}"]) for v in self.tile_band}
        nest = tile(self.region.nest, tile_sizes)  # type: ignore[arg-type]

        collapsed = 0
        if self.collapse_outer >= 2 and len(self.tile_band) >= self.collapse_outer:
            nest = collapse(nest, self.collapse_outer)
            collapsed = self.collapse_outer

        threads = int(values.get("threads", 1))
        if self.parallel:
            kind, pv = self.parallel_spec()
            if kind in ("collapse",) or pv is None:
                nest = parallelize(nest, threads)
            else:
                target = tile_var(pv) if kind == "tile" else pv
                if nest.var == target:
                    nest = parallelize(nest, threads)
                else:
                    nest = _parallelize_inner(nest, str(target), threads)

        unroll_factor = int(values.get("unroll", 1))
        if self.unrollable and unroll_factor > 1:
            nest = _unroll_innermost(nest, unroll_factor)

        return TransformedRegion(
            region=self.region,
            nest=nest,
            values=tuple(sorted(values.items())),
            tile_sizes=tuple(sorted(tile_sizes.items())),
            num_threads=threads,
            collapsed=collapsed,
            unroll_factor=unroll_factor,
        )


def _unroll_innermost(nest: For, factor: int) -> For:
    """Unroll the innermost loop of the (tiled) nest in place."""

    def go(stmt: Stmt) -> Stmt:
        if isinstance(stmt, For):
            inner_fors = [s for s in stmt.body.stmts if isinstance(s, For)] if isinstance(stmt.body, Block) else []
            if isinstance(stmt.body, Block) and len(stmt.body.stmts) == 1 and inner_fors:
                new_inner = go(stmt.body.stmts[0])
                body = new_inner if isinstance(new_inner, Block) else Block((new_inner,))
                return dc_replace(stmt, body=body)
            return unroll(stmt, factor)  # type: ignore[return-value]
        return stmt

    result = go(nest)
    assert isinstance(result, For)
    return result


def default_skeleton(
    region: TunableRegion,
    bindings: dict[str, int],
    max_threads: int,
    thread_choices: tuple[int, ...] = (),
    tile_upper: dict[str, int] | None = None,
    with_unroll: bool = False,
    band: tuple[str, ...] | None = None,
) -> TransformationSkeleton:
    """The paper's default recipe for a region.

    Tile-size upper bounds default to half the loop extent ("larger tile
    sizes clearly have little potential to dominate smaller tile sizes",
    §V-B3); the thread-count bound comes from the target machine.  Both
    restrictions "could easily be extracted statically from the targeted
    region and platform".

    Collapsing covers the outermost two tile loops only when both are
    parallelizable ("tiled and optionally collapsed, without sacrificing
    the possibility of parallelizing the resulting loop", §IV) — for a
    reduction like n-body the collapse is skipped and the parallel loop is
    the outermost parallelizable one instead.

    :param band: restrict tiling to a subset of the region's tilable band
        (must be contained in it).
    """
    full_band = region.tile_band
    if not full_band:
        raise ValueError(f"region {region.name} has no tilable band")
    if band is None:
        band = full_band
    else:
        invalid = [v for v in band if v not in full_band]
        if invalid:
            raise ValueError(
                f"loops {invalid} are outside the tilable band {full_band}"
            )
    params: list[Parameter] = []
    for v in band:
        try:
            extent = region.domain.extent(v, bindings)
        except KeyError as exc:
            raise ValueError(
                f"loop {v!r} of region {region.name} has non-rectangular "
                f"bounds (depend on {exc.args[0]!r}); the default skeleton "
                "handles rectangular bands only"
            ) from None
        hi = max(1, extent // 2)
        if tile_upper and v in tile_upper:
            hi = max(1, min(hi, tile_upper[v]))
        params.append(Parameter(name=f"tile_{v}", lo=1, hi=hi))
    parallel_var = region.parallel_candidate()
    if parallel_var is not None:
        if thread_choices:
            lo, hi = min(thread_choices), max(thread_choices)
            params.append(Parameter(name="threads", lo=lo, hi=hi, choices=tuple(sorted(set(thread_choices)))))
        else:
            params.append(Parameter(name="threads", lo=1, hi=max_threads))
    if with_unroll:
        params.append(Parameter(name="unroll", lo=1, hi=8, choices=(1, 2, 4, 8)))
    parallelizable = set(region.parallelizable)
    can_collapse = (
        len(band) >= 2
        and parallel_var == band[0]
        and band[0] in parallelizable
        and band[1] in parallelizable
    )
    return TransformationSkeleton(
        region=region,
        parameters=tuple(params),
        tile_band=tuple(band),
        collapse_outer=2 if can_collapse else 0,
        parallel=parallel_var is not None,
        parallel_var=parallel_var,
        unrollable=with_unroll,
    )
