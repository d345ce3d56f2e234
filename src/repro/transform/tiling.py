"""Loop tiling (strip-mine + interchange) on perfect nests.

``tile(nest, {"i": 32, "j": 288, "k": 9})`` rewrites

.. code-block:: none

    for i in [0,N): for j in [0,N): for k in [0,N): S(i,j,k)

into

.. code-block:: none

    for i_t in [0,N) step 32:
      for j_t in [0,N) step 288:
        for k_t in [0,N) step 9:
          for i in [i_t, min(i_t+32, N)):
            for j in [j_t, min(j_t+288, N)):
              for k in [k_t, min(k_t+9, N)): S(i,j,k)

Tile loops carry the annotation ``("tile_loop", var)``; point loops carry
``("point_loop", var)``.  Loops of the nest not named in the tile map stay in
place below the tile band (they are only strip-mined if requested).

Legality is the caller's responsibility (use
:func:`repro.analysis.dependence.tilable_band`); this module validates only
structural preconditions (perfect nest, unit steps, band is a nest prefix).
"""

from __future__ import annotations

from repro.ir.builder import block
from repro.ir.nodes import Block, Expr, For, IntLit, Max, Min, Stmt, Var, as_expr
from repro.ir.visitors import free_vars, loop_nest, perfect_nest

__all__ = ["tile", "tile_var"]


def tile_var(var: str) -> str:
    """Name of the tile loop iterating tile origins of *var*."""
    return f"{var}_t"


def tile(nest_root: For, tile_sizes: dict[str, int | str]) -> For:
    """Tile the perfect nest at *nest_root* with the given per-loop sizes.

    :param tile_sizes: loop var → tile size.  An ``int`` produces a fixed
        size (multi-versioning); a ``str`` produces a symbolic size read
        from a variable of that name (parameterized tiling, cf. §IV's
        discussion of parameterization vs. multi-versioning).
    :raises ValueError: for structural violations (non-perfect nest, the
        tiled loops not forming a prefix of the nest, non-unit steps, a
        tiled loop whose bounds depend on other nest loops, or a
        non-positive fixed tile size).
    """
    loops, body = perfect_nest(nest_root)
    lvars = [lp.var for lp in loops]

    missing = [v for v in tile_sizes if v not in lvars]
    if missing:
        raise ValueError(f"tile sizes given for loops not in nest: {missing}")
    tiled = [v for v in lvars if v in tile_sizes]
    if not tiled:
        raise ValueError("no loops to tile")
    # Tiled loops need not be a nest prefix: tiling {'j'} of an (i, j) nest
    # hoists j's tile loop above i (cache blocking of a reduction dimension
    # with the parallel loop kept intact, as in blocked n-body).  Hoisting
    # is an interchange across the intervening loops, so every loop from
    # the outermost loop down to the innermost *tiled* one must belong to a
    # permutable band — the caller's responsibility, like band legality.
    for lp in loops:
        if not (isinstance(lp.step, IntLit) and lp.step.value == 1):
            raise ValueError(f"loop {lp.var!r} must have unit step to be tiled")
    for v in tiled:
        size = tile_sizes[v]
        if isinstance(size, int) and size < 1:
            raise ValueError(f"tile size for {v!r} must be >= 1, got {size}")

    by_var = {lp.var: lp for lp in loops}
    for v in tiled:
        lp = by_var[v]
        refs = (free_vars(lp.lower) | free_vars(lp.upper)) & by_var.keys()
        if refs:
            raise ValueError(
                f"cannot tile: bounds of {v!r} depend on nest loops {sorted(refs)}"
            )

    # inner loops in original nest order: tiled vars become point loops
    # within their tile, untiled loops stay as they are.  Point-loop bounds
    # are clamped on both ends (max with the loop's lower, min with its
    # upper).
    inner: Stmt = body if isinstance(body, Block) else Block((body,))
    for lp in reversed(loops):
        if lp.var in tile_sizes:
            size = _size_expr(tile_sizes[lp.var])
            origin = Var(tile_var(lp.var))
            inner = For(
                var=lp.var,
                lower=Max(origin, lp.lower),
                upper=Min(origin + size, lp.upper),
                step=IntLit(1),
                body=_as_block(inner),
                annotations=(("point_loop", lp.var),),
            )
        else:
            inner = For(lp.var, lp.lower, lp.upper, lp.step, _as_block(inner),
                        parallel=lp.parallel, annotations=lp.annotations)

    # outermost: tile loops, over the tiled loops' own bounds.
    out: Stmt = inner
    for v in reversed(tiled):
        lp = by_var[v]
        size = _size_expr(tile_sizes[v])
        out = For(
            var=tile_var(v),
            lower=lp.lower,
            upper=lp.upper,
            step=size,
            body=_as_block(out),
            annotations=(("tile_loop", v),),
        )
    assert isinstance(out, For)
    return out


def _size_expr(size: int | str) -> Expr:
    return Var(size) if isinstance(size, str) else as_expr(int(size))


def _as_block(stmt: Stmt) -> Block:
    return stmt if isinstance(stmt, Block) else Block((stmt,))
