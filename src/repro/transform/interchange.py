"""Loop permutation (generalized interchange) on perfect nests.

Legality is the caller's: :func:`repro.optimizer.skeleton_choice.legal_loop_orders`
keeps only the orders under which no dependence turns lexicographically
negative.
"""

from __future__ import annotations

from repro.ir.nodes import Block, For, Stmt
from repro.ir.visitors import perfect_nest

__all__ = ["permute"]


def permute(nest_root: For, new_order: list[str]) -> For:
    """Rebuild the perfect nest with loops in *new_order* (outermost first).

    Bounds must be invariant to the permuted band (rectangular nests), which
    the kernels in scope satisfy; violated invariance raises ``ValueError``.
    """
    loops, body = perfect_nest(nest_root)
    by_var = {lp.var: lp for lp in loops}
    if sorted(new_order) != sorted(by_var):
        raise ValueError(
            f"permutation {new_order} does not match nest loops {sorted(by_var)}"
        )
    from repro.ir.visitors import free_vars

    band = set(new_order)
    for lp in loops:
        bound_free = free_vars(lp.lower) | free_vars(lp.upper) | free_vars(lp.step)
        if bound_free & band:
            raise ValueError(
                f"cannot permute: bounds of {lp.var!r} depend on band loops"
            )

    inner: Stmt = body if isinstance(body, Block) else Block((body,))
    for var in reversed(new_order):
        lp = by_var[var]
        inner = For(
            var=lp.var,
            lower=lp.lower,
            upper=lp.upper,
            step=lp.step,
            body=inner if isinstance(inner, Block) else Block((inner,)),
            parallel=lp.parallel,
            annotations=lp.annotations,
        )
    assert isinstance(inner, For)
    return inner
