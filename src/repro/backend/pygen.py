"""Python code generation: compile IR functions to executable callables.

The runtime system and the examples need versions they can *actually run*.
This backend translates an IR function into Python source (plain nested
loops, exact IR semantics) and ``compile()``s it.  Generated callables take
``(arrays: dict[str, np.ndarray], scalars: dict[str, int])`` and mutate the
arrays in place.

Parallel loops run as ordinary sequential loops: the callables exist to check
semantics and to give the runtime's versions a body, not to measure speed.
The generated code is validated against the reference interpreter in the
test suite.
"""

from __future__ import annotations

import math
from collections.abc import Callable

import numpy as np

from repro.ir.interp import INTRINSICS
from repro.ir.nodes import (
    ArrayRef,
    Assign,
    BinOp,
    Block,
    Call,
    Expr,
    FloatLit,
    For,
    Function,
    IntLit,
    Max,
    Min,
    Stmt,
    UnOp,
    Var,
)
from repro.ir.types import ArrayType

__all__ = ["compile_function", "function_to_python"]


def _expr(expr: Expr) -> str:
    if isinstance(expr, Var):
        return expr.name
    if isinstance(expr, IntLit):
        return str(expr.value)
    if isinstance(expr, FloatLit):
        return repr(expr.value)
    if isinstance(expr, ArrayRef):
        idx = ", ".join(_expr(i) for i in expr.indices)
        return f"{expr.array}[{idx}]"
    if isinstance(expr, BinOp):
        return f"({_expr(expr.lhs)} {expr.op} {_expr(expr.rhs)})"
    if isinstance(expr, UnOp):
        return f"({expr.op}{_expr(expr.operand)})"
    if isinstance(expr, Min):
        return f"min({_expr(expr.lhs)}, {_expr(expr.rhs)})"
    if isinstance(expr, Max):
        return f"max({_expr(expr.lhs)}, {_expr(expr.rhs)})"
    if isinstance(expr, Call):
        args = ", ".join(_expr(a) for a in expr.args)
        return f"_intrinsics[{expr.fn!r}]({args})"
    raise TypeError(f"cannot lower expression {expr!r}")


def _stmt(stmt: Stmt, indent: int, lines: list[str]) -> None:
    pad = "    " * indent
    if isinstance(stmt, Block):
        if not stmt.stmts:
            lines.append(pad + "pass")
        for s in stmt.stmts:
            _stmt(s, indent, lines)
        return
    if isinstance(stmt, Assign):
        lines.append(f"{pad}{_expr(stmt.target)} = {_expr(stmt.value)}")
        return
    if isinstance(stmt, For):
        lines.append(
            f"{pad}for {stmt.var} in range({_expr(stmt.lower)}, "
            f"{_expr(stmt.upper)}, {_expr(stmt.step)}):"
        )
        _stmt(stmt.body, indent + 1, lines)
        return
    raise TypeError(f"cannot lower statement {stmt!r}")


def function_to_python(fn: Function, name: str | None = None) -> str:
    """Python source text of *fn* (for inspection/debugging)."""
    from repro.ir.simplify import simplify

    fn = simplify(fn)  # type: ignore[assignment]
    array_names = [p.name for p in fn.params if isinstance(p.type, ArrayType)]
    scalar_names = [p.name for p in fn.params if not isinstance(p.type, ArrayType)]
    lines = [f"def {name or fn.name}(arrays, scalars):"]
    for a in array_names:
        lines.append(f"    {a} = arrays[{a!r}]")
    for s in scalar_names:
        lines.append(f"    {s} = scalars[{s!r}]")
    _stmt(fn.body, 1, lines)
    return "\n".join(lines) + "\n"


def compile_function(
    fn: Function, name: str | None = None
) -> Callable[[dict[str, np.ndarray], dict[str, int]], None]:
    """Compile *fn* to a Python callable mutating its arrays in place."""
    src = function_to_python(fn, name=name)
    namespace: dict = {"_intrinsics": INTRINSICS, "math": math, "min": min, "max": max}
    code = compile(src, filename=f"<pygen:{fn.name}>", mode="exec")
    exec(code, namespace)
    out = namespace[name or fn.name]
    out.__source__ = src  # keep the text inspectable
    return out

