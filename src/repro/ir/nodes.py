"""Immutable AST nodes for the loop-nest IR.

Expressions support operator overloading so kernels can be written naturally
(``C[i, j] + A[i, k] * B[k, j]``).  Statements form (possibly imperfect) loop
nests.  ``For`` carries the annotations the auto-tuner manipulates: a
``parallel`` flag and a free-form ``annotations`` mapping used to mark tile
loops, collapsed loops etc.

Nodes are frozen dataclasses: transformations construct new trees, which
keeps analysis results valid for the trees they were computed on.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from functools import cache
from typing import Any

from repro.ir.types import ArrayType, ScalarType

__all__ = [
    "Node",
    "Expr",
    "Var",
    "IntLit",
    "FloatLit",
    "BinOp",
    "UnOp",
    "Min",
    "Max",
    "Call",
    "ArrayRef",
    "Stmt",
    "Assign",
    "Block",
    "For",
    "Param",
    "Function",
    "as_expr",
]

_BINOPS = {"+", "-", "*", "/", "%", "//"}


@cache
def _field_names(cls: type) -> tuple[str, ...]:
    """A node class's dataclass field names, in declaration order (read
    once per class)."""
    return tuple(f_.name for f_ in fields(cls))


@dataclass(frozen=True)
class Node:
    """Base class: uniform child access for the visitor framework."""

    def children(self) -> tuple["Node", ...]:
        out: list[Node] = []
        for name in _field_names(type(self)):
            val = getattr(self, name)
            if isinstance(val, Node):
                out.append(val)
            elif isinstance(val, tuple):
                out.extend(v for v in val if isinstance(v, Node))
        return tuple(out)

    def with_children(self, new_children: list["Node"]) -> "Node":
        """Rebuild this node with its Node-valued fields replaced in order."""
        it = iter(new_children)
        updates: dict[str, Any] = {}
        for name in _field_names(type(self)):
            val = getattr(self, name)
            if isinstance(val, Node):
                updates[name] = next(it)
            elif isinstance(val, tuple) and any(isinstance(v, Node) for v in val):
                updates[name] = tuple(
                    next(it) if isinstance(v, Node) else v for v in val
                )
        return replace(self, **updates)


# --------------------------------------------------------------------------
# expressions
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class Expr(Node):
    """Base expression; provides arithmetic operator sugar."""

    def __add__(self, other: "Expr | int | float") -> "BinOp":
        return BinOp("+", self, as_expr(other))

    def __radd__(self, other: "Expr | int | float") -> "BinOp":
        return BinOp("+", as_expr(other), self)

    def __sub__(self, other: "Expr | int | float") -> "BinOp":
        return BinOp("-", self, as_expr(other))

    def __rsub__(self, other: "Expr | int | float") -> "BinOp":
        return BinOp("-", as_expr(other), self)

    def __mul__(self, other: "Expr | int | float") -> "BinOp":
        return BinOp("*", self, as_expr(other))

    def __rmul__(self, other: "Expr | int | float") -> "BinOp":
        return BinOp("*", as_expr(other), self)

    def __truediv__(self, other: "Expr | int | float") -> "BinOp":
        return BinOp("/", self, as_expr(other))

    def __rtruediv__(self, other: "Expr | int | float") -> "BinOp":
        return BinOp("/", as_expr(other), self)

    def __floordiv__(self, other: "Expr | int | float") -> "BinOp":
        return BinOp("//", self, as_expr(other))

    def __mod__(self, other: "Expr | int | float") -> "BinOp":
        return BinOp("%", self, as_expr(other))

    def __neg__(self) -> "BinOp":
        return BinOp("-", IntLit(0), self)


def as_expr(value: "Expr | int | float") -> Expr:
    """Coerce Python numbers to literal nodes."""
    if isinstance(value, Expr):
        return value
    if isinstance(value, bool):
        raise TypeError("booleans are not IR values")
    if isinstance(value, int):
        return IntLit(value)
    if isinstance(value, float):
        return FloatLit(value)
    raise TypeError(f"cannot convert {value!r} to an IR expression")


@dataclass(frozen=True)
class Var(Expr):
    """A scalar variable reference (loop index or scalar parameter)."""

    name: str

    def __getitem__(self, idx: "Expr | int | tuple") -> "ArrayRef":
        """Sugar: treating a Var as an array yields an ArrayRef."""
        if not isinstance(idx, tuple):
            idx = (idx,)
        return ArrayRef(self.name, tuple(as_expr(i) for i in idx))


@dataclass(frozen=True)
class IntLit(Expr):
    value: int


@dataclass(frozen=True)
class FloatLit(Expr):
    value: float


@dataclass(frozen=True)
class BinOp(Expr):
    op: str
    lhs: Expr
    rhs: Expr

    def __post_init__(self) -> None:
        if self.op not in _BINOPS:
            raise ValueError(f"unknown binary operator {self.op!r}")


@dataclass(frozen=True)
class UnOp(Expr):
    op: str
    operand: Expr


@dataclass(frozen=True)
class Min(Expr):
    lhs: Expr
    rhs: Expr


@dataclass(frozen=True)
class Max(Expr):
    lhs: Expr
    rhs: Expr


@dataclass(frozen=True)
class Call(Expr):
    """An intrinsic call (``sqrt``, ``rsqrt`` …) — the only non-affine
    expression form the kernels need."""

    fn: str
    args: tuple[Expr, ...]


@dataclass(frozen=True)
class ArrayRef(Expr):
    """``name[indices...]`` — subscripts are arbitrary expressions; the
    polyhedral analysis recognises the affine subset."""

    array: str
    indices: tuple[Expr, ...]

    @property
    def rank(self) -> int:
        return len(self.indices)


# --------------------------------------------------------------------------
# statements
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class Stmt(Node):
    pass


@dataclass(frozen=True)
class Assign(Stmt):
    """``target = value``; accumulation is expressed by reading the target
    inside *value* (e.g. ``C[i,j] = C[i,j] + ...``)."""

    target: Expr  # ArrayRef or Var
    value: Expr

    def __post_init__(self) -> None:
        if not isinstance(self.target, (ArrayRef, Var)):
            raise TypeError("assignment target must be an ArrayRef or Var")


@dataclass(frozen=True)
class Block(Stmt):
    stmts: tuple[Stmt, ...]

    def __post_init__(self) -> None:
        for s in self.stmts:
            if not isinstance(s, Stmt):
                raise TypeError(f"Block may only contain statements, got {s!r}")


@dataclass(frozen=True)
class For(Stmt):
    """``for var = lower; var < upper; var += step``  (half-open interval).

    ``parallel`` marks the loop for parallel execution (worksharing);
    ``annotations`` carries transformation provenance such as
    ``{"tile_loop": "i"}`` or ``{"collapsed": ("i", "j")}``.
    """

    var: str
    lower: Expr
    upper: Expr
    step: Expr
    body: Stmt
    parallel: bool = False
    annotations: tuple[tuple[str, Any], ...] = field(default=())

    def annotation(self, key: str, default: Any = None) -> Any:
        for k, v in self.annotations:
            if k == key:
                return v
        return default

    def with_annotation(self, key: str, value: Any) -> "For":
        anns = tuple((k, v) for k, v in self.annotations if k != key)
        return replace(self, annotations=anns + ((key, value),))


# --------------------------------------------------------------------------
# functions
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class Param(Node):
    name: str
    type: ScalarType | ArrayType


@dataclass(frozen=True)
class Function(Node):
    """A kernel: named parameters (arrays and scalar sizes) and a body."""

    name: str
    params: tuple[Param, ...]
    body: Block

    def param(self, name: str) -> Param:
        for p in self.params:
            if p.name == name:
                return p
        raise KeyError(f"function {self.name!r} has no parameter {name!r}")

    @property
    def arrays(self) -> dict[str, ArrayType]:
        return {p.name: p.type for p in self.params if isinstance(p.type, ArrayType)}

    @property
    def scalars(self) -> dict[str, ScalarType]:
        return {p.name: p.type for p in self.params if isinstance(p.type, ScalarType)}
