"""AST for the covered Solidity subset.

Node kinds correspond one-to-one with the constructs the semantics consumes:
`for` never appears here (the parser lowers it to `while`), and
`push`/`.length` are first-class nodes rather than method calls. A unit is
a tree: no node object is in two places, and none is a copy of another.

Spans never participate in equality so that a pretty-print/re-parse round
trip compares structurally equal.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Optional, Union

from .errors import Span


def _span_field():
    return field(default=None, compare=False, repr=False)


# ---------------------------------------------------------------------------
# type names (syntax level; resolved to semantic types by typesys.resolve_type)
# ---------------------------------------------------------------------------

@dataclass(eq=True)
class TypeName:
    span: Optional[Span] = _span_field()


@dataclass(eq=True)
class ElementaryTypeName(TypeName):
    # a canonical name of typesys.ELEMENTARY: uintN, int256, bool, address or
    # string (the parser normalizes uint -> uint256, int -> int256)
    name: str = ""


@dataclass(eq=True)
class ArrayTypeName(TypeName):
    base: TypeName = None
    length: Optional[int] = None  # None = dynamic


@dataclass(eq=True)
class MappingTypeName(TypeName):
    key: TypeName = None
    value: TypeName = None


@dataclass(eq=True)
class UserTypeName(TypeName):
    # struct or contract name; resolved against the enclosing unit
    name: str = ""


# ---------------------------------------------------------------------------
# expressions
# ---------------------------------------------------------------------------

@dataclass(eq=True)
class Expr:
    span: Optional[Span] = _span_field()


@dataclass(eq=True)
class Ident(Expr):
    name: str = ""


@dataclass(eq=True)
class IntLit(Expr):
    value: int = 0


@dataclass(eq=True)
class BoolLit(Expr):
    value: bool = False


@dataclass(eq=True)
class StringLit(Expr):
    value: str = ""


@dataclass(eq=True)
class ArrayLit(Expr):
    elements: list = field(default_factory=list)


@dataclass(eq=True)
class Index(Expr):
    base: Expr = None
    index: Expr = None


@dataclass(eq=True)
class Member(Expr):
    base: Expr = None
    name: str = ""


@dataclass(eq=True)
class ArrayLength(Expr):
    base: Expr = None


@dataclass(eq=True)
class Push(Expr):
    base: Expr = None
    arg: Expr = None


@dataclass(eq=True)
class Call(Expr):
    # internal function call or type/contract cast; disambiguated at evaluation
    name: str = ""
    args: list = field(default_factory=list)


@dataclass(eq=True)
class ExternalCall(Expr):
    target: Expr = None
    name: str = ""
    args: list = field(default_factory=list)
    value: Optional[Expr] = None
    gas: Optional[Expr] = None


@dataclass(eq=True)
class LowLevelCallValue(Expr):
    # target.call.value(E)() / target.call.value(E).gas(E)()
    target: Expr = None
    value: Expr = None
    gas: Optional[Expr] = None


@dataclass(eq=True)
class Binary(Expr):
    op: str = ""
    lhs: Expr = None
    rhs: Expr = None


@dataclass(eq=True)
class Unary(Expr):
    op: str = ""  # '!' or '-'
    operand: Expr = None


@dataclass(eq=True)
class MsgSender(Expr):
    pass


@dataclass(eq=True)
class MsgValue(Expr):
    pass


# ---------------------------------------------------------------------------
# statements
# ---------------------------------------------------------------------------

@dataclass(eq=True)
class Stmt:
    span: Optional[Span] = _span_field()


@dataclass(eq=True)
class VarDecl(Stmt):
    type_name: TypeName = None
    name: str = ""
    init: Optional[Expr] = None
    location: Optional[str] = None  # 'memory' | 'storage' | None


@dataclass(eq=True)
class Assign(Stmt):
    lhs: Expr = None
    rhs: Expr = None
    op: Optional[str] = None  # '+' for `+=`, ...; None for a plain `=`


@dataclass(eq=True)
class ExprStmt(Stmt):
    expr: Expr = None


@dataclass(eq=True)
class If(Stmt):
    cond: Expr = None
    then: list = field(default_factory=list)
    otherwise: Optional[list] = None


@dataclass(eq=True)
class While(Stmt):
    cond: Expr = None
    body: list = field(default_factory=list)
    do: bool = False  # `do body while (cond);`: the body runs before the test


@dataclass(eq=True)
class Return(Stmt):
    expr: Optional[Expr] = None


@dataclass(eq=True)
class Placeholder(Stmt):
    """The `_;` statement inside a modifier body."""


# ---------------------------------------------------------------------------
# declarations
# ---------------------------------------------------------------------------

@dataclass(eq=True)
class Param:
    type_name: TypeName
    name: str
    span: Optional[Span] = _span_field()


@dataclass(eq=True)
class StateVarDecl:
    type_name: TypeName
    name: str
    init: Optional[Expr] = None
    specifiers: tuple = ()  # retained but semantically inert (public, constant, ...)
    span: Optional[Span] = _span_field()


@dataclass(eq=True)
class StructDef:
    name: str
    fields: list = field(default_factory=list)  # list[Param]
    span: Optional[Span] = _span_field()


@dataclass(eq=True)
class ModifierDef:
    name: str
    body: list = field(default_factory=list)
    span: Optional[Span] = _span_field()


@dataclass(eq=True)
class FunctionDef:
    name: str  # "" for the fallback function
    params: list = field(default_factory=list)  # list[Param]
    returns: Optional[Param] = None  # at most one return value
    body: list = field(default_factory=list)
    specifiers: tuple = ()  # public/payable/constant/... (inert)
    modifiers: tuple = ()  # the invoked modifiers, as Idents
    is_constructor: bool = False
    is_fallback: bool = False
    span: Optional[Span] = _span_field()


@dataclass(eq=True)
class ContractDef:
    name: str
    state_vars: list = field(default_factory=list)
    structs: list = field(default_factory=list)
    modifiers: list = field(default_factory=list)
    functions: list = field(default_factory=list)  # constructor & fallback included
    span: Optional[Span] = _span_field()


@dataclass(eq=True)
class SourceUnit:
    contracts: list = field(default_factory=list)

    def contract(self, name: str) -> ContractDef:
        for c in self.contracts:
            if c.name == name:
                return c
        raise KeyError(name)


# ---------------------------------------------------------------------------
# traversal
# ---------------------------------------------------------------------------

def children(node):
    """Yield (field name, value) for each field of an expression or
    statement that holds a child node or a list of them (argument lists,
    array elements, statement blocks); other fields are skipped."""
    for f in fields(node):
        value = getattr(node, f.name)
        if isinstance(value, (Expr, Stmt, list)):
            yield f.name, value
