"""AST for the covered Solidity subset.

Node kinds correspond one-to-one with the constructs the semantics consumes:
`for`/`do-while` never appear here (the parser lowers them to `while`), and
`push`/`.length` are first-class nodes rather than method calls.

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
    # one of: uintN, int256, bool, address, string  (normalized: uint -> uint256)
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
    modifiers: tuple = ()  # names of invoked modifiers
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

    @property
    def constructor(self) -> Optional[FunctionDef]:
        for f in self.functions:
            if f.is_constructor:
                return f
        return None

    @property
    def fallback(self) -> Optional[FunctionDef]:
        for f in self.functions:
            if f.is_fallback:
                return f
        return None


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


# ---------------------------------------------------------------------------
# pretty printer
# ---------------------------------------------------------------------------

def type_name_to_source(t: TypeName) -> str:
    if isinstance(t, ElementaryTypeName):
        return t.name
    if isinstance(t, ArrayTypeName):
        # declarations read inside-out: uint128[3][2] is 2 elements of uint128[3]
        dims = []
        while isinstance(t, ArrayTypeName):
            dims.append("[]" if t.length is None else f"[{t.length}]")
            t = t.base
        return type_name_to_source(t) + "".join(reversed(dims))
    if isinstance(t, MappingTypeName):
        return f"mapping({type_name_to_source(t.key)}=>{type_name_to_source(t.value)})"
    if isinstance(t, UserTypeName):
        return t.name
    raise TypeError(f"unknown type name {t!r}")


_PREC = {
    "||": 1, "&&": 2,
    "==": 3, "!=": 3,
    "<": 4, "<=": 4, ">": 4, ">=": 4,
    "+": 5, "-": 5,
    "*": 6, "/": 6, "%": 6,
}


def expr_to_source(e: Expr, parent_prec: int = 0) -> str:
    if isinstance(e, Ident):
        return e.name
    if isinstance(e, IntLit):
        return str(e.value)
    if isinstance(e, BoolLit):
        return "true" if e.value else "false"
    if isinstance(e, StringLit):
        return '"' + e.value.replace("\\", "\\\\").replace('"', '\\"') + '"'
    if isinstance(e, ArrayLit):
        return "[" + ",".join(expr_to_source(x) for x in e.elements) + "]"
    if isinstance(e, Index):
        return f"{expr_to_source(e.base, 99)}[{expr_to_source(e.index)}]"
    if isinstance(e, Member):
        return f"{expr_to_source(e.base, 99)}.{e.name}"
    if isinstance(e, ArrayLength):
        return f"{expr_to_source(e.base, 99)}.length"
    if isinstance(e, Push):
        return f"{expr_to_source(e.base, 99)}.push({expr_to_source(e.arg)})"
    if isinstance(e, Call):
        return f"{e.name}(" + ",".join(expr_to_source(a) for a in e.args) + ")"
    if isinstance(e, ExternalCall):
        s = f"{expr_to_source(e.target, 99)}.{e.name}"
        if e.value is not None:
            s += f".value({expr_to_source(e.value)})"
        if e.gas is not None:
            s += f".gas({expr_to_source(e.gas)})"
        return s + "(" + ",".join(expr_to_source(a) for a in e.args) + ")"
    if isinstance(e, LowLevelCallValue):
        s = f"{expr_to_source(e.target, 99)}.call.value({expr_to_source(e.value)})"
        if e.gas is not None:
            s += f".gas({expr_to_source(e.gas)})"
        return s + "()"
    if isinstance(e, Binary):
        p = _PREC[e.op]
        s = f"{expr_to_source(e.lhs, p)} {e.op} {expr_to_source(e.rhs, p + 1)}"
        return f"({s})" if p < parent_prec else s
    if isinstance(e, Unary):
        return f"{e.op}{expr_to_source(e.operand, 98)}"
    if isinstance(e, MsgSender):
        return "msg.sender"
    if isinstance(e, MsgValue):
        return "msg.value"
    raise TypeError(f"unknown expression {e!r}")


def _stmt_lines(s: Stmt, indent: str) -> list:
    if isinstance(s, VarDecl):
        loc = f" {s.location}" if s.location else ""
        init = f" = {expr_to_source(s.init)}" if s.init is not None else ""
        return [f"{indent}{type_name_to_source(s.type_name)}{loc} {s.name}{init};"]
    if isinstance(s, Assign):
        return [f"{indent}{expr_to_source(s.lhs)} = {expr_to_source(s.rhs)};"]
    if isinstance(s, ExprStmt):
        return [f"{indent}{expr_to_source(s.expr)};"]
    if isinstance(s, If):
        lines = [f"{indent}if ({expr_to_source(s.cond)}) {{"]
        lines += _block_lines(s.then, indent + "   ")
        if s.otherwise is not None:
            lines.append(f"{indent}}} else {{")
            lines += _block_lines(s.otherwise, indent + "   ")
        lines.append(f"{indent}}}")
        return lines
    if isinstance(s, While):
        lines = [f"{indent}while ({expr_to_source(s.cond)}) {{"]
        lines += _block_lines(s.body, indent + "   ")
        lines.append(f"{indent}}}")
        return lines
    if isinstance(s, Return):
        if s.expr is None:
            return [f"{indent}return;"]
        return [f"{indent}return {expr_to_source(s.expr)};"]
    if isinstance(s, Placeholder):
        return [f"{indent}_;"]
    raise TypeError(f"unknown statement {s!r}")


def _block_lines(stmts: list, indent: str) -> list:
    out = []
    for s in stmts:
        out += _stmt_lines(s, indent)
    return out


def to_source(unit: SourceUnit) -> str:
    """Render a unit back to compilable-looking source (used for round-trip tests)."""
    lines = []
    for c in unit.contracts:
        lines.append(f"contract {c.name} {{")
        for sd in c.structs:
            lines.append(f"   struct {sd.name} {{")
            for p in sd.fields:
                lines.append(f"      {type_name_to_source(p.type_name)} {p.name};")
            lines.append("   }")
        for v in c.state_vars:
            spec = "".join(" " + w for w in v.specifiers)
            init = f" = {expr_to_source(v.init)}" if v.init is not None else ""
            lines.append(f"   {type_name_to_source(v.type_name)}{spec} {v.name}{init};")
        for m in c.modifiers:
            lines.append(f"   modifier {m.name} {{")
            lines += _block_lines(m.body, "      ")
            lines.append("   }")
        for f in c.functions:
            params = ", ".join(
                f"{type_name_to_source(p.type_name)} {p.name}" for p in f.params)
            head = f"   function {f.name}({params})"
            for w in f.specifiers:
                head += f" {w}"
            for w in f.modifiers:
                head += f" {w}"
            if f.returns is not None:
                rn = f" {f.returns.name}" if f.returns.name else ""
                head += f" returns({type_name_to_source(f.returns.type_name)}{rn})"
            lines.append(head + " {")
            lines += _block_lines(f.body, "      ")
            lines.append("   }")
        lines.append("}")
    return "\n".join(lines) + ("\n" if lines else "")
