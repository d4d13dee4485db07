"""Source printer for the AST: `to_source(parse(text))` re-parses to an
equal unit (spans never take part in AST equality). The engine never prints
source; test_frontend.py round-trips every fixture through it.
"""

from solsem.ast import (
    ArrayLength, ArrayLit, ArrayTypeName, Assign, Binary, BoolLit, Call,
    ElementaryTypeName, Expr, ExprStmt, ExternalCall, Ident, If, Index,
    IntLit, LowLevelCallValue, MappingTypeName, Member, MsgSender, MsgValue,
    Placeholder, Push, Return, SourceUnit, Stmt, StringLit, TypeName, Unary,
    UserTypeName, VarDecl, While,
)


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
        op = s.op or ""
        return [f"{indent}{expr_to_source(s.lhs)} {op}= {expr_to_source(s.rhs)};"]
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
        test = f"while ({expr_to_source(s.cond)})"
        lines = [f"{indent}{'do' if s.do else test} {{"]
        lines += _block_lines(s.body, indent + "   ")
        lines.append(f"{indent}}} {test};" if s.do else f"{indent}}}")
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
            for m in f.modifiers:
                head += f" {m.name}"
            if f.returns is not None:
                rn = f" {f.returns.name}" if f.returns.name else ""
                head += f" returns({type_name_to_source(f.returns.type_name)}{rn})"
            lines.append(head + " {")
            lines += _block_lines(f.body, "      ")
            lines.append("   }")
        lines.append("}")
    return "\n".join(lines) + ("\n" if lines else "")
