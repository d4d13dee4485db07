"""Recursive-descent parser for the covered Solidity subset.

Accepts the pre-0.5 dialect the fixtures use (constructors named after the
contract, `function() payable` fallbacks). Constructs outside the subset are
rejected with an `UnsupportedFeature` diagnostic naming the construct rather
than a generic syntax error, as is an integer, byte or fixed-point type name
that `typesys.ELEMENTARY` does not hold. A type name is read one way,
by `parse_type`: a statement is a declaration when it reads a type and then
a name or a data location, so a statement may begin with a cast
(`address(x).call.value(n)();`). `for` is lowered to `while` during
parsing; any other construct is one node of its own kind, and no node is
shared.
"""

from __future__ import annotations

import re

from . import ast, typesys
from .errors import SolSyntaxError, SolsemError, UnsupportedFeature
from .lexer import Token, tokenize

# a type family of Solidity that the subset leaves out, `uint24` or a
# zero-padded `uint008` included (a name in typesys.ELEMENTARY is tested first)
_REJECT_TYPE_RE = re.compile(r"^(u?int\d*|bytes\d*|byte|u?fixed\d*x?\d*)$")

_UNSUPPORTED_KEYWORDS = {
    "assembly": "assembly",
    "event": "event",
    "using": "using for",
    "is": "inheritance",
    "continue": "continue",
    "break": "break",
    "throw": "throw",
    "new": "contract creation with new",
    "enum": "enum",
    "emit": "emit",
    "delete": "delete",
    "import": "import",
    "var": "var type inference",
}


class Parser:
    def __init__(self, tokens: list, allow_hex: bool = False):
        self.tokens = tokens
        self.pos = 0
        self.allow_hex = allow_hex  # scenario expressions accept hex literals

    # -- token helpers ------------------------------------------------------

    def peek(self, offset: int = 0) -> Token:
        return self.tokens[min(self.pos + offset, len(self.tokens) - 1)]

    def at(self, kind: str, value: str | None = None) -> bool:
        t = self.peek()
        return t.kind == kind and (value is None or t.value == value)

    def at_punct(self, value: str) -> bool:
        return self.at("punct", value)

    def at_kw(self, value: str) -> bool:
        return self.at("keyword", value)

    def advance(self) -> Token:
        t = self.tokens[self.pos]
        if self.pos < len(self.tokens) - 1:
            self.pos += 1
        return t

    def expect(self, kind: str, value: str | None = None) -> Token:
        t = self.peek()
        if t.kind != kind or (value is not None and t.value != value):
            want = value if value is not None else kind
            raise SolSyntaxError(
                f"expected {want!r}, found {t.value or t.kind!r}", t.span)
        return self.advance()

    def _reject_unsupported(self):
        t = self.peek()
        if t.kind == "keyword" and t.value in _UNSUPPORTED_KEYWORDS:
            raise UnsupportedFeature(_UNSUPPORTED_KEYWORDS[t.value], t.span)
        if t.kind == "keyword" and t.value in ("constructor", "fallback"):
            raise UnsupportedFeature(
                f"{t.value} keyword (post-0.5 dialect; this parser accepts the "
                f"pre-0.5 form)", t.span)
        if t.kind == "hexnumber" and not self.allow_hex:
            raise UnsupportedFeature("hex literal", t.span)

    # -- unit / contract ----------------------------------------------------

    def parse_unit(self) -> ast.SourceUnit:
        contracts = []
        while not self.at("eof"):
            if self.at_kw("pragma"):
                # version pragmas carry no semantics here; skip the directive
                while not self.at_punct(";") and not self.at("eof"):
                    self.advance()
                self.expect("punct", ";")
                continue
            self._reject_unsupported()
            if self.at_kw("contract"):
                contracts.append(self.parse_contract())
                continue
            t = self.peek()
            raise SolSyntaxError(
                f"expected contract definition, found {t.value!r}", t.span)
        return ast.SourceUnit(contracts=contracts)

    def parse_contract(self) -> ast.ContractDef:
        kw = self.expect("keyword", "contract")
        name = self.expect("ident").value
        self._reject_unsupported()  # `is` inheritance clauses
        self.expect("punct", "{")
        contract = ast.ContractDef(name=name, span=kw.span)
        while not self.at_punct("}"):
            self._reject_unsupported()
            if self.at_kw("struct"):
                contract.structs.append(self.parse_struct())
            elif self.at_kw("modifier"):
                contract.modifiers.append(self.parse_modifier())
            elif self.at_kw("function"):
                contract.functions.append(self.parse_function(contract_name=name))
            else:
                contract.state_vars.append(self.parse_state_var())
        self.expect("punct", "}")
        return contract

    def parse_struct(self) -> ast.StructDef:
        kw = self.expect("keyword", "struct")
        name = self.expect("ident").value
        self.expect("punct", "{")
        fields = []
        while not self.at_punct("}"):
            tname = self.parse_type()
            fname = self.expect("ident").value
            self.expect("punct", ";")
            fields.append(ast.Param(type_name=tname, name=fname))
        self.expect("punct", "}")
        return ast.StructDef(name=name, fields=fields, span=kw.span)

    def parse_modifier(self) -> ast.ModifierDef:
        kw = self.expect("keyword", "modifier")
        name = self.expect("ident").value
        if self.at_punct("("):
            self.advance()
            if not self.at_punct(")"):
                raise UnsupportedFeature("modifier parameters", self.peek().span)
            self.expect("punct", ")")
        return ast.ModifierDef(name=name, body=self.parse_block(), span=kw.span)

    def parse_state_var(self) -> ast.StateVarDecl:
        tname = self.parse_type()
        specifiers = []
        while self.peek().kind == "keyword" and self.peek().value in (
                "public", "private", "internal", "constant", "payable"):
            specifiers.append(self.advance().value)
        name_tok = self.expect("ident")
        init = None
        if self.at_punct("="):
            self.advance()
            init = self.parse_expression()
        self.expect("punct", ";")
        return ast.StateVarDecl(type_name=tname, name=name_tok.value, init=init,
                                specifiers=tuple(specifiers), span=name_tok.span)

    def parse_function(self, contract_name: str) -> ast.FunctionDef:
        kw = self.expect("keyword", "function")
        name = ""
        if self.at("ident"):
            name = self.advance().value
        self.expect("punct", "(")
        params = []
        while not self.at_punct(")"):
            if params:
                self.expect("punct", ",")
            ptype = self.parse_type()
            if self.at_kw("memory") or self.at_kw("storage") or self.at_kw("calldata"):
                self.advance()  # parameters always bind in memory
            pname = self.expect("ident")
            params.append(ast.Param(type_name=ptype, name=pname.value, span=pname.span))
        self.expect("punct", ")")

        specifiers = []
        modifiers = []
        returns = None
        while True:
            t = self.peek()
            if t.kind == "keyword" and t.value in (
                    "public", "private", "internal", "external", "payable",
                    "constant", "view", "pure"):
                specifiers.append(self.advance().value)
            elif t.kind == "keyword" and t.value == "returns":
                self.advance()
                self.expect("punct", "(")
                rtype = self.parse_type()
                rname = self.advance().value if self.at("ident") else ""
                if self.at_punct(","):
                    raise UnsupportedFeature(
                        "multiple return values", self.peek().span)
                self.expect("punct", ")")
                returns = ast.Param(type_name=rtype, name=rname)
            elif t.kind == "ident":
                # modifier invocation; only parameterless modifiers are covered
                self.advance()
                modifiers.append(ast.Ident(name=t.value, span=t.span))
                if self.at_punct("("):
                    self.advance()
                    if not self.at_punct(")"):
                        raise UnsupportedFeature("modifier arguments", self.peek().span)
                    self.expect("punct", ")")
            else:
                break
        body = self.parse_block()

        is_constructor = name == contract_name
        is_fallback = name == ""
        if is_fallback and (params or returns is not None):
            raise SolSyntaxError("fallback function takes no parameters and "
                                 "returns nothing", kw.span)
        if is_constructor and returns is not None:
            raise SolSyntaxError("constructor cannot declare a return value", kw.span)
        return ast.FunctionDef(
            name=name, params=params, returns=returns, body=body,
            specifiers=tuple(specifiers), modifiers=tuple(modifiers),
            is_constructor=is_constructor, is_fallback=is_fallback, span=kw.span)

    # -- types --------------------------------------------------------------

    def parse_type(self) -> ast.TypeName:
        t = self.peek()
        self._reject_unsupported()
        if t.kind == "keyword" and t.value == "mapping":
            self.advance()
            self.expect("punct", "(")
            key = self.parse_type()
            self.expect("punct", "=>")
            value = self.parse_type()
            self.expect("punct", ")")
            base: ast.TypeName = ast.MappingTypeName(key=key, value=value, span=t.span)
        elif t.kind == "keyword" and t.value == "function":
            raise UnsupportedFeature("function type", t.span)
        elif t.kind == "ident":
            self.advance()
            if t.value in typesys.ELEMENTARY:  # `uint` is named `uint256`
                name = typesys.type_to_str(typesys.ELEMENTARY[t.value])
                base = ast.ElementaryTypeName(name=name, span=t.span)
            elif _REJECT_TYPE_RE.match(t.value):
                raise UnsupportedFeature(t.value, t.span)
            else:
                base = ast.UserTypeName(name=t.value, span=t.span)
        else:
            raise SolSyntaxError(f"expected type, found {t.value or t.kind!r}",
                                 t.span)
        while self.at_punct("["):
            self.advance()
            length = None
            if not self.at_punct("]"):
                if self.peek().kind == "hexnumber":
                    raise UnsupportedFeature("hex literal", self.peek().span)
                num = self.expect("number")
                length = int(num.value)
            self.expect("punct", "]")
            base = ast.ArrayTypeName(base=base, length=length, span=t.span)
        return base

    def _declared_type(self) -> ast.TypeName | None:
        """Statement-level lookahead: `mapping`, or a type that `parse_type`
        reads followed by a name or a data location, starts a declaration,
        whose type is read and returned. Anything else starts an expression
        (`uint(b)`, `a[i] = 1`): None is returned, the position restored, and
        no type is parsed if the next token cannot go on with one (a name, a
        location, `[` before `]` or a number). An unsupported type name
        still raises its diagnostic."""
        if self.at_kw("mapping"):
            return self.parse_type()
        t, nxt, after = self.peek(), self.peek(1), self.peek(2)
        if t.kind != "ident":
            return None
        if t.value not in typesys.ELEMENTARY and _REJECT_TYPE_RE.match(t.value):
            raise UnsupportedFeature(t.value, t.span)
        if not (nxt.kind == "ident" or nxt.value in ("memory", "storage") or
                nxt.value == "[" and (after.value == "]" or after.kind
                                      in ("number", "hexnumber"))):
            return None  # `a = 1;`, `b[i] -= 1;`, `a.f();`
        start = self.pos
        try:
            tname = self.parse_type()
            t = self.peek()
            if t.kind == "ident" or (t.kind == "keyword"
                                     and t.value in ("memory", "storage")):
                return tname
        except SolSyntaxError:
            pass
        self.pos = start
        return None

    # -- statements ---------------------------------------------------------

    def parse_block(self) -> list:
        self.expect("punct", "{")
        stmts = []
        while not self.at_punct("}"):
            stmts.extend(self.parse_statement())
        self.expect("punct", "}")
        return stmts

    def _body(self) -> list:
        if self.at_punct("{"):
            return self.parse_block()
        return self.parse_statement()

    def parse_statement(self) -> list:
        """One source statement; a list because a `for` lowers to two."""
        t = self.peek()
        self._reject_unsupported()
        if t.kind == "keyword":
            if t.value == "if":
                return [self.parse_if()]
            if t.value in ("while", "do"):
                return [self.parse_while()]
            if t.value == "for":
                return self.parse_for()
            if t.value == "return":
                self.advance()
                expr = None
                if not self.at_punct(";"):
                    expr = self.parse_expression()
                self.expect("punct", ";")
                return [ast.Return(expr=expr, span=t.span)]
        if t.kind == "ident" and t.value == "_" \
                and self.peek(1).kind == "punct" and self.peek(1).value == ";":
            self.advance()
            self.expect("punct", ";")
            return [ast.Placeholder(span=t.span)]
        if (tname := self._declared_type()) is not None:
            return [self.parse_var_decl(tname)]
        return [self.parse_expr_statement()]

    def parse_var_decl(self, tname: ast.TypeName) -> ast.VarDecl:
        """The rest of a declaration whose type `_declared_type` read."""
        location = None
        if self.at_kw("memory") or self.at_kw("storage"):
            location = self.advance().value
        name = self.expect("ident").value
        init = None
        if self.at_punct("="):
            self.advance()
            init = self.parse_expression()
        self.expect("punct", ";")
        return ast.VarDecl(type_name=tname, name=name, init=init,
                           location=location, span=tname.span)

    def _finish_assignment(self, lhs: ast.Expr, span) -> ast.Stmt:
        t = self.peek()
        if t.kind == "punct" and t.value in ("=", "+=", "-=", "*=", "/=", "%="):
            self.advance()
            rhs = self.parse_expression()
            if not isinstance(lhs, (ast.Ident, ast.Index, ast.Member)):
                raise SolSyntaxError("left side of assignment is not assignable",
                                     span)
            op = None if t.value == "=" else t.value[0]
            return ast.Assign(lhs=lhs, rhs=rhs, op=op, span=span)
        return ast.ExprStmt(expr=lhs, span=span)

    def parse_expr_statement(self) -> ast.Stmt:
        t = self.peek()
        expr = self.parse_expression()
        stmt = self._finish_assignment(expr, t.span)
        self.expect("punct", ";")
        return stmt

    def parse_if(self) -> ast.If:
        kw = self.expect("keyword", "if")
        self.expect("punct", "(")
        cond = self.parse_expression()
        self.expect("punct", ")")
        then = self._body()
        otherwise = None
        if self.at_kw("else"):
            self.advance()
            otherwise = self._body()
        return ast.If(cond=cond, then=then, otherwise=otherwise, span=kw.span)

    def parse_while(self) -> ast.While:
        """`while (cond) body`, or `do body while (cond);` (`do` set)."""
        kw = self.advance()  # `while` or `do`
        do = kw.value == "do"
        if do:
            body = self._body()
            self.expect("keyword", "while")
        self.expect("punct", "(")
        cond = self.parse_expression()
        self.expect("punct", ")")
        if do:
            self.expect("punct", ";")
        else:
            body = self._body()
        return ast.While(cond=cond, body=body, do=do, span=kw.span)

    def parse_for(self) -> list:
        """`for (init; cond; post) body` lowers to `init; while (cond) {body; post}`."""
        kw = self.expect("keyword", "for")
        self.expect("punct", "(")
        out = []
        if self.at_punct(";"):
            self.advance()
        elif (tname := self._declared_type()) is not None:
            out.append(self.parse_var_decl(tname))
        else:
            out.append(self.parse_expr_statement())
        cond = ast.BoolLit(value=True, span=kw.span)
        if not self.at_punct(";"):
            cond = self.parse_expression()
        self.expect("punct", ";")
        post = None
        if not self.at_punct(")"):
            t = self.peek()
            lhs = self.parse_expression()
            post = self._finish_assignment(lhs, t.span)
        self.expect("punct", ")")
        body = self._body()
        if post is not None:
            body = body + [post]
        out.append(ast.While(cond=cond, body=body, span=kw.span))
        return out

    # -- expressions --------------------------------------------------------

    _BIN_LEVELS = [
        ("||",),
        ("&&",),
        ("==", "!="),
        ("<", "<=", ">", ">="),
        ("+", "-"),
        ("*", "/", "%"),
    ]

    def parse_expression(self, level: int = 0) -> ast.Expr:
        if level >= len(self._BIN_LEVELS):
            return self.parse_unary()
        lhs = self.parse_expression(level + 1)
        while True:
            t = self.peek()
            if t.kind == "punct" and t.value in self._BIN_LEVELS[level]:
                self.advance()
                rhs = self.parse_expression(level + 1)
                lhs = ast.Binary(op=t.value, lhs=lhs, rhs=rhs, span=t.span)
            elif t.kind == "punct" and t.value in ("&", "|", "^", "~", "<<", ">>"):
                raise UnsupportedFeature("bitwise operator", t.span)
            else:
                return lhs

    def parse_unary(self) -> ast.Expr:
        t = self.peek()
        if t.kind == "punct" and t.value in ("!", "-"):
            self.advance()
            return ast.Unary(op=t.value, operand=self.parse_unary(), span=t.span)
        if t.kind == "punct" and t.value in ("++", "--", "~"):
            raise UnsupportedFeature(f"{t.value} operator", t.span)
        return self.parse_postfix()

    def parse_expr_list(self, open_: str = "(", close: str = ")") -> list:
        """The comma-separated expressions between `open_` and `close`: a
        call's arguments, or an array literal's elements."""
        self.expect("punct", open_)
        args = []
        while not self.at_punct(close):
            if args:
                self.expect("punct", ",")
            args.append(self.parse_expression())
        self.expect("punct", close)
        return args

    def _at_value_gas(self) -> bool:
        """At a `.value(` or `.gas(` call option."""
        return self.at_punct(".") and self.peek(1).kind == "ident" \
            and self.peek(1).value in ("value", "gas") \
            and self.peek(2).kind == "punct" and self.peek(2).value == "("

    def _parse_value_gas_suffix(self):
        value = gas = None
        while self._at_value_gas():
            self.advance()
            which = self.advance().value
            self.expect("punct", "(")
            expr = self.parse_expression()
            self.expect("punct", ")")
            if which == "value":
                value = expr
            else:
                gas = expr
        return value, gas

    def parse_postfix(self) -> ast.Expr:
        expr = self.parse_primary()
        while True:
            t = self.peek()
            if self.at_punct("["):
                self.advance()
                idx = self.parse_expression()
                self.expect("punct", "]")
                expr = ast.Index(base=expr, index=idx, span=t.span)
            elif self.at_punct("."):
                name_tok = self.peek(1)
                if name_tok.kind not in ("ident", "keyword"):
                    raise SolSyntaxError("expected member name after '.'",
                                         name_tok.span)
                name = name_tok.value
                if name == "length" and not (self.peek(2).kind == "punct"
                                             and self.peek(2).value == "("):
                    self.advance(); self.advance()
                    expr = ast.ArrayLength(base=expr, span=t.span)
                elif name == "push":
                    self.advance(); self.advance()
                    args = self.parse_expr_list()
                    if len(args) != 1:
                        raise SolSyntaxError("push takes exactly one argument",
                                             t.span)
                    expr = ast.Push(base=expr, arg=args[0], span=t.span)
                elif name == "call":
                    self.advance(); self.advance()
                    value, gas = self._parse_value_gas_suffix()
                    if value is None:
                        raise UnsupportedFeature(
                            "low-level call without .value", t.span)
                    self.expect("punct", "(")
                    self.expect("punct", ")")
                    expr = ast.LowLevelCallValue(target=expr, value=value,
                                                 gas=gas, span=t.span)
                else:
                    self.advance(); self.advance()
                    if self.at_punct("(") or self._at_value_gas():
                        value, gas = self._parse_value_gas_suffix()
                        args = self.parse_expr_list()
                        expr = ast.ExternalCall(target=expr, name=name, args=args,
                                                value=value, gas=gas, span=t.span)
                    else:
                        expr = ast.Member(base=expr, name=name, span=t.span)
            else:
                return expr

    def parse_primary(self) -> ast.Expr:
        t = self.peek()
        self._reject_unsupported()
        if t.kind == "number":
            self.advance()
            return ast.IntLit(value=int(t.value), span=t.span)
        if t.kind == "hexnumber":
            self.advance()
            return ast.IntLit(value=int(t.value, 16), span=t.span)
        if t.kind == "string":
            self.advance()
            return ast.StringLit(value=t.value, span=t.span)
        if t.kind == "keyword" and t.value in ("true", "false"):
            self.advance()
            return ast.BoolLit(value=t.value == "true", span=t.span)
        if t.kind == "keyword" and t.value == "msg":
            self.advance()
            self.expect("punct", ".")
            field = self.expect("ident")
            if field.value == "sender":
                return ast.MsgSender(span=t.span)
            if field.value == "value":
                return ast.MsgValue(span=t.span)
            raise UnsupportedFeature(f"msg.{field.value}", field.span)
        if self.at_punct("("):
            self.advance()
            expr = self.parse_expression()
            self.expect("punct", ")")
            return expr
        if self.at_punct("["):
            return ast.ArrayLit(elements=self.parse_expr_list("[", "]"),
                                span=t.span)
        if t.kind == "ident":
            self.advance()
            if self.at_punct("("):
                args = self.parse_expr_list()
                return ast.Call(name=t.value, args=args, span=t.span)
            return ast.Ident(name=t.value, span=t.span)
        raise SolSyntaxError(f"unexpected token {t.value or t.kind!r}", t.span)


def parse(source: str, filename: str = "<input>") -> ast.SourceUnit:
    """Parse source text; raises a SolsemError diagnostic on the first problem."""
    return Parser(tokenize(source)).parse_unit()


def try_parse(source: str, filename: str = "<input>"):
    """(unit, diagnostics) — unit is None when diagnostics are non-empty."""
    try:
        return parse(source, filename), []
    except SolsemError as e:
        return None, [e]


def parse_expression(text: str) -> ast.Expr:
    """Parse a standalone expression (used by the scenario assert syntax,
    which allows hex literals)."""
    tokens = tokenize(text)
    p = Parser(tokens, allow_hex=True)
    expr = p.parse_expression()
    if not p.at("eof"):
        raise SolSyntaxError(f"trailing input after expression: {p.peek().value!r}",
                             p.peek().span)
    return expr
