"""Lexing and parsing of the covered subset, diagnostics, and the
pretty-print round trip."""

import random
import re
from pathlib import Path

import pytest

import lexer_oracle
from solsem import ast
from ast_printer import to_source
from solsem.errors import SolSyntaxError, SolsemError, UnsupportedFeature
from solsem.lexer import tokenize
from solsem.parser import parse, parse_expression, try_parse
from solsem.state import World

from conftest import FIXTURE_CONTRACTS, contract_source


def test_coin_shape():
    unit = parse(contract_source("coin.sol"))
    coin = unit.contract("Coin")
    assert len(coin.state_vars) == 2
    assert [v.name for v in coin.state_vars] == ["minter", "balances"]
    assert [f.name for f in coin.functions if f.is_constructor] == ["Coin"]
    assert {f.name for f in coin.functions} == {"Coin", "mint", "send"}


def test_empty_source():
    unit = parse("")
    assert unit.contracts == []


def test_assembly_is_named_unsupported():
    _, diags = try_parse("contract X { function f() public { assembly { } } }")
    assert len(diags) == 1
    assert isinstance(diags[0], UnsupportedFeature)
    assert diags[0].feature == "assembly"


@pytest.mark.parametrize("source,needle,span", [
    ("contract X is Y { }", "inheritance", None),
    # a type name is reported at its own token
    ("contract X { uint24 a; }", "uint24", "1:14"),
    ("contract X { int128 a; }", "int128", "1:14"),
    ("contract X { bytes32 a; }", "bytes32", "1:14"),
    # solc reads a zero-padded width as an identifier, not as uint8/int256
    ("contract X { uint008 a; }", "uint008", "1:14"),
    ("contract X { function f() public { int0256 a; } }", "int0256", "1:36"),
    # also where no declaration follows: a cast-led statement, a `for` init
    ("contract X { function f(uint b) public { uint24(b); } }", "uint24",
     "1:42"),
    ("contract X { function f() public { for (int0256(b); ; ) {} } }",
     "int0256", "1:41"),
    ("contract X { function f() public { uint[0x10] x; } }", "hex literal",
     "1:41"),
    ("contract X { event E(); }", "event", None),
    ("contract X { using L for uint; }", "using", None),
    ("contract X { function f() public { uint a = 0x10; } }", "hex literal",
     None),
    ("contract X { function f() public { uint a = 1 & 2; } }", "bitwise", None),
    ("contract X { function f() public { throw; } }", "throw", None),
    ("contract X { function f() public { var a = 1; } }", "var", None),
    ("contract X { function f() public { continue; } }", "continue", None),
    ("contract X { function f(uint a, uint b) public returns (uint, uint) { } }",
     "multiple return", None),
    ("contract X { function f() public { X y = new X(); } }", "new", None),
    ("import 'other.sol';", "import", None),
])
def test_unsupported_constructs_are_named(source, needle, span):
    _, diags = try_parse(source)
    assert diags, source
    assert isinstance(diags[0], UnsupportedFeature)
    assert needle in diags[0].message
    if span is not None:
        assert repr(diags[0].span) == span


def test_post_050_keywords_are_rejected():
    for kw in ("constructor", "fallback"):
        _, diags = try_parse(f"contract X {{ {kw}() public {{ }} }}")
        assert isinstance(diags[0], UnsupportedFeature)
        assert f"{kw} keyword (post-0.5 dialect" in diags[0].message


def test_all_fixtures_parse_clean():
    for name in FIXTURE_CONTRACTS:
        unit, diags = try_parse(contract_source(name), filename=name)
        assert diags == [], (name, diags)
        assert unit.contracts


# statements that begin with a cast are expression statements
_CAST_LED = """
contract Bank {
  function f(address b) public {
    address(b).call.value(0)();
    uint(b);
    address(b);
    Bank(b);
    uint[2] memory a;
    a[uint(b) % 2] = 1;
  } }"""


def test_round_trip_all_fixtures():
    for name, source in [*((n, contract_source(n)) for n in FIXTURE_CONTRACTS),
                         ("cast-led", _CAST_LED)]:
        unit = parse(source)
        again = parse(to_source(unit))
        assert again == unit, name


def test_round_trip_is_stable():
    unit = parse(contract_source("coverage.sol"))
    once = to_source(unit)
    assert to_source(parse(once)) == once


def _walk_exprs(e):
    yield e
    for attr in ("base", "index", "lhs", "rhs", "operand", "target",
                 "value", "gas", "arg"):
        child = getattr(e, attr, None)
        if isinstance(child, ast.Expr):
            yield from _walk_exprs(child)
    for child in getattr(e, "args", []) or []:
        yield from _walk_exprs(child)
    for child in getattr(e, "elements", []) or []:
        yield from _walk_exprs(child)


def _walk_stmts(stmts):
    for s in stmts:
        yield s
        for attr in ("then", "otherwise", "body"):
            inner = getattr(s, attr, None)
            if inner:
                yield from _walk_stmts(inner)


def test_every_expression_carries_a_span():
    unit = parse(contract_source("dao.sol"))
    for c in unit.contracts:
        for f in c.functions:
            for s in _walk_stmts(f.body):
                for attr in ("cond", "expr", "lhs", "rhs", "init"):
                    e = getattr(s, attr, None)
                    if isinstance(e, ast.Expr):
                        for node in _walk_exprs(e):
                            assert node.span is not None, node


@pytest.mark.parametrize("init,kind", [("uint i = 0", ast.VarDecl),
                                       ("i = 0", ast.Assign)])
def test_for_lowers_to_while(init, kind):
    unit = parse("""
    contract L { uint t; uint i;
      function f() public {
        for (%s; i < 3; i += 1) { t += i; }
      } }""" % init)
    body = unit.contract("L").functions[0].body
    assert isinstance(body[0], kind)
    assert isinstance(body[1], ast.While)
    # the increment is appended to the loop body
    assert isinstance(body[1].body[-1], ast.Assign)


def test_do_while_is_one_while_with_do_set():
    unit = parse("""
    contract L { uint t;
      function f() public {
        do { t += 1; } while (t < 3);
      } }""")
    body = unit.contract("L").functions[0].body
    assert len(body) == 1 and isinstance(body[0], ast.While)
    assert body[0].do and isinstance(body[0].body[0], ast.Assign)
    assert not parse("contract L { function f() public { while (true) { } } }"
                     ).contracts[0].functions[0].body[0].do


def _nodes(node):
    """`node` and every node under it, by `ast.children`."""
    yield node
    for _, child in ast.children(node):
        for c in child if isinstance(child, list) else [child]:
            yield from _nodes(c)


def test_every_parsed_unit_is_a_tree():
    # each node is compiled once, by the rule of its kind, only if no node
    # object is reached twice: a compound assignment shares no target, and
    # a `do` loop copies no body
    sources = [contract_source(name) for name in FIXTURE_CONTRACTS] + ["""
    contract T { uint[] a; uint x;
      function f() public {
        a[x] += 5;
        do { uint k = 1; x = x + k; } while (x < 3);
      } }"""]
    for source in sources:
        seen = set()
        for node in _nodes(parse(source)):
            assert id(node) not in seen, node
            seen.add(id(node))


def test_placeholder_only_in_modifiers():
    # `_;` parses anywhere; registration rejects it outside a modifier body
    unit = parse("contract X { function f() public { _; } }")
    with pytest.raises(SolsemError) as err:
        World().register(unit)
    assert (repr(err.value.span), err.value.message) == (
        "1:36", "placeholder `_;` is only valid inside a modifier body")
    unit = parse("""
    contract X {
      uint owner;
      modifier onlyOwner { if (owner == 0) _; }
      function f() public onlyOwner { owner = 1; }
    }""")
    assert unit.contract("X").modifiers[0].name == "onlyOwner"


def test_fallback_shape_enforced():
    with pytest.raises(SolSyntaxError):
        parse("contract A { function(uint x) payable { } }")


def test_external_call_forms():
    unit = parse("""
    contract C { uint t;
      function f() public {
        C(t).g(1, 2);
        C(t).g.value(3)(4);
        C(t).g.value(3).gas(5)(6);
        msg.sender.call.value(7)();
        msg.sender.call.value(7).gas(8)();
      } }""")
    body = unit.contract("C").functions[0].body
    calls = [s.expr for s in body]
    assert isinstance(calls[0], ast.ExternalCall) and calls[0].value is None
    assert isinstance(calls[1], ast.ExternalCall) and calls[1].value is not None
    assert calls[2].gas is not None and calls[2].args == [ast.IntLit(value=6)]
    assert isinstance(calls[3], ast.LowLevelCallValue) and calls[3].gas is None
    assert calls[4].gas is not None


def test_precedence():
    e = parse_expression("1 + 2 * 3 == 7 && true")
    assert isinstance(e, ast.Binary) and e.op == "&&"
    cmp = e.lhs
    assert cmp.op == "=="
    assert cmp.lhs.op == "+" and cmp.lhs.rhs.op == "*"


def test_compound_assignment_is_one_assign_with_its_op():
    unit = parse("contract C { uint a; function f() public { a += 2; a = 3; } }")
    compound, plain = unit.contract("C").functions[0].body
    assert isinstance(compound, ast.Assign) and compound.op == "+"
    assert compound.rhs == ast.IntLit(value=2)
    assert plain.op is None


def test_pragma_is_ignored():
    unit = parse("pragma solidity ^0.4.19;\ncontract A { uint x; }")
    assert len(unit.contracts) == 1


def test_diagnostic_has_position():
    _, diags = try_parse("contract X {\n  function f() public { assembly { } }\n}")
    d = diags[0]
    assert d.span.line == 2
    assert "2:" in d.diagnostic("f.sol")


def _lexed(tokenizer, source: str):
    """Each token's kind, value and position, or the error and its position."""
    try:
        return [(t.kind, t.value, repr(t.span)) for t in tokenizer(source)]
    except SolSyntaxError as err:
        return ("error", err.message, repr(err.span))


def _test_sources():
    """Every fixture, and every triple-quoted source in the tests."""
    yield from (contract_source(name) for name in FIXTURE_CONTRACTS)
    for path in sorted(Path(__file__).parent.glob("*.py")):
        yield from re.findall(r'"""(.*?)"""', path.read_text(), re.DOTALL)


_LEXER_CASES = (
    "", "x", "  \n\t\r", "// no newline", "/* spans\nlines */ a /**/ b",
    "/* unterminated", "/*/", "a /* b */ c // d\n e", "0x", "0XaF19g",
    "007 1x", "\"a\\nb\\tc\\\"d\\'e\\\\f\\qg\"", "'it''s'",
    "\"multi\nline\" x", "\"unterminated", "'ends in \\", "\"\\",
    "x\n  @", "a\n\n   #b", "caf\u00e9 \u0663\u0664 _x9 x_", "a\u00a0b",
    "+=-=*=/=%===!=<=>=&&||=>++--<<>>&=|=^=", "a=>b<c>d!e&f|g^h~i?j:k",
)


def test_lexer_matches_the_oracle_on_every_source_and_error_case():
    sources = [*_test_sources(), *_LEXER_CASES]
    assert len(sources) > 100
    for source in sources:
        assert _lexed(tokenize, source) == \
            _lexed(lexer_oracle.tokenize, source), source
    errors = {_lexed(tokenize, s)[1] for s in _LEXER_CASES
              if _lexed(tokenize, s)[0] == "error"}
    assert errors == {"unterminated block comment",
                      "unterminated string literal",
                      "unexpected character '@'", "unexpected character '#'",
                      "unexpected character '\\xa0'"}


def test_lexer_matches_the_oracle_on_random_text():
    # ASCII, a decimal digit and a letter beyond it; characters that are
    # digits but not decimal ones (such as "\u00b2") lex as identifier
    # characters, where the oracle made them numbers or errors
    rng = random.Random(20)
    alphabet = "ab_xZ09 \t\r\n/*\"'\\+=-<>!&|^~?:;,.(){}[]@#$0x1F\u00e9\u0663"
    for _ in range(3000):
        source = "".join(rng.choice(alphabet)
                         for _ in range(rng.randint(0, 30)))
        assert _lexed(tokenize, source) == \
            _lexed(lexer_oracle.tokenize, source), source
