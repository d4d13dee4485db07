"""Statement execution, calls, transactions, and their invariants."""

import random
import sys

import pytest

from solsem import ast, parse, typesys
from solsem.errors import (
    DuplicateDeclaration, RangeError, SolsemError, SolTypeError, TxAborted,
)
from solsem.evaluator import read_value
from solsem.executor import Executor, Tx
from solsem.state import EngineOptions, decode_value
from solsem.trace import Trace, committed, expand, replay_storage_writes
from solsem.typesys import UInt

from conftest import deploy, make_world, python_bytecodes, python_calls, \
    read, world_from_source

U256 = UInt(256)


def _warnings(world) -> list:
    """The notes of the world's committed WARN events, in log order."""
    return [e.note for e in committed(world.trace.events) if e.rule == "WARN"]


# -- the aliasing examples -----------------------------------------------------

def test_foo_overwrites_slots_zero_and_one():
    world = make_world("test.sol")
    address = deploy(world, "Test")
    res = Executor(world).run_transaction(Tx(sender=1, to=address, fname="foo"))
    assert res.ok
    st = world.instance(address).config.storage
    assert st.read(0, 32) == (7).to_bytes(32, "big")
    assert st.read(32, 32) == (8).to_bytes(32, "big")
    assert read(world, address, "a") == 0
    assert read(world, address, "b") == 8


def test_foo2_changes_first_row_only():
    world = make_world("test2.sol")
    address = deploy(world, "Test2")
    Executor(world).run_transaction(Tx(sender=1, to=address, fname="foo2"))
    config = world.instance(address).config
    b = read_value(world, config, "storage", 32,
                   typesys.StaticArray(typesys.StaticArray(UInt(128), 3), 2))
    assert b == [[0, 10, 0], [4, 5, 6]]


def test_uninitialized_pointer_warns():
    world = make_world("test.sol")
    address = deploy(world, "Test")
    Executor(world).run_transaction(Tx(sender=1, to=address, fname="foo"))
    assert any("uninitialized storage pointer" in note
               for note in _warnings(world))


def test_while_false_is_a_no_op():
    world = world_from_source("""
    contract W { uint x;
      function f() public { while (false) { x = 1; } } }""")
    address = deploy(world, "W")
    before = world.storage_fingerprint()
    res = Executor(world).run_transaction(Tx(sender=1, to=address, fname="f"))
    assert res.ok
    assert world.storage_fingerprint() == before
    assert any(e.rule == "WHILE1" for e in expand(res.events))
    assert not any(e.rule == "WHILE2" for e in expand(res.events))


def test_declaration_in_a_loop_body_runs_again():
    # pre-0.5 locals are scoped to the whole function: a declaration run again
    # rebinds its local; a second declaration of the name does not register
    world = world_from_source("""
    contract W { uint s;
      function f() public {
        uint i = 0;
        while (i < 3) { uint x = i; uint[2] m; uint[2] storage p; i = i + 1; }
        s = i; } }""")
    address = deploy(world, "W")
    ex = Executor(world)
    res = ex.run_transaction(Tx(sender=1, to=address, fname="f"))
    assert res.ok
    assert read(world, address, "s") == 3
    with pytest.raises(DuplicateDeclaration, match="x already declared"):
        world_from_source("""
        contract V { function g() public { uint x = 1; uint x = 2; } }""")


# -- push --------------------------------------------------------------------------

def test_push_pair_and_length():
    world = make_world("test3.sol")
    address = deploy(world, "Test3")
    Executor(world).run_transaction(Tx(sender=1, to=address, fname="foo3"))
    assert read(world, address, "a.length") == 2
    assert read(world, address, "a[0]") == 10
    assert read(world, address, "a[1]") == 11


def test_push_onto_empty_stores_at_index_zero():
    world = world_from_source("""
    contract P { uint[] xs;
      function once() public { xs.push(77); } }""")
    address = deploy(world, "P")
    Executor(world).run_transaction(Tx(sender=1, to=address, fname="once"))
    assert read(world, address, "xs.length") == 1
    assert read(world, address, "xs[0]") == 77


def test_random_pushes_match_list_oracle():
    world = world_from_source("""
    contract P { uint[] xs;
      function add(uint v) public { xs.push(v); } }""")
    address = deploy(world, "P")
    ex = Executor(world)
    rng = random.Random(31)
    model = []
    for _ in range(50):
        v = rng.randrange(0, 1 << 64)
        assert ex.run_transaction(Tx(sender=1, to=address, fname="add",
                                     args=(v,))).ok
        model.append(v)
    assert read(world, address, "xs.length") == len(model)
    for i, v in enumerate(model):
        assert read(world, address, f"xs[{i}]") == v


# -- internal calls and guards ---------------------------------------------------------

def test_mint_guard_blocks_non_minter(coin_world):
    address = deploy(coin_world, "Coin", sender=0x5EED)
    ex = Executor(coin_world)
    res = ex.run_transaction(Tx(sender=0xBAD, to=address, fname="mint",
                                args=(0xB0B, 5)))
    assert res.ok  # the guarded early return is not an error
    assert read(coin_world, address, "balances[0xB0B]") == 0
    ex.run_transaction(Tx(sender=0x5EED, to=address, fname="mint",
                          args=(0xB0B, 5)))
    assert read(coin_world, address, "balances[0xB0B]") == 5


def test_guard_style_modifier_skips_body():
    world = world_from_source("""
    contract M {
      address owner;
      uint x;
      modifier onlyOwner { if (msg.sender == owner) _; }
      function M() public { owner = msg.sender; }
      function setX(uint v) public onlyOwner { x = v; }
    }""")
    address = deploy(world, "M", sender=0xAA)
    ex = Executor(world)
    ex.run_transaction(Tx(sender=0xBB, to=address, fname="setX", args=(9,)))
    assert read(world, address, "x") == 0  # condition false: body skipped
    ex.run_transaction(Tx(sender=0xAA, to=address, fname="setX", args=(9,)))
    assert read(world, address, "x") == 9


def test_general_modifier_runs_the_body_at_its_placeholder():
    world = world_from_source("""
    contract M {
      uint log;
      uint x;
      modifier noted { log = log + 1; _; log = log + 100; }
      function bump2() public noted { x = x + 1; }
    }""")
    address = deploy(world, "M")
    Executor(world).run_transaction(Tx(sender=1, to=address, fname="bump2"))
    assert read(world, address, "x") == 1
    assert read(world, address, "log") == 101


# each modifier application is a scope of its own, and runs where it is
# listed; its `_;` runs what it wraps (the function's block, or the next
# modifier inward) as one statement, and goes on after it
_MODIFIED = [  # (modifiers and f, in `contract C { uint y; ... }`) ->
    # (y after f, f's value, statements run, SEQs), or (registration error,
    # the text its span starts at)
    ("modifier m { uint x = 1; _; } function f() m public { y = x; }",
     ("unknown identifier x", "x; }")),
    ("modifier m { uint x = 1; _; } "
     "function f() m public { uint x = 2; y = x; }", (2, None, 4, 2)),
    ("modifier m { uint x = y + 1; y = x; _; y = y * 10 + x; } "
     "function f() m m public { }", (221, None, 8, 2)),
    ("modifier m { y = v; _; } function f(uint v) m public { }",
     ("unknown identifier v", "v; _")),
    ("modifier g { if (v == 1) _; } function f(uint v) g public { }",
     ("unknown identifier v", "v ==")),
    ("modifier m { _; y = y + 100; } "
     "function f() m public returns (uint) { y = 1; return 7; }",
     (101, 7, 4, 2)),
    ("modifier n { y = 5; _; y = y + 100; } modifier g { if (y == 5) _; } "
     "function f() n g public { y = y + 1; }", (106, None, 6, 1)),
    ("modifier n { _; y = y + 100; } modifier g { if (y == 5) _; } "
     "function f() n g public { y = 1; }", (100, None, 3, 1)),
    ("modifier n { y = 1; _; y = y + 100; } "
     "modifier m { y = y + 10; return; _; } "
     "function f() n m public { y = y + 1000; }", (111, None, 5, 2)),
    ("modifier m { return 5; _; } "
     "function f() m public returns (uint) { y = 1; }",
     ("return value in a modifier", "return 5")),
    ("modifier m { _; } function f() m public { if (y == 0) { _; } }",
     ("placeholder `_;` is only valid inside a modifier body", "_; } }")),
]


@pytest.mark.parametrize("decls, expected", _MODIFIED)
def test_a_modifier_is_a_scope_that_runs_where_it_is_listed(decls, expected):
    source = f"contract C {{ uint y; {decls} }}"
    if isinstance(expected[0], str):
        with pytest.raises(SolsemError) as err:
            world_from_source(source)
        message, at = expected
        assert (err.value.message, err.value.span.line, err.value.span.col) \
            == (message, 1, source.index(at) + 1)
        return
    world = world_from_source(source)
    address = deploy(world, "C")
    res = Executor(world).run_transaction(Tx(sender=1, to=address, fname="f"))
    assert res.ok, res.error
    seqs = sum(e.rule == "SEQ" for e in expand(res.events))
    assert (read(world, address, "y"), res.value, res.steps, seqs) == \
        expected


@pytest.mark.parametrize("stmt, message", [
    (ast.Placeholder(), "placeholder `_;` is only valid inside a modifier body"),
    (ast.ExprStmt(expr=ast.Binary(op="**", lhs=ast.IntLit(value=2),
                                  rhs=ast.IntLit(value=3))),
     "operator ** not defined"),
    (ast.ExprStmt(expr=ast.Unary(op="~", operand=ast.IntLit(value=2))),
     "operator ~ not defined"),
], ids=["placeholder", "binary", "unary"])
def test_a_library_built_statement_is_checked_at_registration(stmt, message):
    # a library can build what the parser never makes, or (`_;`) makes
    # anywhere: registration rejects it, so the function never runs
    unit = parse("contract C { uint y; function f() public { y = 1; } }")
    unit.contract("C").functions[0].body.append(stmt)
    world = make_world("coin.sol")
    registry = dict(world.registry)
    with pytest.raises(SolTypeError) as err:
        world.register(unit)
    assert err.value.message == message
    assert world.registry == registry


# one source node, one rule: a compound assignment runs its rhs, then its
# target's address once (solc's order); a `do` loop's body is one block, run
# once before the first test
_ONE_RULE_PER_NODE = [  # (declarations in `contract C { uint y; ... }`) ->
    # y after f
    ("uint[3] a; uint calls; "
     "function g() internal returns (uint) { calls = calls + 1; return 1; } "
     "function f() public { a[g()] += 5; y = a[1] * 10 + calls; }", 51),
    ("function g() internal returns (uint) { y = 10; return 1; } "
     "function f() public { y += g(); }", 11),
    ("function f() public { do { uint k = 1; y = y + k; } while (y < 3); }",
     3),
    ("function f() public { y = 7; do { y = y + 1; } while (y < 3); }", 8),
    # a `return` on the first pass leaves the function, not only the loop
    ("function f() public { do { y = 5; return; } while (y < 3); y = 9; }",
     5),
]


@pytest.mark.parametrize("decls, y", _ONE_RULE_PER_NODE)
def test_each_source_node_runs_once_by_its_own_rule(decls, y):
    world = world_from_source(f"contract C {{ uint y; {decls} }}")
    address = deploy(world, "C")
    res = Executor(world).run_transaction(Tx(sender=1, to=address, fname="f"))
    assert res.ok, res.error
    assert read(world, address, "y") == y


def test_a_guard_is_the_if_it_is():
    # `if (y == 0) _;` applies COND1 or COND2 and counts its statements, as
    # the same `if` does anywhere else
    world = world_from_source("contract C { uint y; "
                              "modifier g { if (y == 0) _; } "
                              "function f() g public { y = 1; } }")
    address = deploy(world, "C")
    ex = Executor(world)
    for rule, steps in (("COND1", 3), ("COND2", 1)):  # y == 0, then y == 1
        res = ex.run_transaction(Tx(sender=1, to=address, fname="f"))
        assert res.ok, res.error
        rules = {e.rule for e in expand(res.events)}
        assert (rules & {"COND1", "COND2"}, res.steps) == ({rule}, steps)


def test_internal_expression_call_returns_value():
    world = world_from_source("""
    contract C {
      uint out;
      function twice(uint v) internal returns (uint) { return v + v; }
      function f() public { out = twice(21); }
    }""")
    address = deploy(world, "C")
    Executor(world).run_transaction(Tx(sender=1, to=address, fname="f"))
    assert read(world, address, "out") == 42


def test_function_without_return_statement_yields_zero():
    world = world_from_source("""
    contract C {
      uint out;
      function silent() internal returns (uint) { out = 5; }
      function f() public { out = silent() + out; }
    }""")
    address = deploy(world, "C")
    Executor(world).run_transaction(Tx(sender=1, to=address, fname="f"))
    assert read(world, address, "out") == 5  # 0 + 5


def _rejected(source: str) -> SolTypeError:
    """The type error that registering `source` raises, which has a span."""
    with pytest.raises(SolTypeError) as err:
        world_from_source(source)
    assert err.value.span is not None, err.value.message
    return err.value


def test_an_internal_call_with_the_wrong_argument_count_does_not_register():
    # every internal call site is compiled at registration, so its argument
    # count is checked there, at the call, and never at run time
    err = _rejected("""
    contract C {
      uint out;
      function g(uint x) { out = x; }
      function f() public { g(1, 2); }
    }""")
    assert err.message == "g expects 1 arguments, got 2"
    assert (err.span.line, err.span.col) == (5, 29)  # the call


def test_arguments_from_outside_are_counted_at_run_time(dao_world):
    # a transaction, a deploy and a named call on a plain address carry
    # arguments, and name a function, that no registration saw
    ex = Executor(dao_world)
    bank = deploy(dao_world, "Bank", value=10)
    before = dao_world.storage_fingerprint()
    res = ex.run_transaction(Tx(sender=1, to=bank, fname="withdraw",
                                args=(1, 2)))
    assert not res.ok
    assert res.error.reason == "withdraw expects 1 arguments, got 2"
    with pytest.raises(TxAborted, match="Attack expects 1 arguments, got 0"):
        ex.deploy("Attack", sender=0xB)
    with pytest.raises(TxAborted,
                       match="Bank has no constructor but got arguments"):
        ex.deploy("Bank", args=(1,), sender=0xB)
    assert dao_world.storage_fingerprint() == before
    world = world_from_source("""
    contract R { uint hits; function g(uint x) public { hits = x; } }
    contract P { function pay(address to) public { to.g(1, 2); }
                 function miss(address to) public { to.h(); } }""")
    r, p = deploy(world, "R"), deploy(world, "P")
    before = world.storage_fingerprint()
    ex = Executor(world)
    res = ex.run_transaction(Tx(sender=1, to=p, fname="pay", args=(r,)))
    assert not res.ok
    assert res.error.reason == "g expects 1 arguments, got 2"
    assert repr(res.error.cause.span) == "3:54"  # the call's
    res = ex.run_transaction(Tx(sender=1, to=p, fname="miss", args=(r,)))
    assert (res.ok, res.error.reason) == (False, "R has no function h")
    assert world.storage_fingerprint() == before


@pytest.mark.parametrize("amounts", [
    {"value": -5}, {"value": 1.0}, {"value": True}, {"gas": -1}])
def test_a_library_tx_with_a_bad_value_or_gas_aborts(coin_world, amounts):
    # a library Tx is not parsed as a scenario line is: the bracket checks
    # its value and gas, so no balance goes negative or turns into a float
    ex = Executor(coin_world)
    coin = deploy(coin_world, "Coin", sender=0xA)
    before = coin_world.storage_fingerprint()
    n = len(coin_world.trace.events)
    res = ex.run_transaction(Tx(sender=0xA, to=coin, fname="mint",
                                args=(0xB, 2), **amounts))
    assert not res.ok and isinstance(res.error.cause, SolTypeError)
    assert "must be non-negative integers" in res.error.reason
    with pytest.raises(TxAborted, match="must be non-negative integers"):
        ex.deploy("Coin", sender=0xA, **amounts)
    assert coin_world.storage_fingerprint() == before
    assert [e.rule for e in coin_world.trace.events[n:]] == \
        ["TX-START", "TX-ABORT"] * 2


def test_a_mapping_key_wider_than_a_word_does_not_register():
    # bytes32(k) must hold the key: rejected where the mapping is declared
    err = _rejected("contract M {\n  mapping(uint[2] => uint) m;\n}")
    assert err.message == "mapping key uint256[2] is wider than 32 bytes"
    assert (err.span.line, err.span.col) == (2, 3)
    err = _rejected("contract M { struct S { mapping(address[2] => uint) m; }"
                    "\n  function f() public {\n"
                    "    mapping(uint8[33] => bool) storage p; } }")
    assert (err.span.line, err.span.col) == (1, 25)
    for key in ("uint[2][1]", "uint8[33][1]", "uint8[2][2]"):  # nested arrays
        err = _rejected(f"contract M {{ mapping({key} => uint) m; }}")
        assert err.message.startswith("mapping key "), key
    assert world_from_source(  # two addresses take 40 bytes, 32 uint128s 512
        "contract M { mapping(uint128[2] => uint) a;"
        " mapping(uint8[32] => uint) b; mapping(uint8[2][1] => uint) c; }"
    ).registry["M"]


def test_value_of_a_function_without_return_aborts_before_it_runs():
    # rejected when the contract is registered, so g can never run
    err = _rejected("""
    contract C {
      uint out;
      function g() internal { out = 7; }
      function f() public { uint x = g(); out = x; }
    }""")
    assert err.message == "function g has no return value"
    assert repr(err.span) == "5:38"


def test_value_of_an_external_function_without_return_aborts_before_it_runs():
    world = world_from_source("""
    contract B { uint z; function g() public { z = 1; } }
    contract A {
      B b;
      function A(B _b) public { b = _b; }
      function f() public { uint y = b.g(); }
    }""")
    b = deploy(world, "B")
    a = deploy(world, "A", args=(b,))
    before = world.storage_fingerprint()
    res = Executor(world).run_transaction(Tx(sender=1, to=a, fname="f"))
    assert not res.ok
    assert isinstance(res.error.cause, SolTypeError)
    assert res.error.cause.message == "function g of B has no return value"
    assert all(ev.fn != "g" for ev in res.events)  # g never ran
    assert world.storage_fingerprint() == before



def test_an_external_call_is_typed_by_the_function_it_reaches():
    # `b` is a plain address: the call is typed by what every registered
    # function named g (or ok) returns, as an operand or as a value
    world = world_from_source("""
    contract B {
      function g() public returns (uint) { return 41; }
      function ok() public returns (bool) { return true; }
    }
    contract A {
      address b; uint out; uint kept;
      function A(address _b) public { b = _b; }
      function operand() public { out = b.g() + 1; }
      function value() public { uint y = b.g(); kept = y; }
      function condition() public { if (b.ok()) { kept = kept + 1; } }
    }""")
    b = deploy(world, "B")
    a = deploy(world, "A", args=(b,))
    ex = Executor(world)
    for fname in ("operand", "value", "condition"):
        res = ex.run_transaction(Tx(sender=1, to=a, fname=fname))
        assert res.ok, (fname, res.error)
    assert (read(world, a, "out"), read(world, a, "kept")) == (42, 42)


def test_a_call_is_typed_by_what_the_functions_of_its_name_return():
    # B.g and D.g disagree, so a call on a plain address has no static type:
    # it stands as a value but not as an operand. On a B-typed target the
    # call is typed by B.g, and reaching D.g instead aborts
    source = """
    contract B { function g() public returns (uint) { return 41; } }
    contract D { function g() public returns (bool) { return true; } }
    contract A {
      address a; B b; uint out;
      function A(address x) public { a = x; b = B(x); }
      function value() public { uint y = a.g(); out = y; }
      function typed() public { out = b.g() + 1; }
      function typedValue() public { uint y = b.g(); out = y; }
    %s}"""
    err = _rejected(source % "function operand() public { out = a.g() + 1; }")
    assert err.message == \
        "cannot statically type an external call on a plain address"
    world = world_from_source(source % "")
    ex = Executor(world)
    on_b = deploy(world, "A", args=(deploy(world, "B"),))
    on_d = deploy(world, "A", args=(deploy(world, "D"),))
    assert ex.run_transaction(Tx(sender=1, to=on_b, fname="value")).ok
    assert ex.run_transaction(Tx(sender=1, to=on_b, fname="typed")).ok
    assert read(world, on_b, "out") == 42
    before = world.storage_fingerprint()
    other = "function g of D returns bool, not uint256"
    for to, fname in ((on_d, "typed"), (on_d, "typedValue")):
        res = ex.run_transaction(Tx(sender=1, to=to, fname=fname))
        assert not res.ok and isinstance(res.error.cause, SolTypeError)
        assert res.error.cause.message == other, fname
        assert all(e.fn != "g" for e in res.events)  # g never ran
    assert world.storage_fingerprint() == before


def test_a_local_used_before_its_declaration_aborts():
    # pre-0.5 locals are scoped to the whole function: the `y` read here is
    # the local, not yet bound, not the state variable of the same name
    world = world_from_source("""
    contract C {
      uint y = 7; uint out;
      function f() public { out = 1; out = y; uint y = 3; }
      function g() public { out = 1; y = 2; uint y = 3; }
    }""")
    address = deploy(world, "C")
    before = world.storage_fingerprint()
    for fname, span in (("f", "4:44"), ("g", "5:38")):  # a read, a target
        res = Executor(world).run_transaction(Tx(sender=1, to=address,
                                                 fname=fname))
        assert not res.ok
        assert res.error.cause.message == "unknown identifier y"
        assert repr(res.error.cause.span) == span
        assert world.storage_fingerprint() == before


_PARAMETERS = [(f"uint{w}", UInt(w), (0, 1, (1 << w) - 1))
               for w in (8, 16, 32, 64, 128, 256)] + [
    ("address", typesys.Address(), (0, 0xB0B, (1 << 160) - 1)),
    ("D", typesys.Contract("D"), (0, (1 << 160) - 1)),
    ("int256", typesys.Int256(), (0, -1, 1 << 254, -(1 << 255))),
    ("bool", typesys.BOOL, (False, True))]


@pytest.mark.parametrize("name, t, values", _PARAMETERS,
                         ids=[p[0] for p in _PARAMETERS])
def test_a_parameter_binds_and_reads_back_as_encode_value_gives(name, t,
                                                                values):
    # the one-call bind writes a fresh slot; the local read is one closure
    world = world_from_source(f"""
    contract D {{ }}
    contract C {{
      function f({name} x) public returns ({name}) {{ return x; }} }}""")
    address = deploy(world, "C")
    memory = world.instance(address).config.memory
    words = []
    world.options.step_hook = lambda w, step: words.append(dict(memory.words))
    for v in values:
        res = Executor(world).run_transaction(Tx(sender=1, to=address,
                                                 fname="f", args=(v,)))
        assert res.ok and res.value == v and type(res.value) is type(v)
        data = typesys.encode_value(v, t)
        bind = next(ev for ev in res.events if ev.rule == "VD2")
        [write] = bind.writes
        assert (write.space, write.data) == ("memory", data)
        word = data.ljust(32, b"\x00")
        assert words.pop().get(write.at // 32, bytes(32)) == word


_KEYS = """
contract K {
  mapping(address => uint) a; mapping(uint => uint) u;
  mapping(uint8[2] => uint) s;
  function f(address k, uint j) public { a[k] = 1; u[j] = 2; }
  function g(uint8 x) public { uint8[2] memory k; k[1] = x; s[k] = 3; }
}"""


def test_a_mapping_key_derives_the_oracles_slot():
    # a uint or address key is its bytes32 inline; a static-array key is
    # still encoded by key_encoder
    from keccak_oracle import keccak256_oracle_int
    world = world_from_source(_KEYS)
    address = deploy(world, "K")
    hashed = world.instance(address).config.storage.hashed
    ex = Executor(world)

    def slot(base: int, key32: bytes) -> int:
        return keccak256_oracle_int(base.to_bytes(32, "big") + key32)
    for k, j in ((0, 0), ((1 << 160) - 1, (1 << 256) - 1)):
        assert ex.run_transaction(Tx(sender=1, to=address, fname="f",
                                     args=(k, j))).ok
        assert hashed[slot(0, k.to_bytes(32, "big"))].key == k
        assert hashed[slot(1, j.to_bytes(32, "big"))].key == j
    assert ex.run_transaction(Tx(sender=1, to=address, fname="g",
                                 args=(7,))).ok
    assert hashed[slot(2, bytes(30) + b"\x00\x07")].key == [0, 7]


@pytest.mark.parametrize("fname, arg", [
    ("f", "12"), ("f", 3.9), ("f", True), ("f", None), ("f", "abc"),
    ("g", "x"), ("g", 2), ("g", 1), ("h", 5), ("h", None), ("h", b"x"),
    ("k", True)])
def test_an_argument_of_another_kind_aborts_the_transaction(fname, arg):
    # a transaction's argument is not coerced: a uint, address or contract
    # takes an int that is not a bool, a bool a bool, a string a str
    world = world_from_source("""
    contract K {
      uint u; bool b; string s; address a;
      function f(uint x) public { u = x; }
      function g(bool x) public { b = x; }
      function h(string x) public { s = x; }
      function k(address x) public { a = x; }
    }""")
    address = deploy(world, "K")
    before = world.storage_fingerprint()
    res = Executor(world).run_transaction(Tx(sender=1, to=address,
                                             fname=fname, args=(arg,)))
    assert not res.ok and isinstance(res.error.cause, SolTypeError)
    assert res.error.cause.message.startswith(f"{arg!r} is not a value of ")
    assert world.storage_fingerprint() == before


def test_a_constructor_argument_of_another_kind_aborts_the_deploy():
    world = world_from_source(
        "contract K { uint u; function K(uint x) public { u = x; } }")
    with pytest.raises(TxAborted, match="'7' is not a value of type uint256"):
        deploy(world, "K", args=("7",))
    assert world.instances == {}


def test_an_ill_typed_branch_is_rejected_at_registration():
    # no call ever takes the branch: the whole function is type-checked
    err = _rejected("""
    contract C {
      bool flag; uint out;
      function f(bool go) public { if (go) { out = flag + 1; } out = 2; }
    }""")
    assert err.message == "arithmetic on non-numeric types bool/uint256"
    assert repr(err.span) == "4:57"  # the operator


# -- return ------------------------------------------------------------------------------

def test_transaction_returns_declared_value(dao_world):
    bank = deploy(dao_world, "Bank", value=10)
    ex = Executor(dao_world)
    ex.run_transaction(Tx(sender=0xEE, to=bank, fname="deposit", value=4))
    res = ex.run_transaction(Tx(sender=1, to=bank, fname="getUserBalance",
                                args=(0xEE,)))
    assert res.ok and res.value == 4


def test_bare_return_unwinds():
    world = world_from_source("""
    contract C { uint x;
      function f() public { x = 1; return; x = 2; } }""")
    address = deploy(world, "C")
    assert Executor(world).run_transaction(Tx(sender=1, to=address,
                                              fname="f")).ok
    assert read(world, address, "x") == 1


# reference mini-interpreter (explicit return propagation) for loop/return
# interaction, mirrored over three hand cases

def _mini_eval(e, env):
    kind = e[0]
    if kind == "lit":
        return e[1]
    if kind == "var":
        return env[e[1]]
    lhs, rhs = _mini_eval(e[1], env), _mini_eval(e[2], env)
    return {"+": lambda: (lhs + rhs) % (1 << 256),
            "<": lambda: lhs < rhs,
            "==": lambda: lhs == rhs}[kind]()


def _mini_exec(stmts, env):
    for s in stmts:
        if s[0] == "set":
            env[s[1]] = _mini_eval(s[2], env)
        elif s[0] == "while":
            while _mini_eval(s[1], env):
                r = _mini_exec(s[2], env)
                if r is not None:
                    return r
        elif s[0] == "if":
            branch = s[2] if _mini_eval(s[1], env) else s[3]
            r = _mini_exec(branch, env)
            if r is not None:
                return r
        elif s[0] == "ret":
            return ("ret", _mini_eval(s[1], env))
    return None


_RETURN_CASES = [
    # (solidity body, mirrored mini program, state var checked)
    ("""
     uint i = 0;
     while (i < 10) {
        if (i == 3) { marker = i; return i; }
        i = i + 1;
     }
     return 99;
     """,
     [("set", "i", ("lit", 0)),
      ("while", ("<", ("var", "i"), ("lit", 10)),
       [("if", ("==", ("var", "i"), ("lit", 3)),
         [("set", "marker", ("var", "i")), ("ret", ("var", "i"))],
         []),
        ("set", "i", ("+", ("var", "i"), ("lit", 1)))]),
      ("ret", ("lit", 99))]),
    ("""
     uint i = 0;
     uint j = 0;
     while (i < 4) {
        j = 0;
        while (j < 4) {
           if (i + j == 5) { marker = i; return j; }
           j = j + 1;
        }
        i = i + 1;
     }
     return 77;
     """,
     [("set", "i", ("lit", 0)), ("set", "j", ("lit", 0)),
      ("while", ("<", ("var", "i"), ("lit", 4)),
       [("set", "j", ("lit", 0)),
        ("while", ("<", ("var", "j"), ("lit", 4)),
         [("if", ("==", ("+", ("var", "i"), ("var", "j")), ("lit", 5)),
           [("set", "marker", ("var", "i")), ("ret", ("var", "j"))], []),
          ("set", "j", ("+", ("var", "j"), ("lit", 1)))]),
        ("set", "i", ("+", ("var", "i"), ("lit", 1)))]),
      ("ret", ("lit", 77))]),
    ("""
     uint i = 0;
     while (i < 3) { marker = marker + i; i = i + 1; }
     return 99;
     """,
     [("set", "i", ("lit", 0)),
      ("while", ("<", ("var", "i"), ("lit", 3)),
       [("set", "marker", ("+", ("var", "marker"), ("var", "i"))),
        ("set", "i", ("+", ("var", "i"), ("lit", 1)))]),
      ("ret", ("lit", 99))]),
]


@pytest.mark.parametrize("case", range(len(_RETURN_CASES)))
def test_return_in_loops_matches_mini_interpreter(case):
    body, mini, = _RETURN_CASES[case]
    world = world_from_source(
        "contract C { uint marker;\n"
        "  function f() public returns (uint) {\n" + body + "} }")
    address = deploy(world, "C")
    res = Executor(world).run_transaction(Tx(sender=1, to=address, fname="f"))
    env = {"marker": 0}
    expected = _mini_exec(mini, env)
    assert res.ok
    assert ("ret", res.value) == expected
    assert read(world, address, "marker") == env["marker"]


# -- external calls ----------------------------------------------------------------------

def test_add_to_balance_moves_value_and_credit(dao_world):
    bank = deploy(dao_world, "Bank", value=10)
    attack = Executor(dao_world).deploy("Attack", args=(bank,), sender=0xB,
                                        value=2)
    res = Executor(dao_world).run_transaction(
        Tx(sender=0xB, to=attack, fname="addToBalance"))
    assert res.ok
    assert dao_world.instance(bank).balance == 12
    assert dao_world.instance(attack).balance == 0
    assert read(dao_world, bank, f"credit[{attack}]") == 2


def test_external_call_to_unknown_address_aborts():
    world = world_from_source("""
    contract C {
      function f(address other) public { C(other).f(other); } }""")
    address = deploy(world, "C")
    before = world.storage_fingerprint()
    res = Executor(world).run_transaction(
        Tx(sender=1, to=address, fname="f", args=(0xDEAD,)))
    assert not res.ok
    assert "no contract instance" in str(res.error)
    assert world.storage_fingerprint() == before


def test_nested_omega_depths_during_reentry(dao_world):
    bank = deploy(dao_world, "Bank", value=10)
    ex = Executor(dao_world)
    attack = ex.deploy("Attack", args=(bank,), sender=0xB, value=2)
    ex.run_transaction(Tx(sender=0xB, to=attack, fname="addToBalance"))
    res = ex.run_transaction(Tx(sender=0xB, to=attack, fname="withdrawBalance"))
    assert res.ok
    depths = [e.omega for e in res.events
              if e.rule == "E-FUN1" and e.addr == bank]
    assert depths[:2] == [1, 2]
    assert max(depths) >= 2
    assert dao_world.instance(bank).balance == 0
    assert dao_world.instance(attack).balance == 12


def test_fallback_invoked_by_low_level_call(dao_world):
    bank = deploy(dao_world, "Bank", value=10)
    ex = Executor(dao_world)
    attack = ex.deploy("Attack", args=(bank,), sender=0xB, value=2)
    ex.run_transaction(Tx(sender=0xB, to=attack, fname="addToBalance"))
    res = ex.run_transaction(Tx(sender=0xB, to=attack, fname="withdrawBalance"))
    fallback_entries = [e for e in res.events
                        if e.rule == "E-FUN2" and e.addr == attack]
    assert fallback_entries, "the victim's transfer must invoke the fallback"


def test_fallbackless_recipient_still_receives_value():
    world = world_from_source("""
    contract Quiet { uint x; }
    contract Payer {
      function pay(address to) public { to.call.value(1)(); } }""")
    ex_world = Executor(world)
    quiet = ex_world.deploy("Quiet")
    payer = ex_world.deploy("Payer", value=3)
    res = Executor(world).run_transaction(
        Tx(sender=1, to=payer, fname="pay", args=(quiet,)))
    assert res.ok
    assert world.instance(quiet).balance == 1
    assert world.instance(payer).balance == 2
    assert any("no fallback" in note for note in _warnings(world))


def test_value_zero_fallback_call_runs_body():
    world = world_from_source("""
    contract Recv { uint hits; function() payable { hits = hits + 1; } }
    contract Pinger {
      function ping(address to) public { to.call.value(0)(); } }""")
    ex = Executor(world)
    recv = ex.deploy("Recv")
    pinger = ex.deploy("Pinger")
    res = ex.run_transaction(Tx(sender=1, to=pinger, fname="ping",
                                args=(recv,)))
    assert res.ok
    assert read(world, recv, "hits") == 1
    assert world.instance(recv).balance == 0


def test_low_level_call_value_is_its_success():
    world = world_from_source("""
    contract Recv { uint hits; function() payable { hits = hits + 1; } }
    contract Payer {
      bool funded; bool unfunded = true;
      function pay(address to) public {
        bool ok = to.call.value(1)();
        funded = ok;
        if (to.call.value(1000)()) { } else { unfunded = false; }
      } }""")
    ex = Executor(world)
    recv = ex.deploy("Recv")
    payer = ex.deploy("Payer", value=3)
    res = ex.run_transaction(Tx(sender=1, to=payer, fname="pay",
                                args=(recv,)))
    assert res.ok, res.error
    assert (read(world, payer, "funded"), read(world, payer, "unfunded")) \
        == (True, False)
    # the unfunded call moved nothing and ran no code
    assert (world.instance(recv).balance, world.instance(payer).balance) \
        == (1, 2)
    assert read(world, recv, "hits") == 1
    warns = [e.note for e in res.events if e.rule == "WARN"]
    assert len(warns) == 1 and "low-level call failed" in warns[0]


@pytest.mark.parametrize("stmt,funds,rule,moved", [
    ("address(b).call.value(0)();", 0, "E-FUN2", 0),
    ("address(b).call.value(1)();", 3, "E-FUN2", 1),
    ("address(b).call.value(1)();", 0, "WARN", 0),  # fails softly
    ("uint(b);", 0, None, 0),
    ("address(b);", 0, None, 0),
    ("Bank(b);", 0, None, 0),
])
def test_a_statement_may_begin_with_a_cast(stmt, funds, rule, moved):
    # an expression statement, not a declaration; a cast alone has no effect
    world = world_from_source("""
    contract Recv { uint hits; function() payable { hits = hits + 1; } }
    contract Bank { function f(address b) public { %s } }""" % stmt)
    ex = Executor(world)
    recv, bank = ex.deploy("Recv"), ex.deploy("Bank", value=funds)
    before = world.storage_fingerprint()
    res = ex.run_transaction(Tx(sender=1, to=bank, fname="f", args=(recv,)))
    assert res.ok, res.error
    rules = [e.rule for e in expand(res.events)]
    assert [r for r in rules if r in ("E-FUN2", "WARN")] == [rule] * bool(rule)
    assert rules[-2:] == ["SKIP1", "TX-END"]
    assert (world.instance(recv).balance, world.instance(bank).balance) \
        == (moved, funds - moved)
    assert read(world, recv, "hits") == (rule == "E-FUN2")
    if rule is None:
        assert world.storage_fingerprint() == before


def test_insufficient_balance_for_named_value_call_aborts(dao_world):
    bank = deploy(dao_world, "Bank", value=10)
    ex = Executor(dao_world)
    attack = ex.deploy("Attack", args=(bank,), sender=0xB, value=0)
    before = dao_world.storage_fingerprint()
    res = ex.run_transaction(Tx(sender=0xB, to=attack, fname="addToBalance"))
    assert not res.ok
    assert "wei" in str(res.error)
    assert dao_world.storage_fingerprint() == before  # atomic rollback



@pytest.mark.parametrize("call", [
    "to.call.value(true)();",
    "to.call.value(1).gas(true)();",
    "R(to).g.value(true)();",
    "R(to).g.value(1).gas(true)();",
    "bool ok = to.call.value(1).gas(false)();",
])
def test_a_non_integer_call_value_or_gas_aborts(call):
    # registration rejects the contract, so no wei can move
    err = _rejected(f"""
    contract R {{ uint hits; function g() public {{ hits = 1; }}
                  function() payable {{ hits = 2; }} }}
    contract Payer {{ function pay(address to) public {{ {call} }} }}""")
    assert err.message.endswith("must be an unsigned integer, not bool")


# -- transactions --------------------------------------------------------------------------

def test_sequential_transactions_observe_commits(coin_world):
    address = deploy(coin_world, "Coin", sender=0xA)
    ex = Executor(coin_world)
    ex.run_transaction(Tx(sender=0xA, to=address, fname="mint", args=(0xB, 5)))
    ex.run_transaction(Tx(sender=0xA, to=address, fname="mint", args=(0xB, 5)))
    assert read(coin_world, address, "balances[0xB]") == 10


def test_abort_restores_bytes_for_runtime_faults():
    world = world_from_source("""
    contract F {
      uint a;
      uint[2] xs;
      function div0(uint d) public { a = 1; a = a / d; }
      function oob(uint i) public { a = 2; xs[i] = 1; }
      function warn(uint d) public { uint[2] p; p[0] = 1 / d; }
      string s;
      function neg(int i) public { a = 3; xs[i] = 1; }
      function three() public { a = 4; xs = [1, 2, 3]; }
      function text() public { a = 5; s = [1]; }
    }""")
    address = deploy(world, "F")
    ex = Executor(world)
    before = world.storage_fingerprint()
    res = ex.run_transaction(Tx(sender=1, to=address, fname="div0", args=(0,)))
    assert not res.ok and world.storage_fingerprint() == before
    res = ex.run_transaction(Tx(sender=1, to=address, fname="oob", args=(5,)))
    assert not res.ok and world.storage_fingerprint() == before
    # the aborted transaction's warning stays in its TX-ABORT slice of the
    # log, and goes with the slice out of the committed entries
    res = ex.run_transaction(Tx(sender=1, to=address, fname="warn", args=(0,)))
    assert not res.ok and world.storage_fingerprint() == before
    assert [e.rule for e in res.events if e.rule in ("WARN", "TX-ABORT")] \
        == ["WARN", "TX-ABORT"]
    assert _warnings(world) == []
    for fname, args, reason in (
            ("neg", (-1,), "negative index -1"),
            ("three", (), "expected 2 elements for uint256[2]"),
            ("text", (), "expected a string value")):
        res = ex.run_transaction(Tx(sender=1, to=address, fname=fname,
                                    args=args))
        assert (res.ok, res.error.reason) == (False, reason)
        assert world.storage_fingerprint() == before
    # committed sanity: the same functions succeed with benign arguments
    assert ex.run_transaction(Tx(sender=1, to=address, fname="div0",
                                 args=(1,))).ok


_ILL_TYPED = {  # the function (with its modifier) -> the type error's message
    "function f() public { a = 5; b = !a; }": "! requires a bool operand",
    "function f() public { a = 5; a = -b; }":
        "unary - requires a numeric operand",
    "function f() public { a = 5; b = true && a; }":
        "&& requires bool operands",
    "function f() public { a = 5; b = a || false; }":
        "|| requires bool operands",
    "function f() public { a = 5; b = b < a; }":
        "cannot compare bool with uint256",
    "function f() public { a = 5; a = b + 1; }":
        "arithmetic on non-numeric types bool/uint256",
    "function f() public { b += 1; }":
        "arithmetic on non-numeric types bool/uint256",
    "uint[] d; function f() public { d[0] += [1]; }":
        "an array literal has no type here",
    "uint[] d; function f() public { a = d.push(1); }":
        "a push has no type here",
    "function f() public { a = 5; if (a) { a = 6; } }":
        "if condition must be boolean",
    "function f() public { a = 5; while (a) { a = 0; } }":
        "while condition must be boolean",
    "function f() public { uint8(b, b); }": "cast to uint8 takes one argument",
    "uint[2] x; uint[2] y; "
    "function f() public { uint[2] storage p = x; p = y; }":
        "cannot assign a whole uint256[2] ref",
    "uint[0] x;": "static array length must be positive",
    "function f() public { mapping(uint => uint) memory m; }":
        "mappings live in storage only",
    "function f() public { return 1; }":
        "return value in a function with no declared return",
    "modifier m { if (a) _; } function f() m public { a = 5; }":
        "if condition must be boolean",
    "modifier m { if (a) _; } modifier n { if (true) _; } "
    "function f() m n public { a = 5; }": "if condition must be boolean",
    "modifier m { if (a) _; } modifier n { if (true) _; } "
    "function f() n m public { a = 5; }": "if condition must be boolean",
    "function f() public { b = true < false; }":
        "cannot compare bool with bool",
    "function f() public { a = uint(true); }": "cannot cast bool to uint256",
    "function f() public { uint[] memory m; m.push(1); }":
        "push requires a storage array",
    "function f() public { a = uint([1, 2]); }":
        "cannot cast a value of no type to uint256",
    "function f() public { a = uint(\"12\"); }":
        "cannot cast string to uint256",
    "function f(uint[2] p) public { a = 5; }":
        "cannot bind a value of type uint256[2] in memory",
    "function f() public { a = b; }":
        "bool is not implicitly convertible to uint256",
    "function f() public { uint x = b; a = x; }":
        "bool is not implicitly convertible to uint256",
    "uint c = b; function f() public { a = c; }":
        "bool is not implicitly convertible to uint256",
    "function f() public { b = 1; }":
        "uint256 is not implicitly convertible to bool",
    "function f() public { bool c = a; b = c; }":
        "uint256 is not implicitly convertible to bool",
    "function f() public { a = \"1\"; }":
        "string is not implicitly convertible to uint256",
    "string s = 5; function f() public { a = 5; }":
        "uint256 is not implicitly convertible to string",
    "function f() public { string memory s = b; }":
        "bool is not implicitly convertible to string",
    "function g() internal returns (uint) { return true; } "
    "function f() public { a = g(); }":
        "bool is not implicitly convertible to uint256",
    "function g(uint x) internal { a = x; } function f() public { g(true); }":
        "bool is not implicitly convertible to uint256",
    "function g(bool x) internal { b = x; } function f() public { g(7); }":
        "uint256 is not implicitly convertible to bool",
    "struct S { uint x; } S s; S t; function f() public { s = t; }":
        "cannot assign a whole struct S",
    "uint[] d; function f() public { uint[] storage e = d; d = e; }":
        "cannot assign a whole uint256[]",
    "mapping(uint => uint) m; mapping(uint => uint) n = m;":
        "cannot assign a whole mapping(uint256=>uint256)",
    "struct S { uint x; } S[2] s; function f() public { s[1] = s[0]; }":
        "cannot assign a whole struct S",
    "struct S { uint x; mapping(uint => uint) m; } "
    "function f() public { S memory s; s.m[1] = 5; }":
        "mappings live in storage only",
}


def test_each_guard_condition_is_checked_at_its_own_span():
    # two guards run as two conditions, not as one `&&` no one wrote
    for mods in ("m n", "n m"):
        err = _rejected(f"contract T {{ uint a;\n  modifier m {{ if (a) _; }}\n"
                        f"  modifier n {{ if (true) _; }}\n"
                        f"  function f() {mods} public {{ a = 5; }} }}")
        assert (err.message, err.span.line, err.span.col) == \
            ("if condition must be boolean", 2, 16), mods


def test_a_whole_composite_target_is_rejected_at_the_target():
    err = _rejected("contract T {\n  uint[] d;\n  uint[] e = d;\n}")
    assert (err.span.line, err.span.col) == (3, 10)  # at the name e
    err = _rejected("contract T { struct S { uint x; } S s;\n"
                    "  function f() public { S memory t; s = t; } }")
    assert (err.message, err.span.line, err.span.col) == \
        ("cannot assign a whole struct S", 2, 37)


def test_a_mapping_in_a_memory_struct_is_rejected_at_its_index():
    # solc rejects the access too: the mapping has no storage slot, so it
    # must not hash one into the instance's storage
    world = make_world("coin.sol")
    registry = dict(world.registry)
    with pytest.raises(SolTypeError) as err:
        world.register(parse(
            "contract T { struct S { uint a; mapping(uint => uint) m; }\n"
            "  function f() public { S memory s; s.m[1] = 5; } }"))
    assert (err.value.message, err.value.span.line, err.value.span.col) == \
        ("mappings live in storage only", 2, 40)  # at the `[`
    assert world.registry == registry


_LONG = "x" * 40  # more bytes than the string it replaces was given


@pytest.mark.parametrize("body", [
    f'function f() public {{ string memory s = "a"; uint x = 7; '
    f's = "{_LONG}"; out = x; }}',
    f'modifier m() {{ uint x = 7; _; out = x; }} '
    f'function f() m public returns (string) {{ return "{_LONG}"; }}',
], ids=["assignment", "return"])
def test_a_longer_memory_string_overwrites_no_local_after_it(body):
    # the string is bound anew, in memory sized for it: the local allocated
    # after the old string keeps its value
    world = world_from_source(f"contract C {{ uint out; {body} }}")
    address = deploy(world, "C")
    res = Executor(world).run_transaction(Tx(sender=1, to=address, fname="f"))
    assert res.ok, res.error
    assert read(world, address, "out") == 7


def test_a_reassigned_memory_string_reads_its_new_value():
    world = world_from_source(f"""
    contract C {{
      string kept;
      function f() public returns (string r) {{
        string memory s = "a"; s = "{_LONG}"; r = s; r = "bc"; kept = s; }}
    }}""")
    address = deploy(world, "C")
    res = Executor(world).run_transaction(Tx(sender=1, to=address, fname="f"))
    assert (res.ok, res.value) == (True, "bc")
    assert read(world, address, "kept") == _LONG


@pytest.mark.parametrize("fn, message", _ILL_TYPED.items())
def test_ill_typed_operands_abort_with_a_type_error(fn, message):
    # registration aborts: the contract never deploys
    err = _rejected(f"contract T {{ uint a; bool b; {fn} }}")
    assert err.message == message


def test_tx_count_increments_even_on_abort():
    world = make_world("coin.sol")
    address = deploy(world, "Coin")
    ex = Executor(world)
    n = world.tx_count
    ex.run_transaction(Tx(sender=1, to=address, fname="nosuch"))
    assert world.tx_count == n + 1


def test_scope_and_context_balance_after_transactions(coin_world):
    address = deploy(coin_world, "Coin", sender=0xA)
    ex = Executor(coin_world)
    for args in ((0xB, 5), (0xC, 7)):
        ex.run_transaction(Tx(sender=0xA, to=address, fname="mint", args=args))
        config = coin_world.instance(address).config
        assert len(config.memory.scopes) == 1
        assert config.omega == []
        assert coin_world.msg is None
        assert coin_world.msg_stack == []


def test_value_conservation_across_dao_run(dao_world):
    bank = deploy(dao_world, "Bank", value=10)
    ex = Executor(dao_world)
    attack = ex.deploy("Attack", args=(bank,), sender=0xB, value=2)
    def total():
        return sum(i.balance for i in dao_world.instances.values())
    assert total() == 12
    ex.run_transaction(Tx(sender=0xB, to=attack, fname="addToBalance"))
    assert total() == 12
    ex.run_transaction(Tx(sender=0xB, to=attack, fname="withdrawBalance"))
    assert total() == 12


def test_max_steps_bounds_nontermination():
    world = world_from_source(
        "contract L { uint x; function spin() public { "
        "while (true) { x = x + 1; } } }",
        options=EngineOptions(max_steps=100))
    address = deploy(world, "L")
    before = world.storage_fingerprint()
    res = Executor(world).run_transaction(Tx(sender=1, to=address,
                                             fname="spin"))
    assert not res.ok and "max steps" in str(res.error)
    assert world.storage_fingerprint() == before


def test_deploy_abort_message_has_one_prefix():
    world = world_from_source(
        "contract L { uint x; function L() { while (true) { x = x + 1; } } }",
        options=EngineOptions(max_steps=5))
    before = world.storage_fingerprint()
    with pytest.raises(TxAborted) as info:
        Executor(world).deploy("L")
    assert str(info.value) == "transaction aborted: exceeded max steps (5)"
    assert world.storage_fingerprint() == before


def test_stack_exhausting_drain_aborts_and_rolls_back(dao_world):
    # 5001 nested withdraw levels: the Python stack runs out long before
    ex = Executor(dao_world)
    bank = ex.deploy("Bank", value=10000)
    attack = ex.deploy("Attack", args=(bank,), sender=0xB, value=2)
    assert ex.run_transaction(Tx(sender=0xB, to=attack,
                                 fname="addToBalance")).ok
    before = dao_world.storage_fingerprint()
    res = ex.run_transaction(Tx(sender=0xB, to=attack,
                                fname="withdrawBalance"))
    assert not res.ok and "stack limit" in str(res.error)
    assert dao_world.storage_fingerprint() == before
    assert dao_world.trace.events[-1].rule == "TX-ABORT"
    assert (dao_world.msg, dao_world.msg_stack, dao_world.call_depth,
            dao_world.trace.depth) == (None, [], 0, 1)
    for inst in dao_world.instances.values():  # even if a frame's pop failed
        memory = inst.config.memory
        assert (memory.bytes, len(memory.scopes)) == ({}, 1)



def _stack_depth() -> int:
    frame, depth = sys._getframe(1), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    return depth


def test_a_reentrant_round_costs_twelve_python_frames(dao_world, monkeypatch):
    # reentrant nesting is bounded by the Python stack (ROADMAP item 1), so
    # a frame more per round lowers the deepest drain that completes; the
    # depth between successive E-FUN1 frame edges does not depend on the
    # runner
    depths = []
    enter = Trace.enter

    def recording(trace, rule, *args, **kwargs):
        if rule == "E-FUN1":
            depths.append(_stack_depth())
        return enter(trace, rule, *args, **kwargs)

    ex = Executor(dao_world)
    bank = ex.deploy("Bank", value=100)
    attack = ex.deploy("Attack", args=(bank,), sender=0xB, value=2)
    assert ex.run_transaction(Tx(sender=0xB, to=attack,
                                 fname="addToBalance")).ok
    monkeypatch.setattr(Trace, "enter", recording)
    res = ex.run_transaction(Tx(sender=0xB, to=attack,
                                fname="withdrawBalance"))
    assert res.ok and dao_world.instance(bank).balance == 0
    assert len(depths) == 52  # the last withdraw finds the bank empty
    assert {b - a for a, b in zip(depths, depths[1:])} == {12}


def test_pure_rules_between_two_events_are_one_log_entry(coin_world,
                                                         dao_world):
    # the op path writes a RuleRun per maximal run of pure rule
    # applications, not an event per rule
    ex = Executor(coin_world)
    coin = deploy(coin_world, "Coin", sender=0xA)
    assert ex.run_transaction(Tx(sender=0xA, to=coin, fname="mint",
                                 args=(0xA, 50))).ok
    res = ex.run_transaction(Tx(sender=0xA, to=coin, fname="send",
                                args=(0xB, 5)))
    assert res.ok and len(res.events) == 9
    assert len(list(expand(res.events))) == 36
    ex = Executor(dao_world)
    sizes = []
    for bank_value in (10, 12):  # one reentrant round more
        bank = ex.deploy("Bank", value=bank_value)
        attack = ex.deploy("Attack", args=(bank,), sender=0xB, value=2)
        assert ex.run_transaction(Tx(sender=0xB, to=attack,
                                     fname="addToBalance")).ok
        res = ex.run_transaction(Tx(sender=0xB, to=attack,
                                    fname="withdrawBalance"))
        assert res.ok
        sizes.append((len(res.events), len(list(expand(res.events)))))
    assert sizes[1][0] - sizes[0][0] == 11  # entries a round adds
    assert sizes[1][1] - sizes[0][1] == 32  # rules a round applies


def _send_and_round(counter, coin_world, dao_world) -> tuple:
    """counter(run) of a Coin `send`, and of one reentrant DAO round: the
    difference between drains one round apart."""
    ex = Executor(coin_world)
    coin = deploy(coin_world, "Coin", sender=0xA)
    for to in (0xA, 0xB):  # both balances' slots are derived and recorded
        assert ex.run_transaction(Tx(sender=0xA, to=coin, fname="mint",
                                     args=(to, 50))).ok
    tx = Tx(sender=0xA, to=coin, fname="send", args=(0xB, 5))
    send = counter(lambda: ex.run_transaction(tx))
    ex = Executor(dao_world)
    counts = []
    for bank_value in (10, 12):  # one reentrant round more
        bank = ex.deploy("Bank", value=bank_value)
        attack = ex.deploy("Attack", args=(bank,), sender=0xB, value=2)
        assert ex.run_transaction(Tx(sender=0xB, to=attack,
                                     fname="addToBalance")).ok
        tx = Tx(sender=0xB, to=attack, fname="withdrawBalance")
        counts.append(counter(lambda: ex.run_transaction(tx)))
    return send, counts[1] - counts[0]


_CPYTHON_311 = pytest.mark.skipif(
    sys.implementation.name != "cpython" or sys.version_info[:2] != (3, 11),
    reason="call and bytecode counts are pinned for CPython 3.11")


@_CPYTHON_311
def test_python_calls_of_a_coin_send_and_a_reentrant_round(coin_world,
                                                           dao_world):
    # the op path's dispatch cost, pinned exactly: a change that adds or
    # fuses closures on it moves these counts, and says so in CHANGES.md
    assert _send_and_round(python_calls, coin_world, dao_world) == (
        COIN_SEND_CALLS, REENTRANT_ROUND_CALLS)


@_CPYTHON_311
def test_bytecodes_of_a_coin_send_and_a_reentrant_round(coin_world,
                                                        dao_world):
    # op time tracks the bytecodes run more than the calls made: a change
    # on the op path moves these counts, and says so in CHANGES.md
    assert _send_and_round(python_bytecodes, coin_world, dao_world) == (
        COIN_SEND_BYTECODES, REENTRANT_ROUND_BYTECODES)



def test_counting_bytecodes_puts_the_previous_tracer_back():
    # tests/reach.py traces the whole suite through sys.settrace
    def tracer(frame, event, arg):
        return None
    previous = sys.gettrace()
    sys.settrace(tracer)
    try:
        assert python_bytecodes(lambda: [i for i in range(3)]) > 0
        assert sys.gettrace() is tracer
    finally:
        sys.settrace(previous)


COIN_SEND_CALLS = 69
REENTRANT_ROUND_CALLS = 65
COIN_SEND_BYTECODES = 2297
REENTRANT_ROUND_BYTECODES = 2506


def test_call_depth_cap():
    world = world_from_source(
        "contract R { function r() public { r(); } }",
        options=EngineOptions(max_call_depth=40))
    address = deploy(world, "R")
    res = Executor(world).run_transaction(Tx(sender=1, to=address, fname="r"))
    assert not res.ok and "call depth" in str(res.error)


# -- trace fidelity --------------------------------------------------------------------------

def test_replaying_committed_writes_reproduces_storage():
    world = make_world("dao.sol")
    ex = Executor(world)
    bank = ex.deploy("Bank", value=10)
    attack = ex.deploy("Attack", args=(bank,), sender=0xB, value=2)
    ex.run_transaction(Tx(sender=0xB, to=attack, fname="addToBalance"))
    ex.run_transaction(Tx(sender=0xB, to=attack, fname="withdrawBalance"))
    ex.run_transaction(Tx(sender=0xB, to=attack, fname="nosuch"))  # aborted
    replayed = replay_storage_writes(world.trace.events)
    for address, inst in world.instances.items():
        assert replayed.get(address, {}) == inst.config.storage.bytes


def test_every_committed_diff_is_covered_by_a_write_record(coin_world):
    address = deploy(coin_world, "Coin", sender=0xA)
    ex = Executor(coin_world)
    pre = dict(coin_world.instance(address).config.storage.bytes)
    res = ex.run_transaction(Tx(sender=0xA, to=address, fname="mint",
                                args=(0xB, 5)))
    post = coin_world.instance(address).config.storage.bytes
    covered = set()
    for e in res.events:
        for w in e.writes:
            if w.space == "storage" and e.addr == address:
                covered.update(range(w.at, w.at + len(w.data)))
    diff = {k for k in set(pre) | set(post) if pre.get(k) != post.get(k)}
    assert diff <= covered


# -- additional type coverage -----------------------------------------------------

def test_int256_signed_literals_and_division():
    world = world_from_source("""
    contract I {
      int256 z;
      function f() public {
        z = -5;
        z = z / 2;
        z = z - 1;
        z = z * -4;
      } }""")
    address = deploy(world, "I")
    res = Executor(world).run_transaction(Tx(sender=1, to=address, fname="f"))
    assert res.ok, res.error
    # -5 / 2 truncates toward zero: -2; then -3; then 12
    assert read(world, address, "z") == 12


def test_memory_array_local_does_not_touch_storage():
    world = world_from_source("""
    contract M {
      uint keep;
      uint out;
      function f() public {
        uint256[2] memory tmp;
        tmp[0] = 7;
        tmp[1] = tmp[0] + 1;
        out = tmp[1];
      } }""")
    address = deploy(world, "M")
    ex = Executor(world)
    ex.run_transaction(Tx(sender=1, to=address, fname="f"))
    assert read(world, address, "out") == 8
    assert read(world, address, "keep") == 0  # slot 0 untouched


def test_a_memory_aggregate_declared_with_an_initializer():
    # VD2 writes the zeroed aggregate, then the initializer's elements
    world = world_from_source("""
    contract M {
      uint y;
      function f() public { uint[2] memory a = [1, 2]; y = a[1]; } }""")
    address = deploy(world, "M")
    res = Executor(world).run_transaction(Tx(sender=1, to=address, fname="f"))
    assert res.ok and read(world, address, "y") == 2
    [vd2] = [e for e in res.events if e.rule == "VD2"]
    at = vd2.writes[0].at
    assert [(w.space, w.at, w.data) for w in vd2.writes] == [
        ("memory", at, bytes(64)), ("memory", at, (1).to_bytes(32, "big")),
        ("memory", at + 32, (2).to_bytes(32, "big"))]


def test_string_state_roundtrip_and_equality():
    world = world_from_source("""
    contract S {
      string greeting = "hello";
      uint matched;
      function f() public {
        if (greeting == "hello") { matched = 1; }
        greeting = "longer than thirty two bytes, definitely";
        if (greeting == "hello") { matched = 2; }
      } }""")
    address = deploy(world, "S")
    Executor(world).run_transaction(Tx(sender=1, to=address, fname="f"))
    assert read(world, address, "matched") == 1
    assert read(world, address, "greeting") == \
        "longer than thirty two bytes, definitely"


def test_string_parameter_binds_in_memory():
    world = world_from_source("""
    contract S {
      string kept;
      function set(string memory v) public { kept = v; } }""")
    address = deploy(world, "S")
    res = Executor(world).run_transaction(
        Tx(sender=1, to=address, fname="set", args=("salut",)))
    assert res.ok, res.error
    assert read(world, address, "kept") == "salut"


def test_nested_mapping_addresses_compose():
    world = world_from_source("""
    contract N {
      mapping(uint=>mapping(uint=>uint)) grid;
      function f() public { grid[3][4] = 7; } }""")
    address = deploy(world, "N")
    Executor(world).run_transaction(Tx(sender=1, to=address, fname="f"))
    assert read(world, address, "grid[3][4]") == 7
    assert read(world, address, "grid[3][5]") == 0
    from keccak_oracle import keccak256_oracle_int
    outer = keccak256_oracle_int((0).to_bytes(32, "big") +
                                 (3).to_bytes(32, "big"))
    inner = keccak256_oracle_int(outer.to_bytes(32, "big") +
                                 (4).to_bytes(32, "big"))
    storage = world.instance(address).config.storage
    assert decode_value(storage.read(inner * 32, 32), U256) == 7


@pytest.mark.parametrize("key_t, top", [
    (UInt(8), 255), (U256, (1 << 256) - 1),
    (typesys.Address(), (1 << 160) - 1)])
def test_a_key_encoder_gives_the_bytes32_of_encode_value(key_t, top):
    # a uint or address key skips encode_value when it is in range
    for key in (0, top):
        assert typesys.key_encoder(key_t)(key) == \
            typesys.encode_value(key, key_t).rjust(32, b"\x00")


def test_a_literal_mapping_key_must_fit_its_key_type():
    # checked at registration, at the index's `[`, as solc does
    err = _rejected("contract K { mapping(uint8 => uint) m;\n"
                    "  function f() public { m[256] = 1; } }")
    assert (err.message, repr(err.span)) == \
        ("mapping key must be uint8, got int_const 256", "2:26")
    top = (1 << 160) - 1  # a key at its type's bound registers
    world = world_from_source(f"""
    contract K {{
      mapping(uint8 => uint) m; mapping(address => uint) n;
      function f() public {{ m[255] = 1; n[{top}] = 2; }} }}""")
    address = deploy(world, "K")
    assert Executor(world).run_transaction(
        Tx(sender=1, to=address, fname="f")).ok
    assert (read(world, address, "m[255]"), read(world, address, f"n[{top}]")) \
        == (1, 2)


def test_a_mapping_key_out_of_range_aborts_and_rolls_back():
    world = world_from_source("""
    contract K {
      mapping(uint8 => uint) m; uint y;
      function f(uint x) public { y = 1; m[x] = 2; } }""")
    address = deploy(world, "K")
    ex, before = Executor(world), world.storage_fingerprint()
    res = ex.run_transaction(Tx(sender=1, to=address, fname="f", args=(256,)))
    assert not res.ok and isinstance(res.error.cause, RangeError)
    assert str(res.error.cause) == "256 out of range for uint8"
    assert world.storage_fingerprint() == before
    assert ex.run_transaction(Tx(sender=1, to=address, fname="f",
                                 args=(255,))).ok
    assert read(world, address, "m[255]") == 2


def test_dyn_array_of_sub_slot_elements_uses_one_slot_each():
    world = world_from_source("""
    contract D {
      uint128[] xs;
      function f() public { xs.push(5); xs.push(6); } }""")
    address = deploy(world, "D")
    Executor(world).run_transaction(Tx(sender=1, to=address, fname="f"))
    from keccak_oracle import keccak256_oracle_int
    h = keccak256_oracle_int(bytes(32))
    storage = world.instance(address).config.storage
    assert decode_value(storage.read(h * 32, 16), typesys.UInt(128)) == 5
    assert decode_value(storage.read((h + 1) * 32, 16), typesys.UInt(128)) == 6
    assert read(world, address, "xs[1]") == 6
