"""L-value/R-value evaluation, hash-derived addressing, and arithmetic."""

import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from solsem import typesys
from solsem.errors import (
    DivisionByZero, IndexOutOfBounds, SolTypeError,
)
from solsem.evaluator import read_value, slot_of_dyn, slot_of_map
from solsem import ast, evaluator
from solsem.executor import Executor, Tx
from solsem.harness import parse_scenario, run_main_contract, run_scenario
from solsem.parser import parse_expression
from solsem.state import EngineOptions, Msg, decode_value
from solsem.trace import expand
from solsem.typesys import SLOT, Address, Bool, Int256, Located, UInt

from conftest import (
    bind_local, contract_source, deploy, eval_lvalue, eval_typed, make_world,
    read, scenario_source, world_from_source,
)
import codec_oracle
from keccak_oracle import keccak256_oracle_int
from typing_oracle import type_of

U128 = UInt(128)
U256 = UInt(256)


def apply_binop(op: str, lhs, rhs, t):
    """lhs op rhs at type t, by the operator the compiler picks for it."""
    return evaluator._operator(op, t)(lhs, rhs)


def _ev(world, address):
    return Executor(world).evaluator(address)


# -- L-values ------------------------------------------------------------------

def test_static_array_lvalues_in_test2():
    world = make_world("test2.sol")
    address = deploy(world, "Test2")
    ev = _ev(world, address)
    # b at byte 32; rows are 64 bytes, elements 16
    assert eval_lvalue(ev, parse_expression("b[1]")).addr == 96
    assert eval_lvalue(ev, parse_expression("b[0][1]")).addr == 48
    assert eval_lvalue(ev, parse_expression("b[1][2]")).addr == 128


def test_static_bounds_checked():
    world = make_world("test2.sol")
    address = deploy(world, "Test2")
    ev = _ev(world, address)
    with pytest.raises(IndexOutOfBounds):
        eval_lvalue(ev, parse_expression("b[2]"))
    with pytest.raises(IndexOutOfBounds):
        eval_lvalue(ev, parse_expression("b[0][3]"))


def test_dyn_array_element_lands_on_hashed_slot():
    world = make_world("test3.sol")
    address = deploy(world, "Test3")
    ex = Executor(world)
    ex.run_transaction(Tx(sender=1, to=address, fname="foo3"))
    ev = _ev(world, address)
    h = keccak256_oracle_int(bytes(32))
    assert eval_lvalue(ev, parse_expression("a[0]")).addr == h * 32
    assert eval_lvalue(ev, parse_expression("a[1]")).addr == (h + 1) * 32
    with pytest.raises(IndexOutOfBounds):
        eval_lvalue(ev, parse_expression("a[2]"))  # length is 2


def test_mapping_lvalue_uses_concatenation_order():
    world = make_world("test4.sol")
    address = deploy(world, "Test4")
    ev = _ev(world, address)
    expected = keccak256_oracle_int(
        (0).to_bytes(32, "big") + (100).to_bytes(32, "big"))
    assert eval_lvalue(ev, parse_expression("m[100]")).addr == expected * 32


def test_evm_hash_order_flag_flips_concatenation():
    world = make_world("test4.sol", options=EngineOptions(evm_hash_order=True))
    address = deploy(world, "Test4")
    ev = _ev(world, address)
    expected = keccak256_oracle_int(
        (100).to_bytes(32, "big") + (0).to_bytes(32, "big"))
    assert eval_lvalue(ev, parse_expression("m[100]")).addr == expected * 32


# -- slot derivation ---------------------------------------------------------------

def test_slot_of_dyn_against_oracle():
    assert slot_of_dyn(0, 0) == keccak256_oracle_int(bytes(32))
    assert slot_of_dyn(0, 1) == slot_of_dyn(0, 0) + 1
    assert slot_of_dyn(7, 3) == \
        keccak256_oracle_int((7).to_bytes(32, "big")) + 3


def test_slot_of_dyn_consecutive_property():
    rng = random.Random(2)
    for _ in range(50):
        p = rng.randrange(0, 1 << 64)
        i = rng.randrange(0, 1 << 32)
        assert slot_of_dyn(p, i + 1) - slot_of_dyn(p, i) == 1


def test_slot_of_map_against_oracle():
    key = (100).to_bytes(32, "big")
    assert slot_of_map(1, key) == keccak256_oracle_int(
        (1).to_bytes(32, "big") + key)
    assert slot_of_map(1, key, evm_hash_order=True) == keccak256_oracle_int(
        key + (1).to_bytes(32, "big"))


def test_slot_of_map_distinct_and_deterministic():
    k100 = (100).to_bytes(32, "big")
    k200 = (200).to_bytes(32, "big")
    assert slot_of_map(1, k100) != slot_of_map(1, k200)
    assert slot_of_map(1, k100) == slot_of_map(1, k100)


# -- R-values -----------------------------------------------------------------------

def test_rvalues_after_fixture_runs():
    world = make_world("test3.sol")
    address = deploy(world, "Test3")
    ex = Executor(world)
    ex.run_transaction(Tx(sender=1, to=address, fname="foo3"))
    assert read(world, address, "a.length") == 2
    assert read(world, address, "a[0]") == 10
    assert read(world, address, "a[1]") == 11


def test_mapping_rvalue_and_zero_default():
    world = make_world("test4.sol")
    address = deploy(world, "Test4")
    ex = Executor(world)
    ex.run_transaction(Tx(sender=1, to=address, fname="foo4"))
    assert read(world, address, "m[100]") == 10
    assert read(world, address, "m[200]") == 11
    assert read(world, address, "m[300]") == 0  # never written


def test_uint256_var_after_aliasing_run():
    world = make_world("test.sol")
    address = deploy(world, "Test")
    Executor(world).run_transaction(Tx(sender=1, to=address, fname="foo"))
    assert read(world, address, "b") == 8
    assert read(world, address, "a") == 0


def test_msg_fields():
    world = make_world("coin.sol")
    address = deploy(world, "Coin")
    world.msg = Msg(sender=0xAB, value=17)
    assert read(world, address, "msg.sender") == 0xAB
    assert read(world, address, "msg.value") == 17


# -- operators ------------------------------------------------------------------------

def test_unsigned_wraparound():
    top = (1 << 256) - 1
    assert apply_binop("+", top, 1, U256) == 0
    assert apply_binop("-", 0, 1, U256) == top
    assert apply_binop("*", 1 << 255, 2, U256) == 0


def test_identity_and_comparisons():
    assert apply_binop("-", 42, 0, U256) == 42
    assert apply_binop("<", 1, 2, U256) is True
    assert apply_binop(">=", 2, 2, U256) is True
    assert apply_binop("==", 5, 5, Address()) is True
    assert apply_binop("!=", 5, 6, Address()) is True


def test_division():
    assert apply_binop("/", 7, 2, U256) == 3
    assert apply_binop("%", 7, 2, U256) == 1
    with pytest.raises(DivisionByZero):
        apply_binop("/", 1, 0, U256)
    with pytest.raises(DivisionByZero):
        apply_binop("%", 1, 0, U256)


def test_a_literal_takes_its_unsigned_partners_width():
    # Solidity 0.4 types `x + 1` at uint8 and wraps; a literal too big for
    # the operand still widens the operation to uint256
    world = world_from_source("""
    contract Narrow {
      uint8 x = 255;
      uint128 y = 170141183460469231731687303715884105728;
      function bump() public { x = x + 1; y = y * 2; }
    }""")
    address = deploy(world, "Narrow")
    ev = _ev(world, address)
    assert eval_typed(ev, parse_expression("x + 1")) == (0, UInt(8))
    assert eval_typed(ev, parse_expression("1 + x")) == (0, UInt(8))
    assert eval_typed(ev, parse_expression("x + 256")) == (511, U256)
    res = Executor(world).run_transaction(Tx(sender=1, to=address,
                                             fname="bump"))
    assert res.ok, res.error
    assert read(world, address, "x") == 0
    assert read(world, address, "y") == 0


@pytest.mark.parametrize("text, sem", [
    # too big for uint8, or not a literal at all (`-(-5)`): uint256
    ("x + 300", U256), ("x + -(-5)", U256), ("x + 1", UInt(8)),
    # a negative literal adapts to a signed partner on either side
    ("y + -5", Int256()), ("-5 + y", Int256()),
])
def test_a_literal_adapts_to_its_partner_by_its_value(text, sem):
    world = world_from_source("contract Mixed { uint8 x = 7; int256 y = -7; }")
    ev = _ev(world, deploy(world, "Mixed"))
    e = parse_expression(text)
    assert ev.type_of(e).sem == type_of(ev, e).sem == sem


def test_int256_truncates_toward_zero():
    t = Int256()
    assert apply_binop("/", -5, 2, t) == -2
    assert apply_binop("%", -5, 2, t) == -1
    assert apply_binop("/", 5, -2, t) == -2
    assert apply_binop("+", (1 << 255) - 1, 1, t) == -(1 << 255)  # wraps


def test_short_circuit_does_not_evaluate_rhs():
    world = make_world("coin.sol")
    address = deploy(world, "Coin")
    # rhs would raise DivisionByZero if evaluated
    assert read(world, address, "false && 1 / 0 == 1") is False
    assert read(world, address, "true || 1 / 0 == 1") is True


def test_type_of_is_pure():
    world = make_world("coin.sol")
    address = deploy(world, "Coin")
    ev = _ev(world, address)
    n = len(world.trace)
    located = ev.type_of(parse_expression("balances[msg.sender] < 1"))
    assert located.sem == Bool()
    assert len(world.trace) == n


# expressions per fixture: identifiers, nested index and member, refs,
# .length, arithmetic, comparisons, casts, msg.* and internal calls
_TYPED_EXPRESSIONS = {
    "Main": ("small", "arr[1]", "arr", "da[0]", "da.length", "m2[7]", "s.x",
             "blob.lanes[2]", "blob.lanes", "s", "pa", "pa[2]", "pd",
             "pd[1]", "pd.length", "pm[8]", "pp.y", "flag", "who",
             "small + 1", "arr[1] * s.y - small", "-small", "int(small) - 1",
             "-1 + int(blob.big)", "da[0] < da[1]", "flag == true", "!flag",
             "flag && m2[8] > 0 || false", "who != msg.sender",
             "msg.value + small", "uint8(blob.big)", "address(small)",
             "helper(pd[0]) + sum(3)", "helper(5) == 10", "\"text\"",
             "m2[da.length] + pm[pd.length + 6]"),
    "Test2": ("a", "b", "b[1]", "b[1][2]", "a + b[1][2]", "b[0][1] >= a"),
    "Test3": ("a", "a[1]", "a.length", "a[a.length - 1] + a[0]"),
    "Test4": ("m[100]", "m[200] > m[100]", "m[m[100] * 20]"),
    # external and low-level calls; Bank has no fallback, so the value-0
    # call runs no code, and the unfunded one fails softly
    "Attack": ("target.getUserBalance(0xB) + 1", "target.call.value(0)()",
               "!target.call.value(1000)()"),
}

# ill-typed: registering a function that holds one raises the static
# judgement's message
_ILL_TYPED_EXPRESSIONS = (
    "flag + 1", "small + int(1) * int(small)", "!small", "-flag",
    "m2[flag]", "small[0]", "s.nosuch", "small.length", "flag && small",
    "flag < small", "arr[flag]", "who + 1", "pd[true]", "s.x.y")


def _typed_fixture_evaluators():
    """An evaluator per fixture instance, each under a message, after its
    transaction; Main also gets storage pointers into its state."""
    world = make_world("coverage.sol")
    main = run_main_contract(world).handles["main"]
    world.msg = Msg(sender=0xAB, value=3)
    ev = _ev(world, main)
    for name, target in (("pa", "arr"), ("pd", "da"), ("pm", "m2"),
                         ("pp", "s")):
        lv = eval_lvalue(ev, parse_expression(target))
        ev = bind_local(ev, name, typesys.Located(
            typesys.make_ref(lv.located.sem), typesys.STORAGE), lv.addr)
    yield "Main", ev
    for fixture, fname in (("test2.sol", "foo2"), ("test3.sol", "foo3"),
                           ("test4.sol", "foo4")):
        world = make_world(fixture)
        name = fixture[:-4].capitalize()
        address = deploy(world, name)
        assert Executor(world).run_transaction(
            Tx(sender=1, to=address, fname=fname)).ok
        world.msg = Msg(sender=0xAB)
        yield name, _ev(world, address)
    world = make_world("dao.sol")
    bank = deploy(world, "Bank", value=10)
    ex = Executor(world)
    attack = ex.deploy("Attack", args=(bank,), sender=0xB, value=2)
    assert ex.run_transaction(Tx(sender=0xB, to=attack,
                                 fname="addToBalance")).ok
    world.msg = Msg(sender=0xB)
    yield "Attack", _ev(world, attack)


def test_eval_typed_agrees_with_the_static_judgement():
    for name, ev in _typed_fixture_evaluators():
        for text in _TYPED_EXPRESSIONS[name]:
            e = parse_expression(text)
            value, sem = eval_typed(ev, e)
            assert ev.type_of(e) == type_of(ev, e), text
            assert sem == type_of(ev, e).sem, text
            if name.startswith("Test"):  # no call, no bound local
                assert value == read(ev.world, ev.address, text), text


def test_ill_typed_expressions_are_rejected_at_registration():
    # Main's storage pointers, declared as the typed half binds them
    pointers = ("uint128[3] pa = arr; uint256[] pd = da; "
                "mapping(uint=>uint) pm = m2; Pair pp = s;")
    main = contract_source("coverage.sol").rstrip()[:-1]  # Main's last }
    ev = next(_typed_fixture_evaluators())[1]
    for text in _ILL_TYPED_EXPRESSIONS:
        with pytest.raises(SolTypeError) as static:
            type_of(ev, parse_expression(text))
        with pytest.raises(SolTypeError) as registered:
            world_from_source(
                f"{main} function bad() public {{ {pointers} {text}; }} }}")
        assert registered.value.message == static.value.message, text
        assert registered.value.span is not None, text


def test_every_ast_node_kind_has_a_compiler():
    # a kind with no compiler would escape registration as a KeyError
    assert set(evaluator._STATEMENTS) == set(ast.Stmt.__subclasses__())
    compiled = {*evaluator._TYPED, *evaluator._RVALUES, *evaluator._EFFECTS}
    assert set(ast.Expr.__subclasses__()) <= compiled
    # and a kind with no type is named in the error that rejects it
    assert set(ast.Expr.__subclasses__()) - set(evaluator._TYPED) \
        == set(evaluator._UNTYPED)


def test_each_function_is_compiled_once_at_registration(monkeypatch):
    compiled = Counter()  # (trace, contract, function) -> compilations
    compile_function = evaluator.compile_function

    def counted(registry, trace, info, fn, *rest):
        compiled[trace, info.name, fn.name] += 1
        return compile_function(registry, trace, info, fn, *rest)

    monkeypatch.setattr(evaluator, "compile_function", counted)
    registered = []  # (world, compilations right after its registration)

    def register(world):
        registered.append((world, compiled.copy()))
        return world

    world = register(make_world("coin.sol"))
    coin = deploy(world, "Coin", sender=0xA)
    ex = Executor(world)
    for fname, sender, args in (("mint", 0xA, (0xB, 50)),
                                ("send", 0xB, (0xC, 20))):
        assert ex.run_transaction(Tx(sender=sender, to=coin, fname=fname,
                                     args=args)).ok
    world = register(make_world("dao.sol"))
    bank = deploy(world, "Bank", value=100)
    ex = Executor(world)
    attack = ex.deploy("Attack", args=(bank,), sender=0xB, value=2)
    for fname in ("addToBalance", "withdrawBalance"):
        res = ex.run_transaction(Tx(sender=0xB, to=attack, fname=fname))
        assert res.ok
    assert world.instance(bank).balance == 0
    assert sum(e.rule == "E-FUN2" for e in res.events) == 51
    # an external call as an operand, on a contract-typed target
    world = register(world_from_source("""
    contract B { function g() public returns (uint) { return 41; } }
    contract A {
      B b; uint out;
      function A(B _b) public { b = _b; }
      function f() public { out = b.g() + 1; }
    }"""))
    a = deploy(world, "A", args=(deploy(world, "B"),))
    assert Executor(world).run_transaction(Tx(sender=1, to=a, fname="f")).ok
    # a scenario's deploys, transactions and asserts compile nothing
    world = register(make_world("coin.sol"))
    outcome = run_scenario(world, parse_scenario(scenario_source("coin.scn")))
    assert outcome.assertions_ok
    assert sum(r.description.startswith("assert")
               for r in outcome.results) == 3
    # each function exactly once, by the registration of its world (Bank's
    # never-called getUserBalance too), and nothing after it
    assert set(compiled.values()) == {1}
    for world, before in registered:
        assert {k for k in compiled if k[0] is world.trace} == \
            {k for k in before if k[0] is world.trace}
    assert sorted((c, f) for _, c, f in compiled) == sorted([
        ("Coin", "Coin"), ("Coin", "mint"), ("Coin", "send"),
        ("Bank", "deposit"), ("Bank", "withdraw"), ("Bank", "getUserBalance"),
        ("Attack", "Attack"), ("Attack", "addToBalance"),
        ("Attack", "withdrawBalance"), ("Attack", ""), ("B", "g"),
        ("A", "A"), ("A", "f"),
        ("Coin", "Coin"), ("Coin", "mint"), ("Coin", "send")])


_SIZED = """
contract S {
  struct Pair { uint128 x; uint128 y; }
  uint[3] xs = [1, 2, 3];
  string name = "a string of more than thirty-two bytes, in two chunks";
  uint[] ys;
  Pair p;
  uint128[2] key;
  mapping(uint128[2] => uint) byKey;
  function set(uint i, uint v) public {
    xs[i] = v; ys.push(v); p.y = v; name = "short";
    key[1] = uint128(v); byKey[key] = v; byKey[key] = byKey[key] + 1;
  }
  function get() public returns (string) { return name; }
}"""


def test_nothing_is_sized_after_registration(monkeypatch):
    calls = Counter()
    for name in ("sized", "packed", "size_of", "size_packed", "field_offset"):
        def counted(*args, _step=getattr(typesys, name), _name=name):
            calls[_name] += 1
            return _step(*args)
        monkeypatch.setattr(typesys, name, counted)
    world = world_from_source(_SIZED)
    assert calls["size_of"] > 0  # the layout and the compiled code
    calls.clear()
    address = deploy(world, "S")
    ex = Executor(world)
    assert ex.run_transaction(Tx(sender=1, to=address, fname="set",
                                 args=(1, 7))).ok
    res = ex.run_transaction(Tx(sender=1, to=address, fname="get"))
    assert res.ok and res.value == "short"
    assert calls == Counter()
    # an assert expression is compiled when it is read, so it may size
    assert read(world, address, "xs[1] + ys[0] + p.y") == 21
    assert read(world, address, "byKey[key]") == 8


def _coverage_gate_traces():
    """The traces the rule-label coverage gate (test_acceptance) reads."""
    for contract_file, scn_file in (("dao.sol", "dao.scn"),
                                    ("dao_fixed.sol", "dao_fixed.scn"),
                                    ("coin.sol", "coin.scn")):
        world = make_world(contract_file)
        run_scenario(world, parse_scenario(scenario_source(scn_file)))
        yield world.trace
    world = make_world("coverage.sol")
    run_main_contract(world)
    yield world.trace
    for fixture, fname in (("test.sol", "foo"), ("test2.sol", "foo2"),
                           ("test3.sol", "foo3"), ("test4.sol", "foo4")):
        world = make_world(fixture)
        address = deploy(world, fixture[:-4].capitalize())
        assert Executor(world).run_transaction(
            Tx(sender=1, to=address, fname=fname)).ok
        yield world.trace


# each typing rule -> the evaluation rules of the nodes it types
_TYPED_BY = {
    "Type3": {"E-ID1", "E-ID2"},
    "Type1": {"E-ARRAY", "E-D-ARRAY"},
    "Type7": {"E-ARRAY-REF", "E-D-ARRAY-ref"},
    "Type4": {"E-MAPPING"},
    "Type6": {"E-MAPPING-REF"},
    "Type2": {"E-STRUCT"},
    "Type8": {"E-STRUCT-ref"},
}


def test_each_evaluated_node_is_typed_once():
    counts = Counter()
    for trace in _coverage_gate_traces():
        rules = [e.rule for e in expand(trace.events)]
        counts.update(rules)
        for rule, following in zip(rules, rules[1:]):
            if rule in _TYPED_BY:  # right before the node's evaluation rule
                assert following in _TYPED_BY[rule], (rule, following)
    for typing, evaluation in _TYPED_BY.items():
        assert counts[typing] == sum(counts[r] for r in evaluation), typing
    assert counts["Type3"] > 0 and counts["Type1"] + counts["Type7"] > 0
    assert counts["Type4"] + counts["Type6"] > 0
    assert counts["Type2"] + counts["Type8"] > 0


def test_unary_ops():
    world = make_world("coin.sol")
    address = deploy(world, "Coin")
    assert read(world, address, "!true") is False
    # literal negation is signed; modular wrap happens through arithmetic
    assert read(world, address, "-1") == -1
    assert read(world, address, "0 - 1") == (1 << 256) - 1


# -- coherence properties ---------------------------------------------------------------

def test_lvalue_then_read_equals_rvalue():
    world = make_world("test2.sol")
    address = deploy(world, "Test2")
    ev = _ev(world, address)
    config = world.instance(address).config
    for text in ("a", "b[0][0]", "b[0][1]", "b[1][2]", "b[1]"):
        e = parse_expression(text)
        lv = eval_lvalue(ev, e)
        direct = read_value(world, config, lv.located.loc, lv.addr,
                            lv.located.sem)
        assert read(world, address, text) == direct


def test_call_free_evaluation_leaves_bytes_unchanged():
    world = make_world("test2.sol")
    address = deploy(world, "Test2")
    ev = _ev(world, address)
    config = world.instance(address).config
    before = (dict(config.storage.bytes), dict(config.memory.bytes))
    for text in ("a + 1", "b[1][0] * b[0][2]", "a == 9", "-a"):
        eval_typed(ev, parse_expression(text))  # run outside a snapshot
    assert (config.storage.bytes, config.memory.bytes) == before


def test_hash_disjointness_across_fixture_runs():
    """No two distinct (kind, base, key) pairs may share a derived slot."""
    seen = {}
    for fixture, fname in (("test3.sol", "foo3"), ("test4.sol", "foo4")):
        world = make_world(fixture)
        address = deploy(world, fixture[:-4].capitalize())
        Executor(world).run_transaction(Tx(sender=1, to=address, fname=fname))
        for slot, region in world.instance(address).config.storage.hashed.items():
            ident = (fixture, region.kind, region.base_slot, str(region.key))
            assert seen.setdefault(slot, ident) == ident
    assert len(seen) >= 4


def test_cast_semantics():
    world = make_world("coin.sol")
    address = deploy(world, "Coin")
    ev = _ev(world, address)  # an assert rejects a cast as a call
    assert eval_typed(ev, parse_expression("uint8(300)"))[0] == 44
    assert eval_typed(ev, parse_expression("address(1)"))[0] == 1


def test_string_values_roundtrip():
    world = world_from_source("contract L { uint a; string label; }")
    address = deploy(world, "L")
    config = world.instance(address).config
    ev = _ev(world, address)
    addr, located = world.contract_info("L").layout["label"]
    evaluator._writer(located)(ev, addr, "hello world " * 4)
    got = read_value(world, config, typesys.STORAGE, addr, typesys.String())
    assert got == "hello world " * 4


# -- the compiled codec against the run-time walk --------------------------------

_NESTED = st.recursive(
    st.sampled_from([UInt(8), U128, U256, Int256(), Bool(), Address()]),
    lambda inner: st.one_of(
        st.builds(typesys.StaticArray, inner, st.integers(1, 3)),
        st.lists(inner, min_size=1, max_size=3).map(lambda ts: typesys.Struct(
            "S", tuple((f"f{i}", t) for i, t in enumerate(ts)))),
        st.builds(typesys.DynArray, inner | st.just(typesys.String())
                  | st.just(typesys.StaticArray(U256, 2)))),  # 2-slot elements
    max_leaves=6)
_STRINGS = st.text(max_size=8) | st.text(min_size=33, max_size=70)


def _values(t):
    """Values of type t; a string both shorter and longer than a slot."""
    if isinstance(t, (UInt, Address)):
        return st.integers(0, (1 << (160 if isinstance(t, Address)
                                     else t.width)) - 1)
    if isinstance(t, Int256):
        return st.integers(-(1 << 255), (1 << 255) - 1)
    if isinstance(t, Bool):
        return st.booleans()
    if isinstance(t, typesys.String):
        return _STRINGS
    if isinstance(t, typesys.StaticArray):
        return st.lists(_values(t.elem), min_size=t.length, max_size=t.length)
    if isinstance(t, typesys.Struct):
        return st.fixed_dictionaries({n: _values(f) for n, f in t.fields})
    return st.lists(_values(t.elem), max_size=3)  # a dynamic array


def _writable(t) -> bool:
    """A primitive, a string, or a static array of writable elements."""
    return typesys.is_primitive(t) or isinstance(t, typesys.String) or (
        isinstance(t, typesys.StaticArray) and _writable(t.elem))


def _oracle_write(ev, loc, addr, sem, v) -> list:
    return codec_oracle.write_value(ev.world, ev.config, loc, addr, sem, v)


def _compiled_write(ev, loc, addr, sem, v) -> list:
    return evaluator._writer(Located(sem, loc))(ev, addr, v)


def _store(write, ev, loc, addr, sem, v) -> list:
    """Store `v` through `write`, which takes what is writable whole; a
    struct field by field, and a dynamic array as its length and then its
    elements, each recorded as push records it."""
    if _writable(sem):
        return write(ev, loc, addr, sem, v)
    if isinstance(sem, typesys.StaticArray):
        stride = typesys.size_of(sem.elem)
        return [w for i, x in enumerate(v) for w in _store(
            write, ev, loc, addr + i * stride, sem.elem, x)]
    if isinstance(sem, typesys.Struct):
        return [w for k, (name, t) in enumerate(sem.fields) for w in _store(
            write, ev, loc, addr + typesys.field_offset(sem, k), t, v[name])]
    writes = write(ev, loc, addr, U256, len(v))
    p, stride = addr // SLOT, evaluator._slot_stride(sem.elem)
    h = ev.world.derived_slot(slot_of_dyn, p, 0)
    for i, x in enumerate(v):
        if loc == typesys.STORAGE:
            ev.storage.record_hashed(h + i * stride, "dynarray", p, i, sem.elem)
        writes += _store(write, ev, loc, (h + i * stride) * SLOT, sem.elem, x)
    return writes


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_the_compiled_codec_matches_the_run_time_walk(data):
    sem = data.draw(st.just(typesys.String()) | _NESTED)
    loc = data.draw(st.sampled_from([typesys.STORAGE, typesys.MEMORY]))
    addr = typesys.align_up(data.draw(st.integers(0, 8 * SLOT)), sem)
    v = data.draw(_values(sem))
    runs = []
    for write in (_oracle_write, _compiled_write):
        world = world_from_source("contract C { uint a; }")
        ev = _ev(world, deploy(world, "C"))
        config = ev.config
        mark = world.snapshot()
        writes = _store(write, ev, loc, addr, sem, v)
        reads = [read(world, config, loc, addr, sem)
                 for read in (codec_oracle.read_value, read_value)]
        assert reads[1] == reads[0]
        stored = (world.storage_fingerprint(), dict(config.memory.words))
        hashed = list(config.storage.hashed.items())  # in insertion order
        world.restore(mark)
        runs.append((writes, reads, stored, hashed,
                     world.storage_fingerprint()))
    oracle, compiled = runs
    assert compiled == oracle
    if loc == typesys.STORAGE:  # in memory a string's bytes follow its
        assert oracle[1] == [v, v]  # length word: string[] elements overlap
