"""The word store, encoding, allocation, scopes, and deployment state."""

import copy
import gc
import random
import weakref

import pytest
from hypothesis import given, strategies as st

from solsem import typesys
from solsem.errors import (
    DuplicateDeclaration, RangeError, SolTypeError, UnknownIdentifier,
)
from solsem.executor import Executor, Tx
from solsem.parser import parse, parse_expression
from solsem.state import (
    ByteStore, Config, Msg, StorageState, World, decode_value,
    encode_value, key_encoder, zero_value,
)
from solsem.typesys import Address, Bool, Int256, Located, UInt, bump

from conftest import (
    bind_local, contract_source, deploy, eval_lvalue, make_world, read,
    world_from_source,
)

U128 = UInt(128)
U256 = UInt(256)


# -- the word store -------------------------------------------------------------

def test_fresh_read_is_zero():
    c = Config()
    assert c.storage.read(12345, 32) == bytes(32)
    assert c.memory.read(0, 64) == bytes(64)


def test_single_byte_write_reads_back_as_big_endian_word():
    c = Config()
    c.storage.write(31, b"\x07")
    assert c.storage.read(0, 32) == (7).to_bytes(32, "big")


def test_slot_one_write_decodes():
    c = Config()
    c.storage.write(32, encode_value(8, U256))
    assert decode_value(c.storage.read(32, 32), U256) == 8


def test_zero_writes_keep_map_canonical():
    c = Config()
    c.storage.write(0, bytes(32))
    assert c.storage.bytes == {}
    c.storage.write(0, encode_value(7, U256))
    c.storage.write(0, bytes(32))
    assert c.storage.bytes == {}


TOP = (1 << 256) * 32  # one past the last byte of slot 2^256 - 1
_addrs = st.one_of(st.integers(0, 200), st.integers(TOP - 200, TOP - 1),
                   st.integers(0, TOP - 1))
_data = st.one_of(st.binary(min_size=1, max_size=96),
                  st.integers(1, 96).map(bytes))  # all-zero data
_ops = st.lists(st.one_of(
    st.tuples(st.just("write"), _addrs, _data),
    st.tuples(st.just("read"), _addrs, st.integers(1, 96)),
    st.tuples(st.just("mark"), st.none(), st.none())), max_size=40)


@given(_ops)
def test_byte_store_agrees_with_a_byte_map_and_undoes_to_any_mark(ops):
    store, model, journal, marks = ByteStore(), {}, [], []
    for op, addr, arg in ops:
        if op == "write":
            store.write(addr, arg, journal)
            model.update((addr + i, b) for i, b in enumerate(arg))
        elif op == "read":
            assert store.read(addr, arg) == bytes(
                model.get(addr + i, 0) for i in range(arg))
        else:
            marks.append((len(journal), dict(store.words)))
        assert all(len(w) == 32 and any(w) for w in store.words.values())
    assert store.bytes == {a: b for a, b in model.items() if b}
    for mark, words in reversed(marks):
        while len(journal) > mark:
            undo, *args = journal.pop()
            undo(*args)
        assert store.words == words


def test_storage_journals_one_record_per_slot_written():
    s = StorageState()
    s.write(0, encode_value(7, U256))  # aligned uint256
    assert len(s.journal) == 1
    s.write(32 + 16, encode_value(1, U128))  # uint128 at offset 16
    assert len(s.journal) == 2
    s.write(64 + 8, bytes(range(1, 41)))  # 40 bytes from offset 8: two slots
    assert len(s.journal) == 4


# -- encoding ------------------------------------------------------------------

def test_encode_examples():
    assert encode_value(7, U256) == bytes(31) + b"\x07"
    assert encode_value(True, Bool()) == b"\x01"
    assert encode_value(0xAB, Address()) == bytes(19) + b"\xab"
    assert len(encode_value(1, U128)) == 16


def test_packed_uint128_reads_zero_after_word_write():
    # writing 7 as a full word puts its low byte at offset 31, so the
    # uint128 packed at offset 0 decodes to 0
    c = Config()
    c.storage.write(0, encode_value(7, U256))
    assert decode_value(c.storage.read(0, 16), U128) == 0


def test_encode_range_errors():
    with pytest.raises(RangeError):
        encode_value(1 << 128, U128)
    with pytest.raises(RangeError):
        encode_value(-1, U256)
    with pytest.raises(RangeError):
        encode_value(1 << 160, Address())
    with pytest.raises(RangeError):
        encode_value(1 << 255, Int256())


def test_roundtrip_seeded_cases():
    rng = random.Random(99)
    types = [UInt(8), UInt(16), UInt(32), UInt(64), U128, U256, Bool(),
             Address(), Int256()]
    for _ in range(1000):
        t = rng.choice(types)
        if isinstance(t, Bool):
            v = rng.random() < 0.5
        elif isinstance(t, Int256):
            v = rng.randrange(-(1 << 255), 1 << 255)
        elif isinstance(t, Address):
            v = rng.randrange(0, 1 << 160)
        else:
            v = rng.randrange(0, 1 << t.width)
        assert decode_value(encode_value(v, t), t) == v


@given(st.integers(min_value=0, max_value=(1 << 256) - 1))
def test_roundtrip_uint256(v):
    assert decode_value(encode_value(v, U256), U256) == v


def test_key32_padding():
    assert key_encoder(U256)(100) == (100).to_bytes(32, "big")
    assert key_encoder(Address())(0xAB) == (0xAB).to_bytes(32, "big")
    arr_key = typesys.StaticArray(U128, 2)
    assert key_encoder(arr_key)([1, 2]) == \
        (1).to_bytes(16, "big") + (2).to_bytes(16, "big")


# -- static allocation -----------------------------------------------------------

def _layout(source: str, name: str = "C"):
    return world_from_source(source).contract_info(name)


def test_allocate_static_sequence():
    info = _layout("contract C { uint128 a; uint256 b; }")
    assert info.layout["a"].addr == 0
    assert _layout("contract C { uint128 a; }").lam == 16
    assert info.layout["b"].addr == 32
    assert info.lam == 64


def test_first_allocation_is_address_zero():
    for t in ("uint128", "uint256", "mapping(uint256 => uint256)",
              "uint256[3]"):
        assert _layout(f"contract C {{ {t} x; }}").layout["x"].addr == 0


def test_lambda_recomputable_by_pure_fold():
    info = make_world("coverage.sol").contract_info("Main")
    lam = 0
    for addr, located in info.layout.values():
        lam = bump(lam, located.sem)
    assert lam == info.lam


# -- frames ------------------------------------------------------------------------

def test_alloc_write_then_read():
    c = Config()
    addr = c.memory.alloc(32)
    c.memory.write(addr, encode_value(2, U256))
    assert decode_value(c.memory.read(addr, 32), U256) == 2
    assert c.memory.fresh == addr + 32


def test_alloc_fresh_addresses_are_disjoint():
    rng = random.Random(5)
    c = Config()
    spans = []
    for i in range(100):
        width = rng.choice([1, 16, 20, 32, 33, 64, 65])
        addr = c.memory.alloc(width)
        assert addr % 32 == 0
        span = (addr, addr + max(width, 32))
        for lo, hi in spans:
            assert span[1] <= lo or span[0] >= hi
        spans.append(span)


def _lookup(ev, name: str):
    """Where `name` resolves against the evaluator's bound locals."""
    return eval_lvalue(ev, parse_expression(name))


def test_lookup_shadowing_and_pop():
    world = world_from_source("contract C { uint256 x = 1; }")
    address = deploy(world, "C")
    ex = Executor(world)
    assert _lookup(ex.evaluator(address), "x").located.loc == typesys.STORAGE
    ev = ex.evaluator(address)
    ev = bind_local(ev, "x", Located(U256, typesys.MEMORY), 64)
    # memory shadows storage
    assert _lookup(ev, "x") == (64, Located(U256, typesys.MEMORY))
    assert _lookup(ex.evaluator(address), "x").located.loc == typesys.STORAGE
    assert world.instance(address).config.memory.scopes == [[]]  # untouched


def test_a_local_shadows_a_state_variable_of_its_name():
    world = world_from_source("""
    contract C { uint x = 1;
      function f() public returns (uint) { uint x = 9; return x; } }""")
    address = deploy(world, "C")
    res = Executor(world).run_transaction(Tx(sender=1, to=address, fname="f"))
    assert res.ok and res.value == 9
    assert _lookup(Executor(world).evaluator(address), "x").addr == 0


def test_scope_stack_restores_bindings():
    # each call runs in its own frame: a callee's local of the same name
    # neither sees nor overwrites the caller's
    world = world_from_source("""
    contract C { uint seen;
      function f() public returns (uint) { uint a = 5; g(); return a; }
      function g() { uint a; seen = a; a = 7; } }""")
    address = deploy(world, "C")
    res = Executor(world).run_transaction(Tx(sender=1, to=address, fname="f"))
    assert res.ok and res.value == 5
    assert read(world, address, "seen") == 0
    assert world.instance(address).config.memory.scopes == [[]]


@pytest.mark.parametrize("unit, message, line", [
    ("contract A { }\ncontract A { }", "contract A declared twice", 2),
    ("contract A { }\ncontract Coin { }", "contract Coin already registered",
     2),
    ("contract A {\n function f() public { }\n function f() public { } }",
     "function f declared twice in A", 3),
    ("contract A {\n function A() { }\n function A() { } }",
     "function A declared twice in A", 3),
    ("contract A {\n function() payable { }\n function() payable { } }",
     "contract A has more than one fallback", 3),
    ("contract A {\n uint256 a;\n uint128 a; }",
     "state variable a already declared", 3),
], ids=["contract-in-a-unit", "contract-across-units", "function",
        "constructor", "fallback", "state-variable"])
def test_a_declaration_made_twice_does_not_register(unit, message, line):
    # the unit parses; registration rejects it at the second declaration
    world, unit = make_world("coin.sol"), parse(unit)
    registry = dict(world.registry)
    with pytest.raises(DuplicateDeclaration) as err:
        world.register(unit)
    assert (err.value.message, err.value.span.line) == (message, line)
    assert world.registry == registry


@pytest.mark.parametrize("source, name, line", [
    ("contract C {\n function f(uint a, uint a) public { } }", "a", 2),
    ("contract C {\n function f(uint a) public returns (uint a) { } }", "a",
     2),
    ("contract C { function f(uint a) public {\n uint a = 3; } }", "a", 2),
    ("contract C { function f() public { uint a;\n"
     " if (true) { uint a = 1; } } }", "a", 2),
    ("contract C { function f() public { uint b;\n"
     " while (b < 2) { uint a; b = b + 1; }\n uint a; } }", "a", 3),
    ("contract C { function f() public returns (uint r) {\n uint r; } }", "r",
     2),
], ids=["two-parameters", "return-variable", "local-repeats-parameter",
        "in-a-nested-block", "after-a-loop", "local-repeats-return-variable"])
def test_duplicate_in_same_scope(source, name, line):
    # Solidity 0.4's "Identifier already declared": the second declaration
    # of a name in a function is a registration error at its own span
    world = World()
    with pytest.raises(DuplicateDeclaration) as err:
        world.register(parse(source))
    assert err.value.span.line == line
    assert f"{name} already declared" in str(err.value)
    assert world.registry == {}


# -- deployment --------------------------------------------------------------------

def test_deploy_coin_sets_minter():
    world = make_world("coin.sol")
    address = deploy(world, "Coin", sender=0x5EED)
    config = world.instance(address).config
    assert decode_value(config.storage.read(0, 20), Address()) == 0x5EED


def test_deploy_test2_exact_slot_bytes():
    world = make_world("test2.sol")
    address = deploy(world, "Test2")
    st_ = world.instance(address).config.storage
    def u128(v):
        return encode_value(v, U128)
    assert st_.read(0, 32) == u128(9) + bytes(16)  # a in the low half of slot 0
    assert st_.read(32, 32) == u128(1) + u128(2)   # two elements per slot
    assert st_.read(64, 32) == u128(3) + bytes(16)  # padding after the third
    assert st_.read(96, 32) == u128(4) + u128(5)
    assert st_.read(128, 32) == u128(6) + bytes(16)
    assert world.contract_info("Test2").lam == 160


def test_deployments_get_distinct_addresses():
    world = make_world("coin.sol")
    a1 = deploy(world, "Coin")
    a2 = deploy(world, "Coin")
    assert a1 != a2


def test_deploy_is_deterministic():
    def fingerprint():
        world = make_world("coverage.sol")
        address = deploy(world, "Main", sender=0xFEED)
        inst = world.instance(address)
        return sorted(inst.config.storage.bytes.items()), \
            world.contract_info(inst.contract_name).lam
    assert fingerprint() == fingerprint()


def test_fingerprint_sees_leaked_regions_and_addresses():
    world = make_world("coin.sol")
    address = deploy(world, "Coin")
    before = world.storage_fingerprint()
    # a mapping key taken from a static array is a list
    world.instance(address).config.storage.record_hashed(
        7, "mapping", 1, [1, 2], U256)
    leaked = world.storage_fingerprint()
    assert leaked != before
    hash(tuple(leaked.items()))
    world.fresh_address()
    assert world.storage_fingerprint() != leaked


def test_constructor_runs_under_creation_msg():
    world = make_world("dao.sol")
    bank = deploy(world, "Bank", value=10)
    assert world.instance(bank).balance == 10
    attack = Executor(world).deploy("Attack", args=(bank,), sender=0xBB, value=2)
    config = world.instance(attack).config
    assert decode_value(config.storage.read(0, 20),
                        typesys.Contract("Bank")) == bank


def test_zero_value_defaults():
    assert zero_value(U256) == 0
    assert zero_value(Bool()) is False
    assert zero_value(typesys.String()) == ""


# -- registration ------------------------------------------------------------------

@pytest.mark.parametrize("unit, error, message", [
    # a duplicate of a registered contract, after a new one
    ("contract Fresh { uint x; } contract Coin { uint y; }",
     DuplicateDeclaration, "contract Coin already registered"),
    # a well-typed contract, then an ill-typed one
    ("contract Fresh { uint x; } "
     "contract Bad { bool b; function f() public { b = b + 1; } }",
     SolTypeError, "arithmetic on non-numeric types bool/uint256"),
    # an ill-typed state-variable initializer
    ("contract Fresh { bool b; uint x = b + 1; }", SolTypeError,
     "arithmetic on non-numeric types bool/uint256"),
    ("contract Fresh { function f() nope public { } }", UnknownIdentifier,
     "unknown modifier nope"),
    # a modifier has no return variable
    ("contract Fresh { uint y; modifier m { return 5; _; } "
     "function f() m public returns (uint) { y = 1; } }", SolTypeError,
     "return value in a modifier"),
])
def test_registration_is_all_or_nothing(unit, error, message):
    world = make_world("coin.sol")
    registry = dict(world.registry)
    infos = copy.deepcopy(registry)  # the compiled code compares by identity
    with pytest.raises(error) as err:
        world.register(parse(unit))
    assert err.value.message == message and err.value.span is not None
    if error is UnknownIdentifier:  # at the modifier's name
        assert err.value.span.col == unit.index("nope") + 1 == 31
    # no contract is added, and no registered one changes
    assert world.registry == registry == infos
    # the world goes on as if the unit had never been offered
    world.register(parse("contract Fresh { uint x; }"))
    assert set(world.registry) == {"Coin", "Fresh"}


def test_a_dropped_world_is_freed_without_the_cycle_collector():
    # the compiled closures read the World from the running call, so
    # nothing the World holds refers back to it
    gc.disable()
    try:
        world = World()
        world.register(parse(contract_source("dao.sol")))
        ex = Executor(world)
        bank = ex.deploy("Bank", value=10)
        attack = ex.deploy("Attack", args=(bank,), sender=0xB, value=2)
        for fname in ("addToBalance", "withdrawBalance"):
            assert ex.run_transaction(Tx(sender=0xB, to=attack,
                                         fname=fname)).ok
        assert world.instance(bank).balance == 0
        ref = weakref.ref(world)
        del world, ex
        assert ref() is None
    finally:
        gc.enable()
