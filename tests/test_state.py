"""The word store, encoding, allocation, scopes, and deployment state."""

import random

import pytest
from hypothesis import given, strategies as st

from solsem import typesys
from solsem.errors import DuplicateDeclaration, RangeError, ScopeUnderflow
from solsem.executor import Executor
from solsem.state import (
    ByteStore, Config, HashedRegion, Msg, StorageState, decode_value,
    encode_key32, encode_value, zero_value,
)
from solsem.typesys import Address, Bool, Int256, Located, UInt, bump

from conftest import deploy, make_world

U128 = UInt(128)
U256 = UInt(256)


# -- the word store -------------------------------------------------------------

def test_fresh_read_is_zero():
    c = Config()
    assert c.read_bytes("storage", 12345, 32) == bytes(32)
    assert c.read_bytes("memory", 0, 64) == bytes(64)


def test_single_byte_write_reads_back_as_big_endian_word():
    c = Config()
    c.write_bytes("storage", 31, b"\x07")
    assert c.read_bytes("storage", 0, 32) == (7).to_bytes(32, "big")


def test_slot_one_write_decodes():
    c = Config()
    c.write_bytes("storage", 32, encode_value(8, U256))
    assert decode_value(c.read_bytes("storage", 32, 32), U256) == 8


def test_zero_writes_keep_map_canonical():
    c = Config()
    c.write_bytes("storage", 0, bytes(32))
    assert c.storage.bytes == {}
    c.write_bytes("storage", 0, encode_value(7, U256))
    c.write_bytes("storage", 0, bytes(32))
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
    c.write_bytes("storage", 0, encode_value(7, U256))
    assert decode_value(c.read_bytes("storage", 0, 16), U128) == 0


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
    assert encode_key32(100, U256) == (100).to_bytes(32, "big")
    assert encode_key32(0xAB, Address()) == (0xAB).to_bytes(32, "big")
    arr_key = typesys.StaticArray(U128, 2)
    assert encode_key32([1, 2], arr_key) == \
        (1).to_bytes(16, "big") + (2).to_bytes(16, "big")


# -- static allocation -----------------------------------------------------------

def test_allocate_static_sequence():
    c = Config()
    assert c.allocate_static("a", U128) == 0
    assert c.storage.lam == 16
    assert c.allocate_static("b", U256) == 32
    assert c.storage.lam == 64


def test_allocate_duplicate_rejected():
    c = Config()
    c.allocate_static("a", U256)
    with pytest.raises(DuplicateDeclaration):
        c.allocate_static("a", U128)


def test_first_allocation_is_address_zero():
    for t in (U128, U256, typesys.Mapping(U256, U256),
              typesys.StaticArray(U256, 3)):
        c = Config()
        assert c.allocate_static("x", t) == 0


def test_lambda_recomputable_by_pure_fold():
    world = make_world("coverage.sol")
    address = deploy(world, "Main")
    storage = world.instance(address).config.storage
    lam = 0
    for name in storage.names:
        lam = bump(lam, storage.types[name].sem)
    assert lam == storage.lam


# -- fr and scopes ------------------------------------------------------------------

def test_fr_write_then_read():
    c = Config()
    addr = c.fr("p1", Located(U256, typesys.MEMORY), encode_value(2, U256))
    binding = c.lookup("p1")
    assert binding.addr == addr and binding.space == typesys.MEMORY
    assert decode_value(c.read_bytes("memory", addr, 32), U256) == 2


def test_fr_fresh_addresses_are_disjoint():
    rng = random.Random(5)
    c = Config()
    spans = []
    for i in range(100):
        width = rng.choice([1, 16, 20, 32])
        data = bytes(width)
        addr = c.fr(f"v{i}", Located(U256, typesys.MEMORY), data)
        span = (addr, addr + max(width, 32))
        for lo, hi in spans:
            assert span[1] <= lo or span[0] >= hi
        spans.append(span)


def test_lookup_shadowing_and_pop():
    c = Config()
    c.allocate_static("x", U256)
    c.write_bytes("storage", 0, encode_value(1, U256))
    assert c.lookup("x").space == typesys.STORAGE
    c.memory.push_scope()
    c.fr("x", Located(U256, typesys.MEMORY), encode_value(9, U256))
    assert c.lookup("x").space == typesys.MEMORY  # memory shadows storage
    c.memory.pop_scope()
    assert c.lookup("x").space == typesys.STORAGE


def test_scope_stack_restores_bindings():
    c = Config()
    c.memory.push_scope()
    c.fr("a", Located(U256, typesys.MEMORY), bytes(32))
    before = dict(c.memory.top.names)
    c.memory.push_scope()
    c.fr("b", Located(U256, typesys.MEMORY), bytes(32))
    c.memory.pop_scope()
    assert dict(c.memory.top.names) == before


def test_scope_underflow():
    c = Config()
    with pytest.raises(ScopeUnderflow):
        c.memory.pop_scope()


def test_duplicate_in_same_scope():
    c = Config()
    c.fr("a", Located(U256, typesys.MEMORY), bytes(32))
    with pytest.raises(DuplicateDeclaration):
        c.fr("a", Located(U256, typesys.MEMORY), bytes(32))


def test_scoped_lookup_matches_reference_oracle():
    """Random push/bind/pop sequences against a dict-of-stacks model."""
    rng = random.Random(123)
    c = Config()
    c.allocate_static("g", U256)
    model = [{"g": (0, typesys.STORAGE)}]  # base: storage globals
    c.memory.push_scope()
    model.append({})
    names = ["a", "b", "cc", "g"]
    for _ in range(300):
        op = rng.choice(["bind", "push", "pop", "lookup"])
        if op == "bind":
            name = rng.choice(names)
            if name in c.memory.top.names:
                continue
            addr = c.fr(name, Located(U256, typesys.MEMORY), bytes(32))
            model[-1][name] = (addr, typesys.MEMORY)
        elif op == "push":
            if len(model) > 8:
                continue
            c.memory.push_scope()
            model.append({})
        elif op == "pop":
            if len(model) <= 2:
                continue
            c.memory.pop_scope()
            model.pop()
        else:
            name = rng.choice(names)
            expected = model[-1].get(name) or model[0].get(name)
            if expected is None:
                with pytest.raises(Exception):
                    c.lookup(name)
            else:
                got = c.lookup(name)
                assert (got.addr, got.space) == expected


# -- deployment --------------------------------------------------------------------

def test_deploy_coin_sets_minter():
    world = make_world("coin.sol")
    address = deploy(world, "Coin", sender=0x5EED)
    config = world.instance(address).config
    assert decode_value(config.read_bytes("storage", 0, 20), Address()) == 0x5EED


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
    assert st_.lam == 160


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
        return sorted(inst.config.storage.bytes.items()), inst.config.storage.lam
    assert fingerprint() == fingerprint()


def test_fingerprint_sees_leaked_regions_and_addresses():
    world = make_world("coin.sol")
    address = deploy(world, "Coin")
    before = world.storage_fingerprint()
    # a mapping key taken from a static array is a list
    world.instance(address).config.storage.record_hashed(HashedRegion(
        slot=7, kind="mapping", base_slot=1, key=[1, 2], value_type=U256))
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
    assert decode_value(config.read_bytes("storage", 0, 20),
                        typesys.Contract("Bank")) == bank


def test_zero_value_defaults():
    assert zero_value(U256) == 0
    assert zero_value(Bool()) is False
    assert zero_value(typesys.String()) == ""
