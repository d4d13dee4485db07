"""Sizing, alignment, packing, and static typing."""

import pytest
from hypothesis import given, strategies as st

from solsem import typesys
from solsem.errors import SolTypeError, UnknownIdentifier, UnsizedType
from solsem.executor import Executor
from solsem.parser import parse_expression
from solsem.typesys import (
    Address, Bool, Contract, DynArray, Int256, Located, Mapping, Ref,
    StaticArray, String, Struct, UInt, align_up, bump, field_offset, packed,
    size_of, size_packed, sized,
)

from conftest import bind_local, contract_source, deploy, make_world
from packing_oracle import PRIMITIVE_POOL, all_field_lists, place_fields
from typing_oracle import type_of

U128 = UInt(128)
U256 = UInt(256)
ARR_128_3_2 = StaticArray(StaticArray(U128, 3), 2)


# -- size_of -----------------------------------------------------------------

def test_size_of_primitives():
    assert size_of(U128) == 16  # a uint128 occupies half a slot
    assert size_of(U256) == 32
    assert size_of(UInt(8)) == 1
    assert size_of(Bool()) == 1
    assert size_of(Address()) == 20
    assert size_of(Int256()) == 32
    assert size_of(Contract("X")) == 20  # stored as an address-sized reference


def test_size_of_nested_static_array():
    # inner uint128[3] pads to two slots, two of those make 128 bytes
    assert size_of(StaticArray(U128, 3)) == 64
    assert size_of(ARR_128_3_2) == 128


def test_size_of_slot_width_types():
    assert size_of(Mapping(U256, U256)) == 32
    assert size_of(DynArray(U256)) == 32
    assert size_of(Ref(StaticArray(U256, 2))) == 32
    assert size_of(String()) == 32


def test_size_of_structs():
    assert size_of(Struct("P", (("x", U128), ("y", U128)))) == 32
    assert size_of(Struct("Q", (("x", U128), ("y", U256)))) == 64
    assert size_of(Struct("R", (("a", U128), ("b", U128), ("c", U256)))) == 64


P = Struct("P", (("x", U128), ("y", U128)))
Q = Struct("Q", (("a", U128), ("b", StaticArray(UInt(8), 2)),
                 ("c", Mapping(U256, U256)), ("d", Bool()), ("p", P)))

# (type, size, the Size/SR labels the compiler applies for it), in order
_SIZED = [
    (UInt(8), 1, ("Size1",)),
    (U256, 32, ("Size1",)),
    (Int256(), 32, ()),
    (Bool(), 1, ()),
    (Address(), 20, ()),
    (Contract("X"), 20, ()),
    (String(), 32, ()),
    (StaticArray(UInt(8), 2), 32, ("Size1", "Size2")),
    (ARR_128_3_2, 128, ("Size1", "Size2", "Size2")),
    (DynArray(U256), 32, ("Size4",)),
    (Mapping(U256, U256), 32, ("Size5",)),
    (Ref(StaticArray(U256, 2)), 32, ("Size7",)),
    # a primitive field packs (SR2) without its Size1
    (P, 32, ("SR2", "SR2", "SR1", "Size3")),
    (StaticArray(P, 2), 64, ("SR2", "SR2", "SR1", "Size3", "Size2")),
    (Q, 160, ("SR2", "Size1", "Size2", "SR3", "Size5", "SR3", "SR2",
              "SR2", "SR2", "SR1", "Size3", "SR3", "SR1", "Size3")),
]


@pytest.mark.parametrize("t, size, labels", _SIZED)
def test_sized_gives_the_size_and_its_rule_labels(t, size, labels):
    assert sized(t) == (size, labels)
    assert size_of(t) == size


def test_a_field_offset_has_the_labels_of_packing_the_fields_before_it():
    # (struct, k, offset of field k, labels of packing fields 0..k-1)
    for s, k, offset, labels in [
            (P, 0, 0, ("SR1",)), (P, 1, 16, ("SR2", "SR1")),
            (Q, 1, 32, ("SR2", "SR1")),
            (Q, 2, 64, ("SR2", "Size1", "Size2", "SR3", "SR1")),
            (Q, 4, 128, ("SR2", "Size1", "Size2", "SR3", "Size5", "SR3",
                         "SR2", "SR1"))]:
        assert field_offset(s, k) == offset
        assert packed(0, s.field_types()[:k])[1] == labels


def test_unsized_in_packing_contexts():
    with pytest.raises(UnsizedType):
        size_of(StaticArray(Contract("X"), 2))
    with pytest.raises(UnsizedType):
        size_of(StaticArray(String(), 2))
    with pytest.raises(UnsizedType):
        size_of(Struct("S", (("c", Contract("X")),)))
    with pytest.raises(UnsizedType):
        size_packed(0, [String()])


# -- size_packed ---------------------------------------------------------------

def test_size_packed_examples():
    assert size_packed(0, []) == 0
    # two uint128 share slot 0, the uint256 starts at 32
    assert size_packed(0, [U128, U128, U256]) == 64
    # a uint256 cannot pack into the 16 bytes left after a uint128
    assert size_packed(0, [U128, U256]) == 64


def test_size_packed_matches_placement_oracle_exhaustively():
    starts = (0, 1, 5, 15, 16, 17, 20, 31, 32, 33, 48, 63, 64)
    cases = 0
    for fields in all_field_lists(4):
        for start in starts:
            assert size_packed(start, list(fields)) == \
                place_fields(start, fields), (start, fields)
            cases += 1
    assert cases >= 10_000


# -- align_up / bump -------------------------------------------------------------

def test_align_up_examples():
    assert align_up(16, U256) == 32  # next slot boundary
    assert align_up(0, U128) == 0  # fits where it is
    assert align_up(16, ARR_128_3_2) == 32  # complex types slot-align
    assert align_up(16, U128) == 16
    assert align_up(17, U128) == 32
    assert align_up(32, U256) == 32


def test_bump_examples():
    assert bump(32, U256) == 64
    assert bump(0, U128) == 16
    assert bump(16, ARR_128_3_2) == 160


_prims = st.sampled_from(PRIMITIVE_POOL)
_types = st.one_of(
    _prims,
    st.builds(StaticArray, _prims, st.integers(min_value=1, max_value=5)),
    st.builds(DynArray, _prims),
    st.builds(Mapping, st.sampled_from((UInt(256), Address())), _prims),
)


@given(_types)
def test_sizes_are_positive_and_complex_sizes_are_slot_multiples(t):
    s = size_of(t)
    assert s >= 1
    if not typesys.is_primitive(t):
        assert s % 32 == 0


@given(st.integers(min_value=0, max_value=4096), _types)
def test_align_and_bump_laws(addr, t):
    a = align_up(addr, t)
    assert a >= addr
    assert bump(addr, t) == a + size_of(t)


@given(st.lists(_prims, max_size=6))
def test_packing_monotonicity(fields):
    per_field = sum((size_of(t) + 31) // 32 * 32 for t in fields)
    assert size_packed(0, fields) <= per_field


# -- field_offset ------------------------------------------------------------------

def test_field_offsets():
    s = Struct("S", (("a", U128), ("b", U128), ("c", U256)))
    assert field_offset(s, 0) == 0
    assert field_offset(s, 1) == 16  # packs beside field 0
    assert field_offset(s, 2) == 32  # derived: size_packed(0, [a, b]) aligned
    t = Struct("T", (("a", U128), ("b", U256)))
    assert field_offset(t, 1) == 32  # uint256 cannot pack after 16 bytes


def test_field_offset_agrees_with_packing():
    for fields in all_field_lists(3):
        if not fields:
            continue
        s = Struct("S", tuple((f"f{i}", t) for i, t in enumerate(fields)))
        for k in range(len(fields)):
            assert field_offset(s, k) == align_up(
                size_packed(0, list(fields[:k])), fields[k])


# -- resolve / key constraints ------------------------------------------------------

def test_mapping_key_grammar():
    with pytest.raises(SolTypeError):
        typesys.resolve_type(
            parse_type("mapping(bool=>uint)"), {}, set())
    ok = typesys.resolve_type(parse_type("mapping(address=>uint)"), {}, set())
    assert ok == Mapping(Address(), U256)
    nested = typesys.resolve_type(
        parse_type("mapping(uint=>mapping(uint=>uint))"), {}, set())
    assert nested.value == Mapping(U256, U256)


def parse_type(text: str):
    from solsem.lexer import tokenize
    from solsem.parser import Parser
    return Parser(tokenize(text)).parse_type()


# -- the elementary type table ---------------------------------------------------

@pytest.mark.parametrize("name", list(typesys.ELEMENTARY))
def test_every_elementary_name_parses_to_the_tables_own_instance(name):
    tn = parse_type(name)
    assert tn.name == {"uint": "uint256", "int": "int256"}.get(name, name)
    assert typesys.resolve_type(tn, {}, set()) is typesys.ELEMENTARY[name]
    assert typesys.type_to_str(typesys.ELEMENTARY[name]) == tn.name


def test_exactly_the_integer_and_address_names_cast():
    world = make_world("coin.sol")
    env = _typing_env(world, deploy(world, "Coin"))
    cast = set()
    for name in typesys.ELEMENTARY:
        try:
            located = env.type_of(parse_expression(f"{name}(minter)"))
        except UnknownIdentifier as err:  # not a cast: an unknown function
            assert err.message == f"unknown function {name}"
            continue
        assert located == Located(typesys.ELEMENTARY[name], typesys.MEMORY)
        cast.add(name)
    assert cast == {"uint", "uint8", "uint16", "uint32", "uint64", "uint128",
                    "uint256", "int", "int256", "address"}


# -- static typing against deployed fixtures -----------------------------------------

def _typing_env(world, address):
    return Executor(world).evaluator(address)


def test_type_of_nested_array_element():
    world = make_world("test2.sol")
    address = deploy(world, "Test2")
    env = _typing_env(world, address)
    got = type_of(env, parse_expression("b[1]"))
    assert got == Located(StaticArray(U128, 3), typesys.STORAGE)
    got = type_of(env, parse_expression("b[1][2]"))
    assert got == Located(U128, typesys.STORAGE)


def test_type_of_mapping_value():
    world = make_world("dao.sol")
    address = deploy(world, "Bank")
    env = _typing_env(world, address)
    from solsem.state import Msg
    world.msg = Msg(sender=0xAB)
    got = type_of(env, parse_expression("credit[msg.sender]"))
    assert got == Located(U256, typesys.STORAGE)


def test_type_of_storage_pointer():
    world = make_world("test.sol")
    address = deploy(world, "Test")
    ptr_t = Located(Ref(StaticArray(U256, 2)), typesys.STORAGE)
    env = _typing_env(world, address)
    env = bind_local(env, "d", ptr_t, 0)
    assert type_of(env, parse_expression("d")) == ptr_t
    # indexing through the ref lands on the element type, still storage
    assert type_of(env, parse_expression("d[0]")) == \
        Located(U256, typesys.STORAGE)
    assert type_of(env, parse_expression("d")).loc == typesys.STORAGE


def test_storage_class_state_vs_param():
    world = make_world("coin.sol")
    address = deploy(world, "Coin", sender=0xAA)
    env = _typing_env(world, address)
    assert type_of(env, parse_expression("minter")).loc == \
        typesys.STORAGE
    # a parameter binds in memory (the I-FUN binding discipline)
    amount = world.instance(address).config.memory.alloc(32)
    env = bind_local(env, "amount", Located(U256, typesys.MEMORY), amount)
    assert type_of(env, parse_expression("amount")).loc == \
        typesys.MEMORY


def test_type_errors():
    world = make_world("coin.sol")
    address = deploy(world, "Coin")
    env = _typing_env(world, address)
    with pytest.raises(SolTypeError):
        type_of(env, parse_expression("minter[0]"))
    with pytest.raises(Exception):
        type_of(env, parse_expression("nosuch"))
    with pytest.raises(SolTypeError):
        type_of(env, parse_expression("balances[true]"))
