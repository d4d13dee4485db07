"""Semantic types, byte sizing, slot alignment, value encoding, and the
per-node typing steps.

`ELEMENTARY` is the one table of elementary type names: the parser
recognizes and normalizes a name by it, `resolve_type` returns its shared
instances, casts are its integer and address entries, and `type_to_str`
names an elementary type by it.

The slot width is fixed at 32 bytes for the whole engine. Primitives pack
into the current slot when they fit before the next 32-byte boundary;
complex types (arrays, structs, mappings, dynamic arrays, refs, strings)
always start slot-aligned and occupy a multiple of 32 bytes.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import NamedTuple

from . import ast
from .errors import RangeError, SolTypeError, UnsizedType

SLOT = 32  # byte alignment `l`

STORAGE = "storage"
MEMORY = "memory"


# ---------------------------------------------------------------------------
# type grammar
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SemType:
    pass


@dataclass(frozen=True)
class UInt(SemType):
    width: int  # bits, power of two in [8, 256]


@dataclass(frozen=True)
class Literal(UInt):
    """An integer literal's type, solc's integer constant: a uint256 that
    carries its value. `binary_type` and `unary_type` never return one."""
    width: int = field(default=256, init=False)
    value: int


@dataclass(frozen=True)
class Int256(SemType):
    pass


@dataclass(frozen=True)
class Bool(SemType):
    pass


@dataclass(frozen=True)
class Address(SemType):
    pass


@dataclass(frozen=True)
class String(SemType):
    pass


@dataclass(frozen=True)
class StaticArray(SemType):
    elem: SemType
    length: int


@dataclass(frozen=True)
class DynArray(SemType):
    elem: SemType


@dataclass(frozen=True)
class Mapping(SemType):
    key: SemType
    value: SemType


@dataclass(frozen=True)
class Struct(SemType):
    name: str
    fields: tuple  # tuple[(field name, SemType), ...]

    def field_types(self):
        return [t for _, t in self.fields]


@dataclass(frozen=True)
class Contract(SemType):
    name: str


@dataclass(frozen=True)
class Ref(SemType):
    inner: SemType


# every elementary type name of the subset, its canonical name first and
# the `uint`/`int` aliases last, each bound to one shared instance
ELEMENTARY = {f"uint{w}": UInt(w) for w in (8, 16, 32, 64, 128, 256)}
ELEMENTARY.update(int256=Int256(), bool=Bool(), address=Address(),
                  string=String())
ELEMENTARY.update(uint=ELEMENTARY["uint256"], int=ELEMENTARY["int256"])
_NAMES = {t: name for name, t in reversed(ELEMENTARY.items())}
UINT256, BOOL = ELEMENTARY["uint256"], ELEMENTARY["bool"]


class Located(NamedTuple):
    """A semantic type paired with its location class."""
    sem: SemType
    loc: str  # STORAGE | MEMORY


PRIMITIVES = (UInt, Int256, Bool, Address, Contract)


def is_primitive(t: SemType) -> bool:
    return isinstance(t, PRIMITIVES)


def is_reference_kind(t: SemType) -> bool:
    """Types that, declared locally without `memory`, bind as storage pointers."""
    return isinstance(t, (StaticArray, DynArray, Mapping, Struct))


def type_to_str(t: SemType) -> str:
    if isinstance(t, UInt):  # a literal's too
        return f"uint{t.width}"
    if t in _NAMES:
        return _NAMES[t]
    if isinstance(t, StaticArray):
        return f"{type_to_str(t.elem)}[{t.length}]"
    if isinstance(t, DynArray):
        return f"{type_to_str(t.elem)}[]"
    if isinstance(t, Mapping):
        return f"mapping({type_to_str(t.key)}=>{type_to_str(t.value)})"
    if isinstance(t, Struct):
        return f"struct {t.name}"
    if isinstance(t, Contract):
        return f"contract {t.name}"
    if isinstance(t, Ref):
        return f"{type_to_str(t.inner)} ref"
    raise SolTypeError(f"unknown type {t!r}")


def _valid_mapping_key(t: SemType) -> bool:
    if isinstance(t, (UInt, Address)):
        return True
    if isinstance(t, StaticArray):
        return _valid_mapping_key(t.elem)
    return False


def resolve_type(tn: ast.TypeName, structs: dict, contract_names) -> SemType:
    """Resolve a syntactic type name against the enclosing unit's declarations."""
    if isinstance(tn, ast.ElementaryTypeName):
        if tn.name not in ELEMENTARY:
            raise SolTypeError(f"unknown elementary type {tn.name}", tn.span)
        return ELEMENTARY[tn.name]
    if isinstance(tn, ast.ArrayTypeName):
        base = resolve_type(tn.base, structs, contract_names)
        if tn.length is None:
            return DynArray(base)
        if tn.length <= 0:
            raise SolTypeError("static array length must be positive", tn.span)
        check_packable(base, "a static array", tn.span)
        return StaticArray(base, tn.length)
    if isinstance(tn, ast.MappingTypeName):
        key = resolve_type(tn.key, structs, contract_names)
        if not _valid_mapping_key(key):
            raise SolTypeError(
                f"{type_to_str(key)} cannot be a mapping key", tn.span)
        if isinstance(key, StaticArray) \
                and key.length * size_of(key.elem) > SLOT:
            raise SolTypeError(f"mapping key {type_to_str(key)} is wider than "
                               f"32 bytes", tn.span)
        value = resolve_type(tn.value, structs, contract_names)
        return Mapping(key, value)
    if isinstance(tn, ast.UserTypeName):
        if tn.name in structs:
            return structs[tn.name]
        if tn.name in contract_names:
            return Contract(tn.name)
        raise SolTypeError(f"unknown type name {tn.name}", tn.span)
    raise SolTypeError(f"unresolvable type {tn!r}", getattr(tn, "span", None))


# ---------------------------------------------------------------------------
# sizing and alignment
# ---------------------------------------------------------------------------

def check_packable(t: SemType, context: str, span=None):
    if isinstance(t, (Contract, String)):
        raise UnsizedType(f"{type_to_str(t)} cannot be packed inside {context}",
                          span)


# a type whose size does not depend on its parts: (size, Size rule labels)
_FIXED_SIZES = {
    Int256: (32, ()), Bool: (1, ()),
    # contract-typed variables hold a 20-byte reference, like an address
    Address: (20, ()), Contract: (20, ()),
    String: (SLOT, ()),  # base slot only; content lives in a hashed region
    DynArray: (SLOT, ("Size4",)), Mapping: (SLOT, ("Size5",)),
    Ref: (SLOT, ("Size7",)),
}


@functools.cache
def sized(t: SemType) -> tuple:
    """(byte extent of t, including padding for complex types; the Size and
    SR rule labels that compute it, in the order they apply)."""
    if isinstance(t, UInt):
        return t.width // 8, ("Size1",)
    if isinstance(t, StaticArray):
        check_packable(t.elem, "a static array")
        inner, labels = sized(t.elem)
        return _ceil_to_slot(t.length * inner), labels + ("Size2",)
    if isinstance(t, Struct):
        extent, labels = packed(0, t.field_types())
        return _ceil_to_slot(extent), labels + ("Size3",)
    return _FIXED_SIZES[type(t)]


def size_of(t: SemType) -> int:
    """Byte extent of a type, including padding for complex types."""
    return sized(t)[0]


def _ceil_to_slot(n: int) -> int:
    return (n + SLOT - 1) // SLOT * SLOT


def _next_boundary(addr: int) -> int:
    return (addr // SLOT + 1) * SLOT


def align_up(addr: int, t: SemType) -> int:
    """Smallest admissible address >= addr for a value of type t.

    Primitives stay in place when they fit before the next slot boundary;
    complex types round up to a slot boundary.
    """
    if is_primitive(t):
        if addr + size_of(t) <= _next_boundary(addr):
            return addr
        return _next_boundary(addr)
    return _ceil_to_slot(addr)


def bump(addr: int, t: SemType) -> int:
    """align_up then advance by the type's size (the allocation step)."""
    return align_up(addr, t) + size_of(t)


def packed(start: int, fields) -> tuple:
    """Fold packing over a field list starting at byte offset `start`.

    Returns (the byte extent after placing every field, the fold's rule
    labels): a primitive packs (SR2; its Size1 is not applied), a complex
    field first aligns to the slot boundary (its Size labels, then SR3),
    and SR1 ends the fold.
    """
    n, labels = start, ()
    for t in fields:
        check_packable(t, "a struct")
        if is_primitive(t):
            n, labels = align_up(n, t) + size_of(t), labels + ("SR2",)
        else:
            size, inner = sized(t)
            n, labels = _ceil_to_slot(n) + size, labels + inner + ("SR3",)
    return n, labels + ("SR1",)


def size_packed(start: int, fields) -> int:
    """The byte extent after packing `fields` from byte offset `start`."""
    return packed(start, fields)[0]


def field_offset(struct_t: Struct, k: int) -> int:
    """Packed byte offset of field k within its struct."""
    types = struct_t.field_types()
    return align_up(size_packed(0, types[:k]), types[k])


def field_index(struct_t: Struct, name: str, span=None) -> int:
    for i, (fname, _) in enumerate(struct_t.fields):
        if fname == name:
            return i
    raise SolTypeError(f"struct {struct_t.name} has no field {name}", span)


# ---------------------------------------------------------------------------
# value encoding
# ---------------------------------------------------------------------------

def encode_value(v, t: SemType) -> bytes:
    """Fixed-width big-endian encoding of a primitive value at type t. A
    bool takes a bool; an integer, address or contract an int that is not a
    bool. A value of another kind (from outside: a transaction's argument)
    is a SolTypeError, an int out of t's range a RangeError."""
    # a bool is an int to Python: only a Bool takes one
    if not isinstance(v, int) or isinstance(t, Bool) != (type(v) is bool):
        raise SolTypeError(f"{v!r} is not a value of type {type_to_str(t)}")
    if isinstance(t, UInt):
        if not 0 <= v < (1 << t.width):
            raise RangeError(f"{v} out of range for uint{t.width}")
        return v.to_bytes(t.width // 8, "big")
    if isinstance(t, Int256):
        if not -(1 << 255) <= v < (1 << 255):
            raise RangeError(f"{v} out of range for int256")
        return (v % (1 << 256)).to_bytes(32, "big")
    if isinstance(t, Bool):
        return b"\x01" if v else b"\x00"
    if isinstance(t, (Address, Contract)):
        if not 0 <= v < (1 << 160):
            raise RangeError(f"{v} is not a 160-bit address")
        return v.to_bytes(20, "big")
    raise SolTypeError(f"cannot encode a value of type {type_to_str(t)}")


def decode_value(data: bytes, t: SemType):
    if isinstance(t, UInt):
        return int.from_bytes(data[-(t.width // 8):], "big")
    if isinstance(t, Int256):
        raw = int.from_bytes(data[-32:], "big")
        return raw - (1 << 256) if raw >= (1 << 255) else raw
    if isinstance(t, Bool):
        return data[-1] != 0
    if isinstance(t, (Address, Contract)):
        return int.from_bytes(data[-20:], "big")
    raise SolTypeError(f"cannot decode a value of type {type_to_str(t)}")


@functools.cache
def key_encoder(t: SemType):
    """k -> bytes32(k) for a mapping key of type t: a uint, an address, or a
    static array of them (`resolve_type` admits no other key)."""
    if isinstance(t, StaticArray):
        enc, size = key_encoder(t.elem), size_of(t.elem)
        return lambda v: b"".join([enc(x)[-size:] for x in v]).rjust(
            SLOT, b"\x00")
    bound = 1 << (t.width if isinstance(t, UInt) else 160)  # else an address
    # encode_value's range test, inlined: it is called only to raise
    return lambda v: v.to_bytes(SLOT, "big") if 0 <= v < bound \
        else encode_value(v, t)


def zero_value(t: SemType):
    """The value a variable of type t holds before it is assigned."""
    return False if isinstance(t, Bool) else "" if isinstance(t, String) else 0


# ---------------------------------------------------------------------------
# typing steps: a node's type from its children's (the compiler applies them).
# An integer literal types as a `Literal` (so does a named constant, and a
# literal's negation), and every step reads literal-ness off those types.
# ---------------------------------------------------------------------------

def _fits(t: SemType, u: UInt) -> bool:
    """t is a literal whose value a u holds."""
    return isinstance(t, Literal) and 0 <= t.value < 1 << u.width


def _comparable(op: str, a: SemType, b: SemType) -> bool:
    """Integers, and addresses with contracts, compare among themselves by
    any operator; bools and strings only by (in)equality."""
    for kinds in ((UInt, Int256), (Address, Contract), (Bool,), (String,)):
        if isinstance(a, kinds) and isinstance(b, kinds):
            return op in ("==", "!=") or len(kinds) == 2
    return False


def index_type(e: ast.Index, base: Located, index_t: SemType) -> Located:
    """Type of `e` given its base's and its index's types: an array element
    (Type1/Type7; the index must be an integer) or a mapping value
    (Type4/Type6; the key must fit the declared key type, and the mapping
    must be in storage, not a field of a memory struct)."""
    sem, _ = _strip_ref(base.sem)
    if isinstance(sem, (StaticArray, DynArray)):
        if not isinstance(index_t, (UInt, Int256)):
            raise SolTypeError("array index must be an integer",
                               getattr(e.index, "span", None))
        return Located(sem.elem, base.loc)
    if isinstance(sem, Mapping):
        if base.loc != STORAGE:
            raise SolTypeError("mappings live in storage only", e.span)
        if not _mapping_key_compatible(sem.key, index_t):
            got = f"int_const {index_t.value}" \
                if isinstance(index_t, Literal) else type_to_str(index_t)
            raise SolTypeError(f"mapping key must be {type_to_str(sem.key)}, "
                               f"got {got}", e.span)
        return Located(sem.value, base.loc)
    raise SolTypeError(
        f"cannot index a value of type {type_to_str(base.sem)}", e.span)


def member_type(e: ast.Member, base: Located) -> Located:
    """Type of struct field access `e` given its base's type (Type2/Type8)."""
    sem, _ = _strip_ref(base.sem)
    if isinstance(sem, Struct):
        return Located(sem.fields[field_index(sem, e.name, e.span)][1],
                       base.loc)
    raise SolTypeError(
        f"no member {e.name} on type {type_to_str(base.sem)}", e.span)


def dyn_array(base: Located, what: str, span) -> DynArray:
    """The dynamic array a `.length` or `push` base types as, through a ref;
    only a storage array can `push`."""
    sem, _ = _strip_ref(base.sem)
    if not isinstance(sem, DynArray):
        raise SolTypeError(f"{what} requires a dynamic array", span)
    if what == "push" and base.loc != STORAGE:
        raise SolTypeError("push requires a storage array", span)
    return sem


def binary_type(e, lt: SemType, rt: SemType) -> SemType:
    """Result type of `e`, a comparison or arithmetic `ast.Binary` or a
    compound `ast.Assign`, given its operands' types: bool for a comparison,
    the unified operand type for arithmetic."""
    if e.op in ("==", "!=", "<", "<=", ">", ">="):
        if not _comparable(e.op, lt, rt):
            raise SolTypeError(
                f"cannot compare {type_to_str(lt)} with {type_to_str(rt)}",
                e.span)
        return BOOL
    if e.op not in ("+", "-", "*", "/", "%"):  # not from the parser
        raise SolTypeError(f"operator {e.op} not defined", e.span)
    # arithmetic: the operands unify; an integer literal adapts to a signed
    # operand, and to an unsigned one that can hold it
    if isinstance(lt, UInt) and isinstance(rt, UInt):
        t = lt if _fits(rt, lt) else rt if _fits(lt, rt) else \
            lt if lt.width >= rt.width else rt
        return UINT256 if isinstance(t, Literal) else t  # never a literal
    if isinstance(lt, Int256) and isinstance(rt, (Int256, Literal)):
        return lt
    if isinstance(lt, Literal) and isinstance(rt, Int256):
        return rt
    if isinstance(lt, (UInt, Int256)) and isinstance(rt, (UInt, Int256)):
        raise SolTypeError("cannot mix signed and unsigned arithmetic", e.span)
    raise SolTypeError(f"arithmetic on non-numeric types {type_to_str(lt)}/"
                       f"{type_to_str(rt)}", e.span)


def unary_type(e: ast.Unary, it: SemType) -> SemType:
    """Result type of `!` (bool) or unary `-` (numeric) given the operand's."""
    if e.op == "!":
        if not isinstance(it, Bool):
            raise SolTypeError("! requires a bool operand", e.span)
        return BOOL
    if e.op != "-":  # not from the parser
        raise SolTypeError(f"operator {e.op} not defined", e.span)
    if not isinstance(it, (UInt, Int256)):
        raise SolTypeError("unary - requires a numeric operand", e.span)
    return UINT256 if isinstance(it, Literal) else it


def _strip_ref(t: SemType):
    if isinstance(t, Ref):
        return t.inner, True
    return t, False


def _mapping_key_compatible(declared: SemType, actual: SemType) -> bool:
    if isinstance(declared, StaticArray) and isinstance(actual, StaticArray):
        return declared.length == actual.length and \
            _mapping_key_compatible(declared.elem, actual.elem)
    if isinstance(declared, Address):  # or a literal in [0, 2**160)
        return isinstance(actual, (Address, Contract)) or isinstance(
            actual, Literal) and 0 <= actual.value < 1 << 160
    # a literal key must fit its key type
    return isinstance(declared, UInt) and isinstance(actual, UInt) and (
        _fits(actual, declared) or not isinstance(actual, Literal))

