"""Run-time state: per-instance storage and memory, the chain, and Msg.

Storage and memory are byte-addressed spaces kept as sparse maps from slot
(byte address // 32) to 32-byte word, the EVM's word-to-word store; an
all-zero word is absent and reads as zero. Addresses are unbounded integers,
so hash-derived slots near 2^256 cost nothing. Multi-byte values are
big-endian within their own field width, and fields pack starting at the
low byte-offset end of a slot; a uint256 written over a slot therefore lands
its numeric low-order byte at offset 31, which is what makes a previously
packed uint128 at offset 0 read back as zero. An instance's storage holds
only its words and hashed regions: where each state variable lives is its
contract's `layout`, which `build_contract_info` computes once.
"""

from __future__ import annotations

import functools
import itertools
import operator
from dataclasses import dataclass, field
from typing import NamedTuple, Optional

from . import ast, evaluator, typesys
from .errors import (
    DuplicateDeclaration, UnknownAddress, UnknownIdentifier,
)
from .trace import Trace, Write
# the value codecs live in typesys; they are imported from here too
from .typesys import (  # noqa: F401
    decode_value, encode_value, key_encoder, zero_value,
)


# ---------------------------------------------------------------------------
# 32-byte words
# ---------------------------------------------------------------------------

SLOT = typesys.SLOT  # the slot of a slot-aligned address is addr >> 5
ZERO_WORD = bytes(SLOT)
_INTS = (typesys.UInt, typesys.Address, typesys.Contract)  # int.from_bytes


def _put_word(words: dict, slot: int, word) -> None:
    """Set a slot's word; None or an all-zero word leaves the slot absent."""
    if word is None or word == ZERO_WORD:
        words.pop(slot, None)
    else:
        words[slot] = word


@dataclass
class ByteStore:
    """Bytes at arbitrary addresses, stored by 32-byte word: a read or write
    loops over the slots it spans (field_reader and field_writer take one
    lookup for a primitive inside one slot). Equal contents have equal words."""
    words: dict = field(default_factory=dict)  # slot -> non-zero word

    def read(self, addr: int, size: int) -> bytes:
        slot, off = divmod(addr, SLOT)
        end, get = off + size, self.words.get
        return b"".join([get(s, ZERO_WORD) for s in
                         range(slot, slot + (end + SLOT - 1) // SLOT)])[off:end]

    def write(self, addr: int, data: bytes, journal: list | None = None) -> None:
        """Splice `data` in at `addr`; with a journal, append one undo record
        (put-word, words, slot, old word or None) per slot written."""
        words = self.words
        slot, off = divmod(addr, SLOT)
        pos, size = 0, len(data)
        while pos < size:
            take = min(SLOT - off, size - pos)
            old = words.get(slot)
            base = old or ZERO_WORD
            if journal is not None:
                journal.append((_put_word, words, slot, old))
            _put_word(words, slot,
                       base[:off] + data[pos:pos + take] + base[off + take:])
            slot, off, pos = slot + 1, 0, pos + take

    @property
    def bytes(self) -> dict:
        """Read-only {byte address: byte} view of the non-zero bytes."""
        return {slot * SLOT + i: b for slot, word in self.words.items()
                for i, b in enumerate(word) if b}


@functools.cache
def field_reader(loc: str, t: typesys.SemType):
    """read(ev, addr): the primitive t at addr in ev's `loc` store. A uint256
    is its whole word: every 32-byte field starts a slot. Any other is one
    word lookup and a slice, unless the field straddles two slots."""
    space, size, ints = operator.attrgetter(loc), typesys.size_of(t), \
        isinstance(t, _INTS)
    if size == SLOT and ints:
        return lambda ev, addr: int.from_bytes(
            space(ev).words.get(addr >> 5, ZERO_WORD), "big")

    def read(ev, addr):
        slot, off = divmod(addr, SLOT)
        data = space(ev).words.get(slot, ZERO_WORD)[off:off + size] \
            if off + size <= SLOT else space(ev).read(addr, size)
        return int.from_bytes(data, "big") if ints else decode_value(data, t)
    return read


@functools.cache
def field_writer(loc: str, t: typesys.SemType):
    """write(ev, addr, v) -> its Writes: v as the primitive t at addr in ev's
    `loc` store. An integer in range is encoded inline, else by encode_value
    (its RangeError or SolTypeError). A uint256 replaces its whole word; any
    other field inside one slot is one spliced word."""
    space, size = operator.attrgetter(loc), typesys.size_of(t)
    bound, journaled = 1 << 8 * size if isinstance(t, _INTS) else 0, \
        loc == typesys.STORAGE

    def write_word(ev, addr, v):
        data = v.to_bytes(SLOT, "big") if type(v) is int and 0 <= v < bound \
            else encode_value(v, t)
        store, slot = space(ev), addr >> 5
        words = store.words
        if journaled:  # the undo record ByteStore.write appends
            store.journal.append((_put_word, words, slot, words.get(slot)))
        if data == ZERO_WORD:  # as _put_word: an all-zero word is absent
            words.pop(slot, None)
        else:
            words[slot] = data
        return [Write(loc, addr, data)]

    def write(ev, addr, v):
        data = v.to_bytes(size, "big") if type(v) is int and 0 <= v < bound \
            else encode_value(v, t)
        store = space(ev)
        slot, off = divmod(addr, SLOT)
        if off + size > SLOT:  # a field that straddles two slots
            store.write(addr, data)
            return [Write(loc, addr, data)]
        words = store.words
        old = words.get(slot)
        if journaled:
            store.journal.append((_put_word, words, slot, old))
        base = old or ZERO_WORD
        words[slot] = word = base[:off] + data + base[off + size:]
        if word == ZERO_WORD:
            del words[slot]
        return [Write(loc, addr, data)]
    return write_word if size == SLOT and bound else write


@functools.cache
def fresh_writer(t: typesys.SemType):
    """put(memory, v) -> (address, its Writes): v as the primitive t at the
    start of a fresh memory slot, allocated as `MemoryState.alloc` allocates
    one (one undo record for `fresh`). A fresh slot holds nothing, so the
    word is v's bytes padded, and absent when all zero."""
    size = typesys.size_of(t)
    bound, pad = 1 << 8 * size if isinstance(t, _INTS) else 0, \
        bytes(SLOT - size)

    def put(memory, v):
        data = v.to_bytes(size, "big") if type(v) is int and 0 <= v < bound \
            else encode_value(v, t)
        addr = memory.fresh
        memory.journal.append((setattr, memory, "fresh", addr))
        memory.fresh = addr + SLOT
        if (word := data + pad) != ZERO_WORD:
            memory.words[addr >> 5] = word
        return addr, [Write(typesys.MEMORY, addr, data)]
    return put


# ---------------------------------------------------------------------------
# storage (Psi) and memory (M)
# ---------------------------------------------------------------------------

@dataclass
class HashedRegion:
    """Record of a hash-derived slot, for layout reports and collision checks."""
    slot: int
    kind: str  # 'dynarray' | 'mapping' | 'string'
    base_slot: int
    key: object  # element index, or the mapping key value
    value_type: Optional[typesys.SemType] = None


@dataclass
class StorageState(ByteStore):
    hashed: dict = field(default_factory=dict)  # slot -> HashedRegion
    # undo records (fn, *args); a deployed instance shares World.journal
    journal: list = field(default_factory=list, repr=False, compare=False)

    def write(self, addr: int, data: bytes) -> None:
        super().write(addr, data, self.journal)

    def record_hashed(self, slot: int, kind: str, base_slot: int, key,
                      value_type: Optional[typesys.SemType] = None) -> None:
        """Record hash-derived `slot` undoably as a `HashedRegion`, built only
        the first time the slot is seen: a seen slot keeps its first record."""
        hashed = self.hashed
        if slot not in hashed:
            hashed[slot] = HashedRegion(slot, kind, base_slot, key, value_type)
            self.journal.append((dict.pop, hashed, slot))


@dataclass
class MemoryState(ByteStore):
    """Memory lives while the instance has a live frame (a list of local
    addresses): it is cleared when the scope stack is back to its base
    frame. `fresh` only grows, so a memory address is never reused within a
    run. Its writes are not journaled: a transaction leaves memory empty,
    rolled back or not."""
    fresh: int = 0
    scopes: list = field(default_factory=lambda: [[]])
    journal: list = field(default_factory=list, repr=False, compare=False)

    def alloc(self, size: int) -> int:
        """A fresh slot-aligned address with room for `size` bytes."""
        addr = self.fresh
        self.journal.append((setattr, self, "fresh", addr))
        self.fresh = addr + max((size + SLOT - 1) // SLOT * SLOT, SLOT)
        return addr


class Msg(NamedTuple):  # the executor builds it through tuple.__new__
    sender: int
    value: int = 0
    gas: int = 0


@dataclass
class Config:
    """A contract instance's sigma = (storage, memory, omega)."""
    storage: StorageState = field(default_factory=StorageState)
    memory: MemoryState = field(default_factory=MemoryState)
    # callers of the in-flight external calls into this instance; their Msgs
    # are saved on World.msg_stack
    omega: list = field(default_factory=list)


# ---------------------------------------------------------------------------
# contract registry (signatures, layouts and compiled code)
# ---------------------------------------------------------------------------

RETURN_SLOT_NAME = "%ret"  # synthesized binding for anonymous return values


@dataclass
class FunctionInfo:
    name: str
    params: list  # [(name, SemType)]
    ret: Optional[tuple]  # (name, SemType) or None
    # (size, bind, body, result), set by evaluator.compile_contract
    code: Optional[tuple] = field(default=None, repr=False)


@dataclass
class ContractInfo:
    name: str
    layout: dict  # in declaration order: name -> LValue(byte address, Located)
    lam: int  # the first address after the layout
    structs: dict
    functions: dict
    constructor: Optional[FunctionInfo]
    fallback: Optional[FunctionInfo]
    init: object = field(default=None, repr=False)  # the compiled initializer


def build_contract_info(c: ast.ContractDef, contract_names) -> ContractInfo:
    """What another contract needs to type a call into `c`: its structs,
    storage layout and function signatures. A state variable or function
    declared twice is a DuplicateDeclaration at the second one."""
    structs: dict = {}
    for sd in c.structs:
        fields = tuple(
            (p.name, typesys.resolve_type(p.type_name, structs, contract_names))
            for p in sd.fields)
        for p, (_, t) in zip(sd.fields, fields):
            typesys.check_packable(t, "a struct", p.type_name.span)
        structs[sd.name] = typesys.Struct(name=sd.name, fields=fields)
    layout, lam = {}, 0  # the allocation fold of VD1
    for v in c.state_vars:
        if v.name in layout:
            raise DuplicateDeclaration(
                f"state variable {v.name} already declared", v.span)
        t = typesys.resolve_type(v.type_name, structs, contract_names)
        layout[v.name] = evaluator.LValue(typesys.align_up(lam, t),
                                          typesys.Located(t, typesys.STORAGE))
        lam = typesys.bump(lam, t)
    functions = {}  # by name: the constructor's is c.name, the fallback's ""
    for f in c.functions:
        if f.name in functions:
            raise DuplicateDeclaration(
                f"function {f.name} declared twice in {c.name}" if f.name
                else f"contract {c.name} has more than one fallback", f.span)
        ret = f.returns and (
            f.returns.name or RETURN_SLOT_NAME,
            typesys.resolve_type(f.returns.type_name, structs, contract_names))
        functions[f.name] = FunctionInfo(name=f.name, ret=ret, params=[
            (p.name, typesys.resolve_type(p.type_name, structs, contract_names))
            for p in f.params])
    return ContractInfo(name=c.name, layout=layout, lam=lam, structs=structs,
                        constructor=functions.pop(c.name, None),
                        fallback=functions.pop("", None), functions=functions)


# ---------------------------------------------------------------------------
# the chain
# ---------------------------------------------------------------------------

@dataclass
class Instance:
    config: Config
    contract_name: str
    balance: int = 0


@dataclass
class EngineOptions:
    evm_hash_order: bool = False  # hash key||slot instead of the default slot||key
    max_steps: Optional[int] = None
    max_call_depth: int = 1024
    step_hook: Optional[object] = None  # callable(world, step_no); may raise


FIRST_ADDRESS = 0x1000


class World:
    """The chain: deployed instances, the contract registry, and the ambient
    transaction context. One mutable value; strictly single-writer."""

    def __init__(self, options: EngineOptions | None = None):
        self.instances: dict = {}  # address -> Instance
        self.registry: dict = {}  # contract name -> ContractInfo
        self.next_address: int = FIRST_ADDRESS
        self.tx_count: int = 0
        self.trace = Trace()
        self.msg: Optional[Msg] = None
        self.msg_stack: list = []
        self.options = options or EngineOptions()
        self.call_depth: int = 0
        self.stmt_steps: int = 0
        self.frame_ids = itertools.count(1)  # of external frames, in order
        # undo records (fn, *args) of the running transaction, oldest first
        self.journal: list = []
        self.derived_slots: dict = {}  # Keccak input -> slot, see derived_slot

    # -- registry -------------------------------------------------------------

    def register(self, unit: ast.SourceUnit) -> None:
        """Add the unit's contracts, all or none. Each is built, with its
        storage layout and signatures, and then compiled against the registry
        with the whole unit in it: every function, with its modifiers, and
        its initializer. The first error, a contract declared twice included,
        raises with its span and leaves `registry` as it was."""
        registry = dict(self.registry)
        names = set(registry) | {c.name for c in unit.contracts}
        for c in unit.contracts:
            if c.name in registry:
                raise DuplicateDeclaration(
                    f"contract {c.name} already registered"
                    if c.name in self.registry
                    else f"contract {c.name} declared twice", c.span)
            registry[c.name] = build_contract_info(c, names)
        for c in unit.contracts:
            evaluator.compile_contract(registry, self.trace, c)
        self.registry.update(registry)

    def contract_info(self, name: str) -> ContractInfo:
        if name not in self.registry:
            raise UnknownIdentifier(f"unknown contract {name}")
        return self.registry[name]

    def instance(self, address: int) -> Instance:
        if address not in self.instances:
            raise UnknownAddress(f"no contract instance at {address:#x}")
        return self.instances[address]

    def fresh_address(self) -> int:
        addr = self.next_address
        self.journal.append((setattr, self, "next_address", addr))
        self.next_address += 1
        return addr

    def create_instance(self, contract_name: str, balance: int) -> int:
        """Deploy an empty instance of `contract_name` at a fresh address."""
        address = self.fresh_address()
        journal = self.journal
        self.instances[address] = Instance(
            config=Config(storage=StorageState(journal=journal),
                          memory=MemoryState(journal=journal)),
            contract_name=contract_name, balance=balance)
        journal.append((dict.pop, self.instances, address))
        return address

    def credit(self, instance: Instance, amount: int) -> None:
        """Add `amount` wei (negative for a debit) to an instance's balance."""
        self.journal.append((setattr, instance, "balance", instance.balance))
        instance.balance += amount

    def transfer(self, src: Instance, dst: Instance, m: int) -> None:
        """Move m wei from src to dst; the caller has checked src's balance."""
        self.journal.extend(((setattr, src, "balance", src.balance),
                             (setattr, dst, "balance", dst.balance)))
        src.balance -= m
        dst.balance += m

    def derived_slot(self, derive, *args) -> int:
        """`derive(*args)` for a pure slot function, computed once per World.
        The args are the Keccak input, so they key the memo: (p, key32,
        order) for a mapping, (p, 0) for a dynamic array's base."""
        slot = self.derived_slots.get(args)
        if slot is None:
            slot = self.derived_slots[args] = derive(*args)
        return slot

    # -- the undo journal (transaction atomicity) ------------------------------

    def snapshot(self) -> int:
        """A mark in the journal; restore(mark) undoes every later change."""
        return len(self.journal)

    def restore(self, mark: int) -> None:
        journal = self.journal
        while len(journal) > mark:
            undo, *args = journal.pop()
            undo(*args)

    def commit(self) -> None:
        """Drop the undo records: the state, kept or restored, is final."""
        self.journal.clear()

    def storage_fingerprint(self) -> dict:
        """Comparable, hashable view of all persistent state: per instance
        its contract, balance, storage words and hashed regions, plus (under
        "next_address") the next address to deploy at. The layout is the
        contract's, the same for every instance."""
        out: dict = {}
        for addr, inst in sorted(self.instances.items()):
            st = inst.config.storage
            out[addr] = (
                inst.contract_name, inst.balance,
                tuple(sorted(st.words.items())),
                tuple((slot, r.kind, r.base_slot, _frozen(r.key), r.value_type)
                      for slot, r in sorted(st.hashed.items())))
        out["next_address"] = self.next_address
        return out


def _frozen(v):
    """A mapping key from a static array is a list; make it hashable."""
    return tuple(map(_frozen, v)) if isinstance(v, list) else v
