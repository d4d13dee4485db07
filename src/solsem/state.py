"""Run-time state: per-instance storage and memory, the chain, and Msg.

Storage and memory are byte-addressed spaces kept as sparse maps from slot
(byte address // 32) to 32-byte word, the EVM's word-to-word store; an
all-zero word is absent and reads as zero. Addresses are unbounded integers,
so hash-derived slots near 2^256 cost nothing. Multi-byte values are
big-endian within their own field width, and fields pack starting at the
low byte-offset end of a slot; a uint256 written over a slot therefore lands
its numeric low-order byte at offset 31, which is what makes a previously
packed uint128 at offset 0 read back as zero.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import NamedTuple, Optional

from . import ast, typesys
from .errors import (
    DuplicateDeclaration, RangeError, ScopeUnderflow, SolTypeError,
    UnknownAddress, UnknownIdentifier,
)
from .trace import Trace


# ---------------------------------------------------------------------------
# 32-byte words
# ---------------------------------------------------------------------------

SLOT = typesys.SLOT
ZERO_WORD = bytes(SLOT)


def _put_word(words: dict, slot: int, word) -> None:
    """Set a slot's word; None or an all-zero word leaves the slot absent."""
    if word is None or word == ZERO_WORD:
        words.pop(slot, None)
    else:
        words[slot] = word


@dataclass
class ByteStore:
    """Bytes at arbitrary addresses, stored by 32-byte word. A read or write
    inside one slot is one lookup and a slice; a longer one loops over the
    slots it spans. Equal contents have equal `words`."""
    words: dict = field(default_factory=dict)  # slot -> non-zero word

    def read(self, addr: int, size: int) -> bytes:
        slot, off = divmod(addr, SLOT)
        end = off + size
        if end <= SLOT:
            return self.words.get(slot, ZERO_WORD)[off:end]
        get = self.words.get
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


# ---------------------------------------------------------------------------
# value encoding
# ---------------------------------------------------------------------------

def encode_value(v, t: typesys.SemType) -> bytes:
    """Fixed-width big-endian encoding of a primitive value at type t."""
    if isinstance(t, typesys.UInt):
        v = int(v)
        if not 0 <= v < (1 << t.width):
            raise RangeError(f"{v} out of range for uint{t.width}")
        return v.to_bytes(t.width // 8, "big")
    if isinstance(t, typesys.Int256):
        v = int(v)
        if not -(1 << 255) <= v < (1 << 255):
            raise RangeError(f"{v} out of range for int256")
        return (v % (1 << 256)).to_bytes(32, "big")
    if isinstance(t, typesys.Bool):
        if isinstance(v, int):
            v = bool(v)
        return b"\x01" if v else b"\x00"
    if isinstance(t, (typesys.Address, typesys.Contract)):
        v = int(v)
        if not 0 <= v < (1 << 160):
            raise RangeError(f"{v} is not a 160-bit address")
        return v.to_bytes(20, "big")
    raise SolTypeError(f"cannot encode a value of type {typesys.type_to_str(t)}")


def decode_value(data: bytes, t: typesys.SemType):
    if isinstance(t, typesys.UInt):
        return int.from_bytes(data[-(t.width // 8):], "big")
    if isinstance(t, typesys.Int256):
        raw = int.from_bytes(data[-32:], "big")
        return raw - (1 << 256) if raw >= (1 << 255) else raw
    if isinstance(t, typesys.Bool):
        return data[-1] != 0
    if isinstance(t, (typesys.Address, typesys.Contract)):
        return int.from_bytes(data[-20:], "big")
    raise SolTypeError(f"cannot decode a value of type {typesys.type_to_str(t)}")


def encode_key32(v, t: typesys.SemType) -> bytes:
    """A mapping key left-padded into 32 bytes (bytes32(k))."""
    if isinstance(t, typesys.StaticArray):
        parts = b"".join(encode_key32(x, t.elem)[-typesys.size_of(t.elem):]
                         for x in v)
        if len(parts) > 32:
            raise SolTypeError("mapping key wider than 32 bytes")
        return parts.rjust(32, b"\x00")
    raw = encode_value(v, t)
    return raw.rjust(32, b"\x00")


def zero_value(t: typesys.SemType):
    if isinstance(t, (typesys.UInt, typesys.Int256, typesys.Address,
                      typesys.Contract)):
        return 0
    if isinstance(t, typesys.Bool):
        return False
    if isinstance(t, typesys.String):
        return ""
    return 0


# ---------------------------------------------------------------------------
# storage (Psi) and memory (M)
# ---------------------------------------------------------------------------

class Binding(NamedTuple):
    addr: int
    space: str  # which name space resolved the identifier
    located: typesys.Located


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
    lam: int = 0  # next static allocation address
    names: dict = field(default_factory=dict)  # id -> byte address
    types: dict = field(default_factory=dict)  # id -> Located
    hashed: dict = field(default_factory=dict)  # slot -> HashedRegion
    # undo records (fn, *args); a deployed instance shares World.journal
    journal: list = field(default_factory=list, repr=False, compare=False)

    def write(self, addr: int, data: bytes) -> None:
        super().write(addr, data, self.journal)

    def record_hashed(self, region: HashedRegion) -> None:
        if region.slot not in self.hashed:
            self.hashed[region.slot] = region
            self.journal.append((dict.pop, self.hashed, region.slot))


class _Frame(NamedTuple):
    names: dict
    types: dict
    decls: dict  # id -> the declaration statement that bound it, or None


@dataclass
class MemoryState(ByteStore):
    """Memory lives while the instance has a live frame: it is cleared when
    the scope stack is back to its base frame. `fresh` only grows, so a
    memory address is never reused within a run. Its writes are not
    journaled: a transaction leaves memory empty, rolled back or not."""
    fresh: int = 0
    scopes: list = field(default_factory=lambda: [_Frame({}, {}, {})])
    journal: list = field(default_factory=list, repr=False, compare=False)

    @property
    def top(self) -> _Frame:
        return self.scopes[-1]

    def push_scope(self) -> None:
        self.scopes.append(_Frame({}, {}, {}))

    def pop_scope(self) -> None:
        if len(self.scopes) <= 1:
            raise ScopeUnderflow("cannot pop the base scope frame")
        self.scopes.pop()
        if len(self.scopes) == 1:
            self.words.clear()


@dataclass
class Msg:
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

    # -- byte access, space selected by the expression's location class ------

    def space(self, loc: str):
        return self.storage if loc == typesys.STORAGE else self.memory

    def read_bytes(self, loc: str, addr: int, size: int) -> bytes:
        return self.space(loc).read(addr, size)

    def write_bytes(self, loc: str, addr: int, data: bytes) -> None:
        self.space(loc).write(addr, data)

    # -- declaration and lookup ----------------------------------------------

    def allocate_static(self, name: str, t: typesys.SemType, trace=None) -> int:
        st = self.storage
        if name in st.names:
            raise DuplicateDeclaration(f"state variable {name} already declared")
        addr = typesys.align_up(st.lam, t)
        st.names[name] = addr
        st.types[name] = typesys.Located(t, typesys.STORAGE)
        st.lam = typesys.bump(st.lam, t, trace)
        return addr

    def fr(self, name: str, located: typesys.Located, data: bytes,
           decl=None) -> int:
        """Bind `name` to a fresh memory address in the top frame and copy
        `data` there."""
        mem = self.memory
        addr = mem.fresh
        self.bind_pointer(name, located, addr, decl)
        mem.journal.append((setattr, mem, "fresh", addr))
        mem.fresh += max((len(data) + typesys.SLOT - 1)
                         // typesys.SLOT * typesys.SLOT, typesys.SLOT)
        mem.write(addr, data)
        return addr

    def bind_pointer(self, name: str, located: typesys.Located, addr: int,
                     decl=None) -> None:
        """Bind a local name directly to an existing address (storage pointers
        and memory aggregates); no fresh bytes are written. A local is scoped
        to its whole function, so running its declaration `decl` again (a
        loop body) rebinds it; any other redeclaration fails."""
        top = self.memory.top
        if name in top.names and (decl is None or top.decls[name] is not decl):
            raise DuplicateDeclaration(f"{name} already declared in this scope")
        top.names[name] = addr
        top.types[name] = located
        top.decls[name] = decl

    def lookup(self, name: str, span=None) -> Binding:
        mem = self.memory
        if name in mem.top.names:  # the top memory frame shadows storage
            return Binding(mem.top.names[name], typesys.MEMORY,
                           mem.top.types[name])
        st = self.storage
        if name in st.names:
            return Binding(st.names[name], typesys.STORAGE, st.types[name])
        raise UnknownIdentifier(f"unknown identifier {name}", span)

    def has_name(self, name: str) -> bool:
        return name in self.memory.top.names or name in self.storage.names


# ---------------------------------------------------------------------------
# contract registry (the function tables)
# ---------------------------------------------------------------------------

RETURN_SLOT_NAME = "%ret"  # synthesized binding for anonymous return values


@dataclass
class FunctionInfo:
    name: str
    params: list  # [(name, SemType)]
    ret: Optional[tuple]  # (name, SemType) or None
    guard: Optional[ast.Expr]  # normalized modifier condition; None = true
    body: list
    specifiers: tuple = ()


@dataclass
class ContractInfo:
    name: str
    state_vars: list  # [(name, SemType, init Expr|None)]
    structs: dict
    functions: dict
    constructor: Optional[FunctionInfo]
    fallback: Optional[FunctionInfo]
    source: ast.ContractDef


def _is_guard_modifier(body: list):
    """`if (cond) _;` (no else) contributes a pure guard condition."""
    if len(body) == 1 and isinstance(body[0], ast.If) \
            and body[0].otherwise is None \
            and len(body[0].then) == 1 \
            and isinstance(body[0].then[0], ast.Placeholder):
        return body[0].cond
    return None


def _inline_placeholder(mod_body: list, fn_body: list) -> list:
    out = []
    for s in mod_body:
        if isinstance(s, ast.Placeholder):
            out.extend(fn_body)
        else:  # a statement's list-valued children are its nested blocks
            out.append(replace(s, **{
                name: _inline_placeholder(block, fn_body)
                for name, block in ast.children(s) if isinstance(block, list)}))
    return out


def _normalize_function(f: ast.FunctionDef, modifiers: dict, structs: dict,
                        contract_names) -> FunctionInfo:
    params = [(p.name, typesys.resolve_type(p.type_name, structs, contract_names))
              for p in f.params]
    ret = None
    if f.returns is not None:
        ret = (f.returns.name or RETURN_SLOT_NAME,
               typesys.resolve_type(f.returns.type_name, structs, contract_names))
    guard = None
    body = f.body
    for mname in reversed(f.modifiers):
        if mname not in modifiers:
            raise UnknownIdentifier(f"unknown modifier {mname}", f.span)
        mbody = modifiers[mname].body
        cond = _is_guard_modifier(mbody)
        if cond is not None:
            guard = cond if guard is None else ast.Binary(op="&&", lhs=cond,
                                                          rhs=guard)
        else:
            body = _inline_placeholder(mbody, body)
    return FunctionInfo(name=f.name, params=params, ret=ret, guard=guard,
                        body=body, specifiers=f.specifiers)


def build_contract_info(c: ast.ContractDef, contract_names) -> ContractInfo:
    structs: dict = {}
    for sd in c.structs:
        fields = tuple(
            (p.name, typesys.resolve_type(p.type_name, structs, contract_names))
            for p in sd.fields)
        structs[sd.name] = typesys.Struct(name=sd.name, fields=fields)
    modifiers = {m.name: m for m in c.modifiers}
    state_vars = []
    for v in c.state_vars:
        t = typesys.resolve_type(v.type_name, structs, contract_names)
        state_vars.append((v.name, t, v.init))
    functions = {}
    constructor = None
    fallback = None
    for f in c.functions:
        info = _normalize_function(f, modifiers, structs, contract_names)
        if f.is_constructor:
            constructor = info
        elif f.is_fallback:
            fallback = info
        else:
            functions[f.name] = info
    return ContractInfo(name=c.name, state_vars=state_vars, structs=structs,
                        functions=functions, constructor=constructor,
                        fallback=fallback, source=c)


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
        self.warnings: list = []
        self.call_depth: int = 0
        self.stmt_steps: int = 0
        self._next_frame_id: int = 0
        # undo records (fn, *args) of the running transaction, oldest first
        self.journal: list = []
        self.derived_slots: dict = {}  # Keccak input -> slot, see derived_slot

    # -- registry -------------------------------------------------------------

    def register(self, unit: ast.SourceUnit) -> None:
        names = set(self.registry) | {c.name for c in unit.contracts}
        for c in unit.contracts:
            if c.name in self.registry:
                raise DuplicateDeclaration(f"contract {c.name} already registered")
            self.registry[c.name] = build_contract_info(c, names)

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

    def derived_slot(self, derive, *args) -> int:
        """`derive(*args)` for a pure slot function, computed once per World.
        The args are the Keccak input, so they key the memo: (p, key32,
        order) for a mapping, (p, 0) for a dynamic array's base."""
        slot = self.derived_slots.get(args)
        if slot is None:
            slot = self.derived_slots[args] = derive(*args)
        return slot

    def new_frame_id(self) -> int:
        self._next_frame_id += 1
        return self._next_frame_id

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
        its contract, balance, storage words, names, types, lam and hashed
        regions, plus (under "next_address") the next address to deploy at."""
        out: dict = {}
        for addr, inst in sorted(self.instances.items()):
            st = inst.config.storage
            out[addr] = (
                inst.contract_name, inst.balance,
                tuple(sorted(st.words.items())),
                tuple(sorted(st.names.items())),
                tuple(sorted(st.types.items())), st.lam,
                tuple((slot, r.kind, r.base_slot, _frozen(r.key), r.value_type)
                      for slot, r in sorted(st.hashed.items())))
        out["next_address"] = self.next_address
        return out


def _frozen(v):
    """A mapping key from a static array is a list; make it hashable."""
    return tuple(map(_frozen, v)) if isinstance(v, list) else v
