"""The compiler: each function becomes a tree of closures, built once.

`World.register` compiles every function of a unit, with its modifiers,
and each contract's initializer (`compile_contract`) against the storage
layout and signatures its declarations fixed, before anything deploys,
and keeps the code on the contract's FunctionInfos and ContractInfo;
`Executor.call_internal` and `Executor.deploy` run the closures. The
compiler is the one static walk over the AST, and the type check: it fixes
each node's kind, each identifier's binding, each typing step of `typesys`
(`index_type`, `binary_type`, ...), the sizes with their Size/SR labels
(`typesys.sized`, cached per type, and `typesys.packed`), the operators,
the value codecs (`_reader` and `_writer` per type; a primitive's are
state.py's one-word field_reader and field_writer) and the rule labels
each node emits, joined where nodes always run together (a state
variable's read is Type3, E-ID1 and E-RV in one call). Each node is
compiled once, by its kind's rule: a guard `if (c) _;` is an `if`. The
first ill-typed node raises its error, with its span, so a contract that
registers is well typed. A closure does only the dynamic work, against an
`Evaluator`, the context of one running call: reads, journaled writes,
slot derivations, calls and emission.

A name is fixed per scope: a local if the scope declares it (a function's
parameters, return variable and body `VarDecl`s; or one modifier
application's own `VarDecl`s), else a state variable, else an
`UnknownIdentifier`. Each local has a fixed index in the function's frame,
a list of addresses filled as declarations run, so a local used before its
declaration has run aborts. A second declaration of a name in one scope is
a registration error, as are an unknown modifier, `return e;` in one and
`_;` outside one.

Dynamic-array and mapping addresses are hash-derived at slot granularity:
element i of an array based at slot p lives at slot keccak256(bytes32(p))+i,
and key k of a mapping based at slot p lives at slot
keccak256(bytes32(p) || bytes32(k)). The concatenation order puts the base
slot first by default; `evm_hash_order` flips it for differential runs
against real-chain layouts.
"""

from __future__ import annotations

import functools
import operator
from types import SimpleNamespace
from typing import NamedTuple, Optional

from . import ast, typesys
from .errors import (
    DivisionByZero, DuplicateDeclaration, IndexOutOfBounds,
    SolTypeError, SolsemError, TxAborted, UnknownIdentifier,
)
from .keccak import keccak256_int
from .state import field_reader, field_writer
from .trace import Trace, Write
from .typesys import (
    MEMORY, SLOT, STORAGE, UINT256, Located, zero_value,
)

# what a cast converts, among themselves, and the elementary types a cast
# names: integers, addresses and contracts
_CASTABLE = (typesys.UInt, typesys.Int256, typesys.Address, typesys.Contract)
_KINDS = ((typesys.Bool,), _CASTABLE, (typesys.String,))

# the (typing, evaluation) rules of an access by its base's kind: through a
# plain base, then through a ref (after the ref's Size7)
_ACCESS_RULES = {
    typesys.StaticArray: (("Type1", "E-ARRAY"), ("Type7", "E-ARRAY-REF")),
    typesys.DynArray: (("Type1", "E-D-ARRAY"), ("Type7", "E-D-ARRAY-ref")),
    typesys.Mapping: (("Type4", "E-MAPPING"), ("Type6", "E-MAPPING-REF")),
    typesys.Struct: (("Type2", "E-STRUCT"), ("Type8", "E-STRUCT-ref")),
}
_LENGTH_RULES = {typesys.DynArray: (("E-ARRAY-LEN",), ("E-ARRAY-LEN-ref",))}

_U256 = Located(UINT256, MEMORY)
_BOOL = Located(typesys.BOOL, MEMORY)
_ADDRESS = Located(typesys.ELEMENTARY["address"], MEMORY)
_SPACE = {loc: operator.attrgetter(loc) for loc in (STORAGE, MEMORY)}


def slot_of_dyn(p: int, i: int) -> int:
    """Slot of element i of a dynamic array whose base slot is p."""
    return keccak256_int(p.to_bytes(32, "big")) + i


def slot_of_map(p: int, key32: bytes, evm_hash_order: bool = False) -> int:
    """Slot of the value under `key32` in a mapping whose base slot is p."""
    base32 = p.to_bytes(32, "big")
    data = key32 + base32 if evm_hash_order else base32 + key32
    return keccak256_int(data)


def _slot_stride(elem: typesys.SemType) -> int:
    """Slots consumed per element inside a hashed region (at least one)."""
    return max(1, typesys.size_of(elem) // SLOT)


def _unsigned(f):
    """f at uint<w>: its result modulo 2^w."""
    def at(t):
        mod = 1 << t.width
        return lambda a, b: f(a, b) % mod
    return at


def _signed(f):
    """f at int256: its result wrapped into [-2^255, 2^255)."""
    return lambda t: lambda a, b: (f(a, b) + (1 << 255)) % (1 << 256) \
        - (1 << 255)


def _nonzero(op: str, f):
    """f, raising DivisionByZero for a zero rhs."""
    def checked(a, b):
        if b == 0:
            raise DivisionByZero(f"{op} by zero")
        return f(a, b)
    return checked


def _truncated(a, b):
    """a / b rounded toward zero."""
    q = abs(a) // abs(b)
    return q if (a < 0) == (b < 0) else -q


# (op, type of the operation, or None for any) -> t -> (lhs, rhs) -> result
_OPERATORS = {
    ("==", None): lambda t: operator.eq, ("!=", None): lambda t: operator.ne,
    ("<", None): lambda t: operator.lt, ("<=", None): lambda t: operator.le,
    (">", None): lambda t: operator.gt, (">=", None): lambda t: operator.ge,
    ("+", typesys.UInt): _unsigned(operator.add),
    ("-", typesys.UInt): _unsigned(operator.sub),
    ("*", typesys.UInt): _unsigned(operator.mul),
    ("/", typesys.UInt): _unsigned(_nonzero("/", operator.floordiv)),
    ("%", typesys.UInt): lambda t: _nonzero("%", operator.mod),
    ("+", typesys.Int256): _signed(operator.add),
    ("-", typesys.Int256): _signed(operator.sub),
    ("*", typesys.Int256): _signed(operator.mul),
    ("/", typesys.Int256): _signed(_nonzero("/", _truncated)),
    ("%", typesys.Int256): _signed(_nonzero(
        "%", lambda a, b: a - _truncated(a, b) * b)),
}


def _operator(op: str, t: typesys.SemType):
    """The function (lhs, rhs) -> lhs op rhs at type t: comparisons at any
    type; unsigned arithmetic wraps modulo 2^w, signed wraps into int256."""
    make = _OPERATORS.get((op, type(t))) or _OPERATORS[op, None]
    return make(t)


def _convert(v: int, t: typesys.SemType) -> int:
    if isinstance(t, typesys.UInt):
        return v % (1 << t.width)
    if isinstance(t, typesys.Int256):
        return (v + (1 << 255)) % (1 << 256) - (1 << 255)
    return v % (1 << 160)  # an address or a contract


def _count_step(world) -> None:
    """The step hook and the step budget, for a step already counted."""
    options = world.options
    if options.step_hook is not None:
        options.step_hook(world, world.stmt_steps)
    if options.max_steps is not None and world.stmt_steps > options.max_steps:
        raise TxAborted(f"exceeded max steps ({options.max_steps})")


class LValue(NamedTuple):
    addr: int
    located: Located


# ---------------------------------------------------------------------------
# the compiler
# ---------------------------------------------------------------------------

@functools.cache
def _reader(located: Located):
    """read(ev, addr): the value of `located` at addr (a ref's is addr). A
    static array reads as a list, a struct as a dict by field, a dynamic
    array as the list of its hash-derived elements, a mapping as None."""
    sem, loc = located
    space = _SPACE[loc]
    if isinstance(sem, typesys.Ref):
        return lambda ev, addr: addr
    if typesys.is_primitive(sem):
        return field_reader(loc, sem)
    if isinstance(sem, typesys.StaticArray):
        read, stride = _reader(Located(sem.elem, loc)), typesys.size_of(sem.elem)
        offsets = range(0, sem.length * stride, stride)
        return lambda ev, addr: [read(ev, addr + i) for i in offsets]
    if isinstance(sem, typesys.Struct):
        fields = [(name, _reader(Located(t, loc)), typesys.field_offset(sem, k))
                  for k, (name, t) in enumerate(sem.fields)]
        return lambda ev, addr: {name: read(ev, addr + offset)
                                 for name, read, offset in fields}
    if isinstance(sem, typesys.Mapping):
        return lambda ev, addr: None  # not enumerable
    if isinstance(sem, typesys.DynArray):
        read, stride = _reader(Located(sem.elem, loc)), _slot_stride(sem.elem)

        def read_array(ev, addr):
            length = int.from_bytes(space(ev).read(addr, SLOT), "big")
            if not length:
                return []
            h = ev.world.derived_slot(slot_of_dyn, addr // SLOT, 0)
            return [read(ev, (h + i * stride) * SLOT) for i in range(length)]
        return read_array

    def read_string(ev, addr):
        """The length word, then the bytes after it (memory) or in the chunk
        slots from keccak256(bytes32(p)) on (storage), in one read."""
        store = space(ev)
        length = int.from_bytes(store.read(addr, SLOT), "big")
        at = addr + SLOT if loc == MEMORY else \
            ev.world.derived_slot(slot_of_dyn, addr // SLOT, 0) * SLOT
        return store.read(at, length).decode("utf-8", "replace")
    return read_string


def _writer(located: Located, span=None):
    """write(ev, addr, v): store v at addr as `located`; its Write records.
    A whole struct, dynamic array, mapping or storage pointer is not a
    target: a SolTypeError with `span`."""
    sem, loc = located
    space = _SPACE[loc]
    if typesys.is_primitive(sem):
        return field_writer(loc, sem)
    if isinstance(sem, typesys.StaticArray):
        write, stride = _writer(Located(sem.elem, loc), span), \
            typesys.size_of(sem.elem)
        n, error = sem.length, (f"expected {sem.length} elements for "
                                f"{typesys.type_to_str(sem)}")

        def write_array(ev, addr, v):
            if not isinstance(v, (list, tuple)) or len(v) != n:
                raise SolTypeError(error)
            writes = []
            for i, x in enumerate(v):
                writes += write(ev, addr + i * stride, x)
            return writes
        return write_array
    if not isinstance(sem, typesys.String):
        raise SolTypeError(f"cannot assign a whole {typesys.type_to_str(sem)}",
                           span)

    def write_string(ev, addr, v):
        """The length word, then the bytes after it (memory) or in chunk
        slots, each recorded as a hashed region as it is written (storage)."""
        if not isinstance(v, str):
            raise SolTypeError("expected a string value")
        raw = v.encode("utf-8")
        store = space(ev)
        head = len(raw).to_bytes(SLOT, "big")
        store.write(addr, head)
        writes = [Write(loc, addr, head)]
        if loc == MEMORY:
            store.write(addr + SLOT, raw)
            if raw:
                writes.append(Write(loc, addr + SLOT, raw))
            return writes
        p = addr // SLOT
        h = ev.world.derived_slot(slot_of_dyn, p, 0)
        for j in range(0, len(raw), SLOT):
            chunk, at = raw[j:j + SLOT].ljust(SLOT, b"\x00"), h + j // SLOT
            store.write(at * SLOT, chunk)
            writes.append(Write(loc, at * SLOT, chunk))
            store.record_hashed(at, "string", p, j // SLOT)
        return writes
    return write_string


def _access(base: Located, table=_ACCESS_RULES) -> tuple:
    """(sem, labels) of an access through a base of type `base`: Size7 for a
    ref base, then the node's typing and evaluation rules."""
    sem, is_ref = typesys._strip_ref(base.sem)
    return sem, ("Size7",) * is_ref + table[type(sem)][is_ref]


def _check_store(value: Optional[Located], target: typesys.SemType, e):
    """A bool, a number (an integer, address or contract) or a string is
    stored only as the same kind; `value` None (no static type) passes."""
    kind = [k for k in _KINDS if isinstance(target, k)]
    if kind and value and not isinstance(value.sem, kind[0]):
        raise SolTypeError(f"{typesys.type_to_str(value.sem)} is not "
                           f"implicitly convertible to "
                           f"{typesys.type_to_str(target)}", e.span)


def _local(s: ast.VarDecl, structs: dict, registry) -> Located:
    """What a local declaration binds: a storage pointer (a ref to its
    referent) or a memory value."""
    t = typesys.resolve_type(s.type_name, structs, registry)
    if isinstance(t, typesys.Mapping) and s.location == "memory":
        raise SolTypeError("mappings live in storage only", s.span)
    if typesys.is_reference_kind(t) and s.location != "memory":
        return Located(typesys.Ref(t), STORAGE)
    return Located(t, MEMORY)


def _declarations(stmts: list):
    """Every VarDecl of a body, nested blocks included, in source order."""
    for s in stmts:
        if isinstance(s, ast.VarDecl):
            yield s
        for _, child in ast.children(s):
            if isinstance(child, list):
                yield from _declarations(child)


class _Compiler:
    """Compiles the nodes of one scope (a function's, or one modifier
    application's, with `inner` the code its `_;` runs), or one expression
    (`compile_expression`), against `registry`, the contracts it may name.
    `locals` maps a local's name to (its index in the frame, its Located);
    `layout`, by default the contract's, maps a state variable's name to its
    LValue, the same in every instance; `constants` maps a name to the
    integer it stands for, in an expression with no locals. A node compiles
    to (run, located); a statement to run, which returns True when it
    executed a `return`. An ill-typed node raises its error."""

    def __init__(self, registry: dict, trace, info, locals_: dict, fn=None,
                 layout=None, inner=None, constants=None):
        self.registry, self.info, self.locals, self.fn, self.inner = \
            registry, info, locals_, fn, inner
        self.layout = info.layout if layout is None else layout
        self.constants = constants or {}
        self.rules, self.emit = trace.rules, trace.emit

    def typed(self, e: ast.Expr):
        """run returns the value, of type located.sem."""
        return _TYPED.get(type(e), _Compiler._untyped)(self, e)

    def lvalue(self, e: ast.Expr):
        """run returns the node's address."""
        return _LVALUES.get(type(e), _Compiler._unaddressable)(self, e)

    def value(self, e: ast.Expr):
        """(run, located) of `e` where nothing operates on its value: an
        array literal, or an external call no static type names, can stand
        there, with located None."""
        return _RVALUES.get(type(e), _Compiler.typed)(self, e)

    def rvalue(self, e: ast.Expr):
        return self.value(e)[0]

    def condition(self, e: ast.Expr, error: str, span):
        """run of a branch, loop or `&&`/`||` operand: it must type as bool,
        or it raises a SolTypeError with `error`."""
        run, located = self.typed(e)
        if not isinstance(located.sem, typesys.Bool):
            raise SolTypeError(error, span)
        return run

    # -- expressions ------------------------------------------------------------

    def _untyped(self, e):
        raise SolTypeError(f"{_UNTYPED[type(e)]} has no type here", e.span)

    def _unaddressable(self, e):
        raise SolTypeError("expression is not addressable",
                           getattr(e, "span", None))

    def _array(self, e: ast.ArrayLit):
        elements = [self.rvalue(x) for x in e.elements]
        return (lambda ev: [x(ev) for x in elements]), None

    def _state_var(self, e: ast.Expr):  # its LValue, if e names one
        if isinstance(e, ast.Ident) and e.name not in self.locals:
            return self.layout.get(e.name)

    def _ident(self, e: ast.Ident):
        """Type3 and E-ID1, or E-ID2 for a local (in its frame slot)."""
        name, span, rules = e.name, e.span, self.rules
        if name in self.locals:
            i, located = self.locals[name]

            def run(ev):
                addr = ev.locals[i]
                if addr is None:
                    raise UnknownIdentifier(f"unknown identifier {name}", span)
                rules(("Type3", "E-ID2"))
                return addr
            return run, located
        if name not in self.layout:
            if name in self.constants:  # a value, not a place
                self._unaddressable(e)
            raise UnknownIdentifier(f"unknown identifier {name}", span)
        addr, located = self.layout[name]

        def state_var(ev):
            rules(("Type3", "E-ID1"))
            return addr
        return state_var, located

    def _read(self, e):
        """An identifier, index or member as a value: a ref's pointer after
        Size7, or E-RV and the value at its address. A state variable's
        address is fixed, so its labels and read join in one closure. A named
        constant no state variable shadows is its literal."""
        if isinstance(e, ast.Ident) and e.name in self.constants \
                and e.name not in self.layout:
            return self._literal(self.constants[e.name])
        run, located = self.lvalue(e)
        labels = ("Size7",) if isinstance(located.sem, typesys.Ref) \
            else ("E-RV",)
        read, rules = _reader(located), self.rules
        static = self._state_var(e)
        if static is not None:
            labels, addr = ("Type3", "E-ID1") + labels, static.addr

            def state_var(ev):
                rules(labels)
                return read(ev, addr)
            return state_var, located

        def value(ev):
            addr = run(ev)
            rules(labels)
            return read(ev, addr)
        return value, located

    def _index(self, e: ast.Index):
        run_i, index_t = self.typed(e.index)
        run_b, base_t = self.lvalue(e.base)
        located = typesys.index_type(e, base_t, index_t.sem)
        sem, labels = _access(base_t)
        rules = self.rules
        if isinstance(sem, typesys.Mapping):
            encode, value_t = typesys.key_encoder(sem.key), sem.value
            static = self._state_var(e.base)  # its base slot p is fixed
            if static is not None:
                labels, base = ("Type3", "E-ID1") + labels, static.addr // SLOT

            def run(ev):  # World.derived_slot and record_hashed, inlined
                i = run_i(ev)
                p = base if static is not None else run_b(ev) // SLOT
                rules(labels)
                world = ev.world
                key = (p, encode(i), world.options.evm_hash_order)
                slot = world.derived_slots.get(key)
                if slot is None:
                    slot = world.derived_slots[key] = slot_of_map(*key)
                storage = ev.storage
                if slot not in storage.hashed:
                    storage.record_hashed(slot, "mapping", p, i, value_t)
                return slot * SLOT
            return run, located
        ispan, span, elem = getattr(e.index, "span", None), e.span, sem.elem
        if isinstance(sem, typesys.StaticArray):
            n, what = sem.length, typesys.type_to_str(sem)
            stride, sized = typesys.sized(elem)
        else:
            n, stride = None, _slot_stride(elem)
            read_length = _reader(Located(UINT256, base_t.loc))

        def run(ev):
            i = run_i(ev)
            addr = run_b(ev)
            rules(labels)
            if i < 0:
                raise IndexOutOfBounds(f"negative index {i}", ispan)
            if n is not None:
                if i >= n:
                    raise IndexOutOfBounds(
                        f"index {i} out of bounds for {what}", span)
                rules(sized)
                return addr + i * stride
            length = read_length(ev, addr)
            if i > length - 1:
                raise IndexOutOfBounds(
                    f"index {i} out of bounds for dynamic array of length "
                    f"{length}", span)
            p = addr // SLOT
            slot = ev.world.derived_slot(slot_of_dyn, p, 0) + i * stride
            ev.storage.record_hashed(slot, "dynarray", p, i, elem)
            return slot * SLOT
        return run, located

    def _member(self, e: ast.Member):
        run, base_t = self.lvalue(e.base)
        located = typesys.member_type(e, base_t)
        sem, labels = _access(base_t)
        k = typesys.field_index(sem, e.name)
        labels += typesys.packed(0, sem.field_types()[:k])[1]
        offset, rules = typesys.field_offset(sem, k), self.rules

        def member(ev):
            addr = run(ev)
            rules(labels)
            return addr + offset
        return member, located

    def _length(self, base: ast.Expr, what: str, span):
        """(run, DynArray, location) of the array under a `.length` or
        `push` (E-ARRAY-LEN): run returns (its address, its length)."""
        run, base_t = self.lvalue(base)
        sem = typesys.dyn_array(base_t, what, span)
        labels, rules = _access(base_t, _LENGTH_RULES)[1], self.rules
        read = _reader(Located(UINT256, base_t.loc))

        def length(ev):
            addr = run(ev)
            rules(labels)
            return addr, read(ev, addr)
        return length, sem, base_t.loc

    def _array_length(self, e: ast.ArrayLength):
        run = self._length(e.base, ".length", e.span)[0]
        return (lambda ev: run(ev)[1]), _U256

    def _constant(self, e):
        value = e.value
        return (lambda ev: value), _LITERALS[type(e)]

    def _literal(self, value: int):
        """An integer literal of `value`, typed by it."""
        return (lambda ev: value), Located(typesys.Literal(value), MEMORY)

    def _msg(self, e):
        field = "sender" if isinstance(e, ast.MsgSender) else "value"

        def run(ev):
            if ev.world.msg is None:
                raise SolsemError("no transaction context (msg) is active")
            return getattr(ev.world.msg, field)
        return run, _ADDRESS if field == "sender" else _U256

    def _unary(self, e: ast.Unary):
        run, it = self.typed(e.operand)
        t = typesys.unary_type(e, it.sem)
        if e.op == "!":
            return (lambda ev: not run(ev)), _BOOL
        if isinstance(it.sem, typesys.Literal) and it.sem.value >= 0:
            return self._literal(-it.sem.value)  # a signed literal
        sub = _operator("-", t)
        return (lambda ev: sub(0, run(ev))), Located(t, MEMORY)

    def _binary(self, e: ast.Binary):
        op = e.op
        if op in ("&&", "||"):  # short-circuit: the rhs only if needed
            lhs = self.condition(e.lhs, f"{op} requires bool operands", e.span)
            rhs = self.condition(e.rhs, f"{op} requires bool operands", e.span)
            if op == "&&":
                return (lambda ev: lhs(ev) and rhs(ev)), _BOOL
            return (lambda ev: lhs(ev) or rhs(ev)), _BOOL
        lhs, lt = self.typed(e.lhs)
        rhs, rt = self.typed(e.rhs)
        t = typesys.binary_type(e, lt.sem, rt.sem)
        f = _operator(op, t)
        return (lambda ev: f(lhs(ev), rhs(ev))), Located(t, MEMORY)

    def _call(self, e: ast.Call, expression: bool = True):
        """A cast, or an internal call (a function wins over a cast); as a
        statement (not `expression`), a cast is evaluated for no effect."""
        cast = typesys.ELEMENTARY.get(e.name) or (
            typesys.Contract(e.name) if e.name in self.registry else None)
        if e.name in self.info.functions or not isinstance(cast, _CASTABLE):
            return self._internal(e, expression)
        if len(e.args) != 1:
            raise SolTypeError(f"cast to {e.name} takes one argument", e.span)
        arg, t = self.value(e.args[0])
        if t is None or not isinstance(t.sem, _CASTABLE):
            what = typesys.type_to_str(t.sem) if t else "a value of no type"
            raise SolTypeError(f"cannot cast {what} to "
                               f"{typesys.type_to_str(cast)}", e.span)
        return (lambda ev: _convert(arg(ev), cast)), Located(cast, MEMORY)

    def _internal(self, e: ast.Call, expression: bool = True):
        """An internal call; as an expression, Type5 and Size6 follow it."""
        fn = self.info.functions.get(e.name)
        if fn is None:
            raise UnknownIdentifier(f"unknown function {e.name}", e.span)
        if expression and fn.ret is None:
            raise SolTypeError(f"function {e.name} has no return value", e.span)
        if len(e.args) != len(fn.params):
            raise SolTypeError(f"{e.name} expects {len(fn.params)} arguments, "
                               f"got {len(e.args)}", e.span)
        args, rules = [self.value(a) for a in e.args], self.rules
        for a, (run, located), (_, t) in zip(e.args, args, fn.params):
            _check_store(located, t, a)
        args = [run for run, _ in args]

        def run(ev):
            value = ev.executor.call_internal(
                ev.address, fn, tuple([a(ev) for a in args]), expression,
                config=ev.config)
            if expression:
                rules(("Type5", "Size6"))
            return value
        return run, Located(fn.ret[1], MEMORY) if expression else None

    def _amount(self, x: Optional[ast.Expr], what: str):
        """run of a call's `.value(...)` or `.gas(...)`: an unsigned integer."""
        if x is None:
            return None
        run, t = self.typed(x)
        if not isinstance(t.sem, typesys.UInt):
            raise SolTypeError(f"call {what} must be an unsigned integer, not "
                               f"{typesys.type_to_str(t.sem)}", x.span)
        return run

    def _returns(self, e: ast.ExternalCall, target: Located, operand: bool):
        """The static type of a named call's value: what the declared
        contract's function returns, for a contract-typed target, else what
        every registered function of that name returns. With none, the call
        is None: it stands as a value, not as an operand."""
        registry = self.registry
        sem = typesys._strip_ref(target.sem)[0]
        if isinstance(sem, typesys.Contract):
            fns = [registry[sem.name].functions.get(e.name)] \
                if sem.name in registry else []
            error = f"function {e.name} of {sem.name} has no return value"
        else:
            fns = [info.functions.get(e.name) for info in registry.values()]
            error = "cannot statically type an external call on a plain address"
        rets = {f.ret and f.ret[1] for f in fns if f is not None}
        if len(rets) == 1 and None not in rets:
            return Located(rets.pop(), MEMORY)
        if operand:
            raise SolTypeError(error, e.span)
        return None

    def _external(self, e, expression: bool = True, operand: bool = False):
        """E-FUN1 `c.f.value(m).gas(n)(args)` or E-FUN2 `c.call.value(m)()`:
        target, arguments, value and gas in that order, then the call. An
        operand (`operand`) must have a static type; a value need not."""
        named = isinstance(e, ast.ExternalCall)
        target, target_t = self.typed(e.target)
        args = [self.rvalue(a) for a in e.args] if named else []
        value, gas = self._amount(e.value, "value"), self._amount(e.gas, "gas")
        located = self._returns(e, target_t, operand) if named else _BOOL
        name, span = e.name if named else None, e.span
        expect = located and located.sem

        def run(ev):
            to = target(ev)
            values = tuple([a(ev) for a in args])
            m = value(ev) if value is not None else 0
            msg = ev.world.msg
            n = gas(ev) if gas is not None else msg.gas if msg else 0
            return ev.executor.external_call(ev, to, name, values, m, n, span,
                                             expression, expect)
        return run, located

    # -- statements ---------------------------------------------------------------

    def block(self, stmts: list):
        runs = [_STATEMENTS[type(s)](self, s) for s in stmts]
        rules = self.rules
        seq = ("SEQ",) * (len(stmts) > 1)

        def run(ev):
            if seq:
                rules(seq)
            world = ev.world
            options = world.options
            for s in runs:
                world.stmt_steps += 1
                if options.step_hook is not None \
                        or options.max_steps is not None:
                    _count_step(world)
                if s(ev):
                    return True
            return False
        return run

    def _assign(self, s: ast.Assign):
        if s.op is not None:
            return self._compound(s)
        rhs, value = self.value(s.rhs)  # rhs first
        lhs, located = self.lvalue(s.lhs)
        _check_store(value, located.sem, s.rhs)
        if isinstance(located.sem, typesys.String) and located.loc == MEMORY \
                and isinstance(s.lhs, ast.Ident):  # a local memory string
            bind = self.string_binder(self.locals[s.lhs.name][0], "ASSIGN")

            def rebind(ev):
                value = rhs(ev)
                lhs(ev)  # its labels; a local not yet declared aborts
                bind(ev, value)
            return rebind
        write, emit = _writer(located, s.lhs.span), self.emit

        def run(ev):
            value = rhs(ev)
            emit("ASSIGN", write(ev, lhs(ev), value))
        return run

    def _compound(self, s: ast.Assign):
        """`lhs op= rhs` in solc's order: the rhs, then the target's address,
        once, E-RV and the read there, the operator and one ASSIGN."""
        rhs, rt = self.typed(s.rhs)
        lhs, located = self.lvalue(s.lhs)
        f = _operator(s.op, typesys.binary_type(s, located.sem, rt.sem))
        read, write = _reader(located), _writer(located, s.lhs.span)
        rules, emit = self.rules, self.emit

        def run(ev):
            value = rhs(ev)
            addr = lhs(ev)
            rules(("E-RV",))
            emit("ASSIGN", write(ev, addr, f(read(ev, addr), value)))
        return run

    def _expr_stmt(self, s: ast.ExprStmt):
        run = _EFFECTS.get(type(s.expr), _Compiler.typed)(self, s.expr)[0]
        rules = self.rules

        def stmt(ev):
            run(ev)  # for effect
            if not ev.config.omega:
                rules(("SKIP1",))
        return stmt

    def _push(self, e: ast.Push):
        """Dynamic-array growth: store at the hashed slot for the current
        length, then bump the length in the base slot."""
        base, sem, loc = self._length(e.base, "push", e.span)
        arg, elem, emit = self.rvalue(e.arg), sem.elem, self.emit
        stride, write = _slot_stride(elem), _writer(Located(elem, loc), e.span)
        write_length = _writer(Located(UINT256, loc))

        def run(ev):
            addr, length = base(ev)
            value = arg(ev)
            p = addr // SLOT
            slot = ev.world.derived_slot(slot_of_dyn, p, 0) + length * stride
            ev.storage.record_hashed(slot, "dynarray", p, length, elem)
            emit("PUSH", write(ev, slot * SLOT, value)
                 + write_length(ev, addr, length + 1))
        return run, None

    def _if(self, s: ast.If):
        cond = self.condition(s.cond, "if condition must be boolean", s.span)
        then = self.block(s.then)
        otherwise = self.block(s.otherwise or [])
        rules, has_else = self.rules, s.otherwise is not None

        def run(ev):
            if cond(ev):
                rules(("COND1",))
                return then(ev)
            rules(("COND2",))
            return has_else and otherwise(ev)
        return run

    def _while(self, s: ast.While):
        cond = self.condition(s.cond, "while condition must be boolean",
                              s.span)
        body, rules, do = self.block(s.body), self.rules, s.do

        def run(ev):
            if do and body(ev):  # a `do` loop's first pass, before any test
                return True
            while cond(ev):
                rules(("WHILE2",))
                ev.world.stmt_steps += 1
                _count_step(ev.world)
                if body(ev):
                    return True
            rules(("WHILE1",))
            return False
        return run

    def _return(self, s: ast.Return):
        fn, emit = self.fn, self.emit
        if s.expr is None:
            def run(ev):
                emit("RETURN")
                return True
            return run
        if fn is None or fn.ret is None:
            raise SolTypeError("return value in a modifier" if fn is None else
                               "return value in a function with no declared "
                               "return", s.span)
        value, located = self.value(s.expr)
        _check_store(located, fn.ret[1], s.expr)
        i, ret = self.locals[fn.ret[0]]  # the return variable
        if isinstance(ret.sem, typesys.String):
            bind = self.string_binder(i, "RETURN")
            return lambda ev: bind(ev, value(ev)) or True
        write = _writer(ret)

        def run(ev):
            v = value(ev)
            emit("RETURN", write(ev, ev.locals[i], v))
            return True
        return run

    def _placeholder(self, s: ast.Placeholder):
        """`_;` runs the code it wraps, and goes on: a `return` in there
        leaves only that. A function body wraps nothing."""
        inner = self.inner
        if inner is None:
            raise SolTypeError(
                "placeholder `_;` is only valid inside a modifier body", s.span)
        return lambda ev: inner(ev) and False

    def _var_decl(self, s: ast.VarDecl):
        i, located = self.locals[s.name]
        name, sem, emit = s.name, located.sem, self.emit
        if isinstance(sem, typesys.Ref):  # a storage pointer
            init = self.lvalue(s.init)[0] if s.init else None
            note = (f"uninitialized storage pointer {name} references "
                    f"storage slot 0")

            def run(ev):
                if init is not None:
                    addr = init(ev)
                else:
                    addr = 0  # aliases storage slot 0
                    emit("WARN", note=note)
                ev.locals[i] = addr
                emit("VD2")
            return run
        if typesys.is_reference_kind(sem):  # a memory aggregate
            (size, sized), rules = typesys.sized(sem), self.rules
            init = write = None
            if s.init is not None:
                init, write = self.rvalue(s.init), _writer(located, s.span)

            def run(ev):
                rules(sized)
                memory = ev.memory
                ev.locals[i] = addr = memory.alloc(size)
                memory.write(addr, bytes(size))
                writes = [Write(MEMORY, addr, bytes(size))]
                if init is not None:
                    writes += write(ev, addr, init(ev))
                emit("VD2", writes)
            return run
        zero = zero_value(sem)
        init, value = self.value(s.init) if s.init else (lambda ev: zero, None)
        _check_store(value, sem, s.init)
        bind = self.binder(name, sem)
        return lambda ev: bind(ev, init(ev))

    def binder(self, name: str, sem, span=None):
        """bind(ev, v), VD2: put local `name` in its frame slot, at a fresh
        memory address holding v."""
        i, emit = self.locals[name][0], self.emit
        if typesys.is_primitive(sem):
            write = _writer(Located(sem, MEMORY))

            def bind(ev, v):
                ev.locals[i] = addr = ev.memory.alloc(SLOT)
                emit("VD2", write(ev, addr, v))
            return bind
        if not isinstance(sem, typesys.String):
            raise SolTypeError(f"cannot bind a value of type "
                               f"{typesys.type_to_str(sem)} in memory", span)
        return self.string_binder(i, "VD2")

    def string_binder(self, i: int, rule: str):
        """bind(ev, v), `rule`: point frame slot i at fresh memory holding
        string v, its length word then its bytes. A memory string is bound
        anew on each assignment, never written in place, so a longer value
        overruns nothing allocated after it."""
        emit = self.emit

        def bind(ev, v):
            raw = str(v).encode("utf-8")
            data = len(raw).to_bytes(SLOT, "big") + raw
            memory = ev.memory
            ev.locals[i] = addr = memory.alloc(len(data))
            memory.write(addr, data)
            emit(rule, [Write(MEMORY, addr, data)])
        return bind


_UNTYPED = {ast.ArrayLit: "an array literal", ast.Push: "a push"}
_LITERALS = {ast.BoolLit: _BOOL,
             ast.StringLit: Located(typesys.ELEMENTARY["string"], MEMORY)}
_C = _Compiler
_LVALUES = {ast.Ident: _C._ident, ast.Index: _C._index, ast.Member: _C._member}
_TYPED = {
    ast.Ident: _C._read, ast.Index: _C._read, ast.Member: _C._read,
    ast.IntLit: lambda c, e: c._literal(e.value), ast.BoolLit: _C._constant,
    ast.StringLit: _C._constant, ast.MsgSender: _C._msg,
    ast.MsgValue: _C._msg, ast.Unary: _C._unary, ast.Binary: _C._binary,
    ast.ArrayLength: _C._array_length, ast.Call: _C._call,
    ast.ExternalCall: lambda c, e: c._external(e, operand=True),
    ast.LowLevelCallValue: _C._external,
}
_RVALUES = {ast.ArrayLit: _C._array, ast.ExternalCall: _C._external}
_EFFECTS = {  # expression statements that are not evaluated as a value
    ast.ArrayLit: _C._array, ast.Push: _C._push,
    ast.Call: lambda c, e: c._call(e, expression=False),
    ast.ExternalCall: lambda c, e: c._external(e, expression=False),
}
_STATEMENTS = {
    ast.VarDecl: _C._var_decl, ast.Assign: _C._assign,
    ast.ExprStmt: _C._expr_stmt, ast.If: _C._if, ast.While: _C._while,
    ast.Return: _C._return, ast.Placeholder: _C._placeholder,
}


def _scope(body: list, info, registry, declared=(), start=0) -> dict:
    """name -> (frame index, Located) of one scope: the (name, node, Located)
    `declared`, then each VarDecl of `body`, indexed from `start`."""
    scope: dict = {}
    for name, node, located in [*declared, *((s.name, s, None)
                                              for s in _declarations(body))]:
        if name in scope:  # Solidity 0.4's "Identifier already declared"
            raise DuplicateDeclaration(f"{name} already declared in this "
                                       f"scope", node.span or node.type_name.span)
        scope[name] = (start + len(scope),
                       located or _local(node, info.structs, registry))
    return scope


def compile_function(registry: dict, trace, info, fn, f: ast.FunctionDef,
                     modifiers: dict) -> tuple:
    """(size, bind(ev, args), body(ev), result(ev) or None) of `f`, with
    signature `fn`, of contract `info`: `call_internal` makes a frame of
    `size` addresses, each local's index fixed here, then runs the rest in
    order. `body` runs the modifiers in the order listed, each around the
    next and the last around the function's block."""
    for m in f.modifiers:
        if m.name not in modifiers:
            raise UnknownIdentifier(f"unknown modifier {m.name}", m.span)
    ret = [fn.ret] if fn.ret is not None else []
    declared = [(name, p, Located(t, MEMORY)) for (name, t), p in
                zip(fn.params + ret, f.params + [f.returns])]
    locals_ = _scope(f.body, info, registry, declared)
    c = _Compiler(registry, trace, info, locals_, fn)
    binders = [c.binder(name, t, f.span) for name, t in fn.params + ret]
    zero = [zero_value(t) for _, t in ret]
    body, size = c.block(f.body), len(locals_)
    for m in reversed(f.modifiers):
        mod = modifiers[m.name].body
        scope = _scope(mod, info, registry, start=size)
        size += len(scope)
        body = _Compiler(registry, trace, info, scope, inner=body).block(mod)
    result = None
    if ret:
        read, ri = _reader(Located(fn.ret[1], MEMORY)), locals_[fn.ret[0]][0]
        result = lambda ev: read(ev, ev.locals[ri])  # noqa: E731

    def bind(ev, args):
        for b, v in zip(binders, [*args, *zero]):
            b(ev, v)
    return size, bind, body, result


def compile_contract(registry: dict, trace, c: ast.ContractDef) -> None:
    """Compile contract `c`, whose ContractInfo is `registry[c.name]`: each
    function's code goes on its FunctionInfo, the initializer on the
    ContractInfo. The initializer takes each state variable in declaration
    order: its initial value, compiled against the variables declared
    before it, then its Size labels, its write at its layout address, and
    VD1. Functions are compiled against every variable."""
    info = registry[c.name]
    steps, visible = [], {}
    for v in c.state_vars:
        addr, located = info.layout[v.name]
        init = write = None
        if v.init is not None:
            init, value = _Compiler(registry, trace, info, {},
                                    layout=visible).value(v.init)
            _check_store(value, located.sem, v.init)
            write = _writer(located, v.span)
        steps.append((init, typesys.sized(located.sem)[1], write, addr))
        visible[v.name] = info.layout[v.name]
    rules, emit = trace.rules, trace.emit

    def initialize(ev):
        for init, sized, write, addr in steps:
            value = None if init is None else init(ev)
            rules(sized)
            emit("VD1", writes=[] if value is None else write(ev, addr, value))
    info.init = initialize
    modifiers = {m.name: m for m in c.modifiers}
    for f in c.functions:
        fn = info.constructor if f.is_constructor else \
            info.fallback if f.is_fallback else info.functions[f.name]
        fn.code = compile_function(registry, trace, info, fn, f, modifiers)


class Evaluator:
    """The context of one running call, which the compiled closures read:
    its executor and world, the instance's address, config, storage and
    memory, and `locals`, the call's frame. `Executor.call_internal` makes
    one per call."""

    __slots__ = ("executor", "world", "address", "config", "storage",
                 "memory", "locals")

    def __init__(self, executor, address: int, config, frame: list):
        self.executor, self.world, self.address = \
            executor, executor.world, address
        self.config, self.storage, self.memory = \
            config, config.storage, config.memory
        self.locals = frame

    def type_of(self, e: ast.Expr) -> typesys.Located:
        """The static type of `e` against the instance's contract; an
        ill-typed `e` raises its error."""
        return compile_expression(self.world, self.address, e)[1]


def compile_expression(world, address: int, e: ast.Expr, constants=None):
    """(run, located) of `e` compiled against the contract of the instance
    at `address`, with no locals: run(ev) returns its value. A name in
    `constants` (name -> int) that no state variable shadows compiles as an
    integer literal of its value. The compiler records into a `Trace()` of
    its own, so running the code touches nothing of `world.trace`."""
    info = world.registry[world.instance(address).contract_name]
    return _Compiler(world.registry, Trace(), info, {},
                     constants=constants).typed(e)


def read_value(world, config, loc: str, addr: int, sem: typesys.SemType):
    """Decode the value of type `sem` stored at addr (composites nest)."""
    ev = SimpleNamespace(world=world, storage=config.storage,
                         memory=config.memory)  # what a reader reads off
    return _reader(Located(sem, loc))(ev, addr)
