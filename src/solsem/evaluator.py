"""Expression evaluation: L-values (addresses) and R-values (decoded values).

Identifiers resolve through the scope stack with memory shadowing storage;
the byte store an access touches is selected by the expression's location
class, not by which name space resolved it. Local reference variables bind
directly to the address they alias, so the pointer value of a ref-typed
expression is its binding.

Evaluation types each node once: `eval_typed` returns a node's value with
its type, built by the node's typing step in `typesys` from the types its
children's evaluation returned, and the node's typing rule is emitted just
before its evaluation rule. No separate typing pass runs beside it.

Dynamic-array and mapping addresses are hash-derived at slot granularity:
element i of an array based at slot p lives at slot keccak256(bytes32(p))+i,
and key k of a mapping based at slot p lives at slot
keccak256(bytes32(p) || bytes32(k)). The concatenation order puts the base
slot first by default; `evm_hash_order` flips it for differential runs
against real-chain layouts.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from . import ast, typesys
from .errors import DivisionByZero, IndexOutOfBounds, SolTypeError, SolsemError
from .keccak import keccak256_int
from .state import (
    FunctionInfo, decode_value, encode_key32, encode_value,
)
from .trace import Write

_CAST_TARGETS = {
    "uint": typesys.UInt(256), "uint8": typesys.UInt(8),
    "uint16": typesys.UInt(16), "uint32": typesys.UInt(32),
    "uint64": typesys.UInt(64), "uint128": typesys.UInt(128),
    "uint256": typesys.UInt(256), "int": typesys.Int256(),
    "int256": typesys.Int256(), "address": typesys.Address(),
}

# the (typing, evaluation) rules of an access by its base's kind: through a
# plain base, then through a ref
_ACCESS_RULES = {
    typesys.StaticArray: (("Type1", "E-ARRAY"), ("Type7", "E-ARRAY-REF")),
    typesys.DynArray: (("Type1", "E-D-ARRAY"), ("Type7", "E-D-ARRAY-ref")),
    typesys.Mapping: (("Type4", "E-MAPPING"), ("Type6", "E-MAPPING-REF")),
    typesys.Struct: (("Type2", "E-STRUCT"), ("Type8", "E-STRUCT-ref")),
}
_LENGTH_RULES = {typesys.DynArray: (("E-ARRAY-LEN",), ("E-ARRAY-LEN-ref",))}


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
    return max(1, typesys.size_of(elem) // typesys.SLOT)


def apply_binop(op: str, lhs, rhs, t: typesys.SemType):
    """Arithmetic and comparison at type t; unsigned ops wrap modulo 2^w."""
    if op in ("==", "!="):
        eq = lhs == rhs
        return eq if op == "==" else not eq
    if op in ("<", "<=", ">", ">="):
        return {"<": lhs < rhs, "<=": lhs <= rhs,
                ">": lhs > rhs, ">=": lhs >= rhs}[op]
    if isinstance(t, typesys.UInt):
        mod = 1 << t.width
        if op == "+":
            return (lhs + rhs) % mod
        if op == "-":
            return (lhs - rhs) % mod
        if op == "*":
            return (lhs * rhs) % mod
        if op in ("/", "%"):
            if rhs == 0:
                raise DivisionByZero(f"{op} by zero")
            return (lhs // rhs) % mod if op == "/" else (lhs % rhs)
    if isinstance(t, typesys.Int256):
        if op in ("/", "%") and rhs == 0:
            raise DivisionByZero(f"{op} by zero")
        if op == "+":
            raw = lhs + rhs
        elif op == "-":
            raw = lhs - rhs
        elif op == "*":
            raw = lhs * rhs
        elif op == "/":
            raw = abs(lhs) // abs(rhs) * (1 if (lhs < 0) == (rhs < 0) else -1)
        else:
            raw = lhs - (abs(lhs) // abs(rhs) * (1 if (lhs < 0) == (rhs < 0)
                                                 else -1)) * rhs
        return (raw + (1 << 255)) % (1 << 256) - (1 << 255)
    raise SolTypeError(f"operator {op} not defined at {typesys.type_to_str(t)}")


class LValue(NamedTuple):
    addr: int
    located: typesys.Located


class Evaluator:
    """Evaluation within one contract instance and, when `fn` is given, one
    running function; calls delegate to the executor. It is also the
    environment the static `typesys.type_of` types expressions against."""

    def __init__(self, executor, address: int,
                 fn: Optional[FunctionInfo] = None):
        world = executor.world
        instance = world.instance(address)
        self.executor = executor
        self.world = world
        self.address = address
        self.fn = fn
        self.config = instance.config
        self.info = world.contract_info(instance.contract_name)
        self.trace = world.trace

    # -- typing environment ----------------------------------------------------

    def function_return(self, name: str) -> Optional[typesys.SemType]:
        fn = self.info.functions.get(name)
        if fn is None or fn.ret is None:
            return None
        return fn.ret[1]

    def cast_target(self, name: str) -> Optional[typesys.SemType]:
        if name in self.info.functions:
            return None  # a local function wins over a cast
        if name in _CAST_TARGETS:
            return _CAST_TARGETS[name]
        if name in self.world.registry:
            return typesys.Contract(name)
        return None

    def external_return(self, contract_name: str, fn: str):
        info = self.world.registry.get(contract_name)
        if info is None:
            return None
        f = info.functions.get(fn)
        return f.ret[1] if f is not None and f.ret is not None else None

    def type_of(self, e: ast.Expr) -> typesys.Located:
        return typesys.type_of(self, e)

    # -- L-values ---------------------------------------------------------------

    def eval_lvalue(self, e: ast.Expr) -> LValue:
        if isinstance(e, ast.Ident):
            b = self.config.lookup(e.name, e.span)
            self.trace.rule("Type3")
            self.trace.rule("E-ID2" if b.space == typesys.MEMORY else "E-ID1")
            return LValue(b.addr, b.located)
        if isinstance(e, ast.Index):
            return self._index_lvalue(e)
        if isinstance(e, ast.Member):
            return self._member_lvalue(e)
        raise SolTypeError(f"expression is not addressable", getattr(e, "span", None))

    def _access(self, base: typesys.Located, rules=_ACCESS_RULES):
        """Emit the rules of an access whose base is evaluated and whose node
        is typed: Size7 for a ref base (its R-value is the address it
        aliases), then the node's typing and evaluation rules. Returns the
        base's type under the ref."""
        sem, is_ref = typesys._strip_ref(base.sem)
        if is_ref:
            typesys.size_of(base.sem, self.trace)
        for rule in rules[type(sem)][is_ref]:
            self.trace.rule(rule)
        return sem

    def _index_lvalue(self, e: ast.Index) -> LValue:
        i, index_t = self.eval_typed(e.index)
        addr_b, base_t = self.eval_lvalue(e.base)
        located = typesys.index_type(e, base_t, index_t)
        sem = self._access(base_t)
        if isinstance(sem, typesys.Mapping):
            p = addr_b // typesys.SLOT
            slot = self.world.derived_slot(slot_of_map, p,
                                           encode_key32(i, sem.key),
                                           self.world.options.evm_hash_order)
            self.config.storage.record_hashed(slot, "mapping", p, i, sem.value)
            return LValue(slot * typesys.SLOT, located)
        if i < 0:
            raise IndexOutOfBounds(f"negative index {i}",
                                   getattr(e.index, "span", None))
        if isinstance(sem, typesys.StaticArray):
            if i >= sem.length:
                raise IndexOutOfBounds(
                    f"index {i} out of bounds for {typesys.type_to_str(sem)}",
                    e.span)
            return LValue(addr_b + i * typesys.size_of(sem.elem, self.trace),
                          located)
        length = self.read_value(base_t.loc, addr_b, typesys.UINT256)
        if i > length - 1:
            raise IndexOutOfBounds(
                f"index {i} out of bounds for dynamic array of length "
                f"{length}", e.span)
        p = addr_b // typesys.SLOT
        slot = self.world.derived_slot(slot_of_dyn, p, 0) \
            + i * _slot_stride(sem.elem)
        self.config.storage.record_hashed(slot, "dynarray", p, i, sem.elem)
        return LValue(slot * typesys.SLOT, located)

    def _member_lvalue(self, e: ast.Member) -> LValue:
        addr_b, base_t = self.eval_lvalue(e.base)
        located = typesys.member_type(e, base_t)
        sem = self._access(base_t)
        offset = typesys.field_offset(sem, typesys.field_index(sem, e.name),
                                      self.trace)
        return LValue(addr_b + offset, located)

    def length_access(self, base: ast.Expr, what: str, span) -> tuple:
        """Evaluate the dynamic array under a `.length` or `push`
        (E-ARRAY-LEN): its base address, location class, type and length."""
        addr_b, base_t = self.eval_lvalue(base)
        sem = typesys.dyn_array(base_t.sem, what, span)
        self._access(base_t, _LENGTH_RULES)
        length = self.read_value(base_t.loc, addr_b, typesys.UINT256)
        return addr_b, base_t.loc, sem, length

    # -- R-values ---------------------------------------------------------------

    def eval_rvalue(self, e: ast.Expr):
        """The value of `e` where nothing operates on it, so an array
        literal, which has no type of its own, can stand there."""
        if isinstance(e, ast.ArrayLit):
            return [self.eval_rvalue(x) for x in e.elements]
        return self.eval_typed(e)[0]

    def eval_typed(self, e: ast.Expr) -> tuple:
        """(value, SemType) of `e`. The node is typed as it is evaluated:
        its typing step (`typesys.index_type`, `binary_type`, ...) takes
        the types its children's evaluation returned, so no subtree is
        typed twice."""
        if isinstance(e, (ast.Ident, ast.Index, ast.Member)):
            lv = self.eval_lvalue(e)
            sem = lv.located.sem
            if isinstance(sem, typesys.Ref):
                # the pointer value of a ref binding is the address it aliases
                typesys.size_of(sem, self.trace)
                return lv.addr, sem
            self.trace.rule("E-RV")
            return self.read_value(lv.located.loc, lv.addr, sem), sem
        if isinstance(e, ast.IntLit):
            return e.value, typesys.UINT256
        if isinstance(e, ast.BoolLit):
            return e.value, typesys.Bool()
        if isinstance(e, ast.StringLit):
            return e.value, typesys.String()
        if isinstance(e, ast.MsgSender):
            return self._msg().sender, typesys.Address()
        if isinstance(e, ast.MsgValue):
            return self._msg().value, typesys.UINT256
        if isinstance(e, ast.Binary):
            return self._binary(e)
        if isinstance(e, ast.Unary):
            return self._unary(e)
        if isinstance(e, ast.ArrayLength):
            return self.length_access(e.base, ".length", e.span)[3], \
                typesys.UINT256
        if isinstance(e, ast.Call):
            return self._call(e)
        if isinstance(e, (ast.ExternalCall, ast.LowLevelCallValue)):
            # typed by the function it reaches; a low-level call by success
            return self.executor.external_call(self, e, expression=True)
        raise SolTypeError(f"expression has no type: {e!r}",
                           getattr(e, "span", None))

    def _msg(self):
        if self.world.msg is None:
            raise SolsemError("no transaction context (msg) is active")
        return self.world.msg

    def _unary(self, e: ast.Unary):
        v, it = self.eval_typed(e.operand)
        t = typesys.unary_type(e, it)
        if e.op == "!":
            return not v, t
        if isinstance(e.operand, ast.IntLit):
            return -v, t  # a signed literal, not modular negation
        if isinstance(t, typesys.UInt):
            return (-v) % (1 << t.width), t
        return apply_binop("-", 0, v, t), t

    def _binary(self, e: ast.Binary):
        if e.op in ("&&", "||"):
            # short-circuit: the rhs is evaluated, and typed, only if needed
            for operand in (e.lhs, e.rhs):
                v = self.eval_condition(operand, f"{e.op} requires bool operands",
                                        e.span)
                if v == (e.op == "||"):
                    break
            return v, typesys.Bool()
        lhs, lt = self.eval_typed(e.lhs)
        rhs, rt = self.eval_typed(e.rhs)
        t = typesys.binary_type(e, lt, rt)
        return apply_binop(e.op, lhs, rhs, t), t

    def eval_condition(self, e: ast.Expr, error: str, span=None) -> bool:
        """A branch, loop, modifier or `&&`/`||` operand: it must type as
        bool, or it raises a SolTypeError with `error`."""
        v, t = self.eval_typed(e)
        if not isinstance(t, typesys.Bool):
            raise SolTypeError(error, span)
        return bool(v)

    def _call(self, e: ast.Call):
        cast = self.cast_target(e.name)
        if cast is not None:
            if len(e.args) != 1:
                raise SolTypeError(f"cast to {e.name} takes one argument", e.span)
            v = self.eval_rvalue(e.args[0])
            return self._convert(v, cast, e.span), cast
        # the executor rejects a function with no return value before it runs
        value = self.executor.eval_internal_call(self, e, expression=True)
        self.trace.rule("Type5")
        self.trace.rule("Size6")
        return value, self.function_return(e.name)

    def _convert(self, v, t: typesys.SemType, span):
        if isinstance(t, typesys.UInt):
            return int(v) % (1 << t.width)
        if isinstance(t, (typesys.Address, typesys.Contract)):
            return int(v) % (1 << 160)
        if isinstance(t, typesys.Int256):
            return (int(v) + (1 << 255)) % (1 << 256) - (1 << 255)
        raise SolTypeError(f"unsupported cast to {typesys.type_to_str(t)}", span)

    # -- typed reads and writes ---------------------------------------------------

    def read_value(self, loc: str, addr: int, sem: typesys.SemType):
        return read_value(self.world, self.config, loc, addr, sem)

    def write_value(self, loc: str, addr: int, sem: typesys.SemType, v) -> list:
        """Encode and store `v` at addr; returns the Write records."""
        if isinstance(sem, typesys.String):
            return self._write_string(loc, addr, v)
        if isinstance(sem, typesys.StaticArray):
            if not isinstance(v, (list, tuple)) or len(v) != sem.length:
                raise SolTypeError(
                    f"expected {sem.length} elements for "
                    f"{typesys.type_to_str(sem)}")
            writes = []
            stride = typesys.size_of(sem.elem)
            for i, x in enumerate(v):
                writes += self.write_value(loc, addr + i * stride, sem.elem, x)
            return writes
        if isinstance(sem, (typesys.DynArray, typesys.Mapping, typesys.Struct,
                            typesys.Ref)):
            raise SolTypeError(
                f"cannot assign a whole {typesys.type_to_str(sem)}")
        data = encode_value(v, sem)
        self.config.write_bytes(loc, addr, data)
        return [Write(loc, addr, data)]

    def _write_string(self, loc: str, addr: int, v) -> list:
        if not isinstance(v, str):
            raise SolTypeError("expected a string value")
        raw = v.encode("utf-8")
        writes = [Write(loc, addr, len(raw).to_bytes(typesys.SLOT, "big"))]
        self.config.write_bytes(loc, addr, writes[0].data)
        if loc == typesys.MEMORY:
            self.config.write_bytes(loc, addr + typesys.SLOT, raw)
            if raw:
                writes.append(Write(loc, addr + typesys.SLOT, raw))
            return writes
        p = addr // typesys.SLOT
        h = self.world.derived_slot(slot_of_dyn, p, 0)
        for j in range(0, len(raw), typesys.SLOT):
            chunk = raw[j:j + typesys.SLOT].ljust(typesys.SLOT, b"\x00")
            at = (h + j // typesys.SLOT) * typesys.SLOT
            self.config.write_bytes(loc, at, chunk)
            writes.append(Write(loc, at, chunk))
            self.config.storage.record_hashed(h + j // typesys.SLOT, "string",
                                              p, j // typesys.SLOT)
        return writes


def read_value(world, config, loc: str, addr: int, sem: typesys.SemType):
    """Decode the value of type `sem` stored at addr (composites nest)."""
    if typesys.is_primitive(sem):
        return decode_value(config.read_bytes(loc, addr, typesys.size_of(sem)),
                            sem)
    if isinstance(sem, typesys.StaticArray):
        stride = typesys.size_of(sem.elem)
        return [read_value(world, config, loc, addr + i * stride, sem.elem)
                for i in range(sem.length)]
    if isinstance(sem, typesys.Struct):
        return {name: read_value(world, config, loc,
                                 addr + typesys.field_offset(sem, k), t)
                for k, (name, t) in enumerate(sem.fields)}
    if isinstance(sem, typesys.DynArray):
        length = decode_value(config.read_bytes(loc, addr, typesys.SLOT),
                              typesys.UINT256)
        p = addr // typesys.SLOT
        stride = _slot_stride(sem.elem)
        return [read_value(world, config, loc,
                           (world.derived_slot(slot_of_dyn, p, 0) + i * stride)
                           * typesys.SLOT, sem.elem)
                for i in range(length)]
    if isinstance(sem, typesys.Mapping):
        return None  # not enumerable
    if isinstance(sem, typesys.String):
        length = decode_value(config.read_bytes(loc, addr, typesys.SLOT),
                              typesys.UINT256)
        if loc == typesys.MEMORY:
            raw = config.read_bytes(loc, addr + typesys.SLOT, length)
        else:
            h = world.derived_slot(slot_of_dyn, addr // typesys.SLOT, 0)
            raw = b"".join(
                config.read_bytes(loc, (h + j) * typesys.SLOT, typesys.SLOT)
                for j in range((length + typesys.SLOT - 1) // typesys.SLOT)
            )[:length]
        return raw.decode("utf-8", errors="replace")
    if isinstance(sem, typesys.Ref):
        raise SolTypeError("a ref has no stored value; read through it instead")
    raise SolTypeError(
        f"cannot decode a value of type {typesys.type_to_str(sem)}")
