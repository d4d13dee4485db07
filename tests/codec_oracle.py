"""The run-time value codec, kept as a test oracle.

These are the `read_value` and `Evaluator.write_value` the compiled codec
replaced: a walk over the value's type on every read and write, sizing
each element and field as it goes. test_evaluator.py checks the compiled
readers and writers against it, value for value and write for write.
"""

from solsem import typesys
from solsem.errors import SolTypeError
from solsem.evaluator import _slot_stride, slot_of_dyn
from solsem.trace import Write
from solsem.typesys import decode_value, encode_value


def _space(config, loc: str):
    return config.storage if loc == typesys.STORAGE else config.memory


def write_value(world, config, loc: str, addr: int, sem, v) -> list:
    """Encode and store `v` at addr; returns the Write records."""
    if isinstance(sem, typesys.String):
        return _write_string(world, config, loc, addr, v)
    if isinstance(sem, typesys.StaticArray):
        if not isinstance(v, (list, tuple)) or len(v) != sem.length:
            raise SolTypeError(
                f"expected {sem.length} elements for "
                f"{typesys.type_to_str(sem)}")
        writes = []
        stride = typesys.size_of(sem.elem)
        for i, x in enumerate(v):
            writes += write_value(world, config, loc, addr + i * stride,
                                  sem.elem, x)
        return writes
    if isinstance(sem, (typesys.DynArray, typesys.Mapping, typesys.Struct,
                        typesys.Ref)):
        raise SolTypeError(
            f"cannot assign a whole {typesys.type_to_str(sem)}")
    data = encode_value(v, sem)
    _space(config, loc).write(addr, data)
    return [Write(loc, addr, data)]


def _write_string(world, config, loc: str, addr: int, v) -> list:
    if not isinstance(v, str):
        raise SolTypeError("expected a string value")
    raw = v.encode("utf-8")
    writes = [Write(loc, addr, len(raw).to_bytes(typesys.SLOT, "big"))]
    _space(config, loc).write(addr, writes[0].data)
    if loc == typesys.MEMORY:
        _space(config, loc).write(addr + typesys.SLOT, raw)
        if raw:
            writes.append(Write(loc, addr + typesys.SLOT, raw))
        return writes
    p = addr // typesys.SLOT
    h = world.derived_slot(slot_of_dyn, p, 0)
    for j in range(0, len(raw), typesys.SLOT):
        chunk = raw[j:j + typesys.SLOT].ljust(typesys.SLOT, b"\x00")
        at = (h + j // typesys.SLOT) * typesys.SLOT
        _space(config, loc).write(at, chunk)
        writes.append(Write(loc, at, chunk))
        config.storage.record_hashed(h + j // typesys.SLOT, "string",
                                     p, j // typesys.SLOT)
    return writes


def read_value(world, config, loc: str, addr: int, sem):
    """Decode the value of type `sem` stored at addr (composites nest)."""
    if typesys.is_primitive(sem):
        return decode_value(
            _space(config, loc).read(addr, typesys.size_of(sem)), sem)
    if isinstance(sem, typesys.StaticArray):
        stride = typesys.size_of(sem.elem)
        return [read_value(world, config, loc, addr + i * stride, sem.elem)
                for i in range(sem.length)]
    if isinstance(sem, typesys.Struct):
        return {name: read_value(world, config, loc,
                                 addr + typesys.field_offset(sem, k), t)
                for k, (name, t) in enumerate(sem.fields)}
    if isinstance(sem, typesys.DynArray):
        length = decode_value(_space(config, loc).read(addr, typesys.SLOT),
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
        length = decode_value(_space(config, loc).read(addr, typesys.SLOT),
                              typesys.UINT256)
        if loc == typesys.MEMORY:
            raw = _space(config, loc).read(addr + typesys.SLOT, length)
        else:
            h = world.derived_slot(slot_of_dyn, addr // typesys.SLOT, 0)
            raw = b"".join(
                _space(config, loc).read((h + j) * typesys.SLOT, typesys.SLOT)
                for j in range((length + typesys.SLOT - 1) // typesys.SLOT)
            )[:length]
        return raw.decode("utf-8", errors="replace")
    if isinstance(sem, typesys.Ref):
        raise SolTypeError("a ref has no stored value; read through it instead")
    raise SolTypeError(
        f"cannot decode a value of type {typesys.type_to_str(sem)}")
