"""The recursive static typing walk, kept as a test oracle.

This is the `typesys.type_of` the compiler replaced: it types an
expression's children, then applies the node's typing step in `typesys`
(`index_type`, `member_type`, `dyn_array`, `binary_type`, `unary_type`;
`&&` and `||` it checks itself, as the compiler does), and resolves names
against the locals a test bound (conftest.bind_local), then its contract's
state variables. It emits no trace events.
test_evaluator.py checks the compiled expressions' types and ill-typed
messages against it.
"""

from solsem import ast
from solsem.errors import SolTypeError, UnknownIdentifier
from solsem.typesys import (
    MEMORY, UINT256, Address, Bool, Contract, Int256, Literal, Located,
    String, UInt,
    _strip_ref, binary_type, dyn_array, index_type, member_type, unary_type,
)

# the names a cast may use, written out apart from typesys.ELEMENTARY
_CASTS = {"uint": UInt(256), "int": Int256(), "int256": Int256(),
          "address": Address(),
          **{f"uint{w}": UInt(w) for w in (8, 16, 32, 64, 128, 256)}}


def _info(env):
    """The ContractInfo of the evaluator's instance."""
    world = env.world
    return world.registry[world.instances[env.address].contract_name]


def _lookup(env, e: ast.Ident) -> Located:
    """A bound local shadows a state variable of the contract."""
    names = getattr(env, "names", {})  # a conftest.BoundEvaluator's
    if e.name in names:
        return names[e.name][1]
    if e.name in _info(env).layout:
        return _info(env).layout[e.name].located
    raise UnknownIdentifier(f"unknown identifier {e.name}", e.span)


def _function_return(env, name):
    fn = _info(env).functions.get(name)
    return None if fn is None or fn.ret is None else fn.ret[1]


def _cast_target(env, name):
    if name in _info(env).functions:
        return None  # a local function wins over a cast
    if name in _CASTS:
        return _CASTS[name]
    if name in env.world.registry:
        return Contract(name)
    return None


def _external_return(env, contract_name, fn):
    info = env.world.registry.get(contract_name)
    f = info.functions.get(fn) if info is not None else None
    return f.ret[1] if f is not None and f.ret is not None else None


def type_of(env, e: ast.Expr) -> Located:
    """Static type of `e` with its location class; `env` is an Evaluator."""
    if isinstance(e, ast.Ident):
        return _lookup(env, e)
    if isinstance(e, ast.IntLit):
        return Located(Literal(e.value), MEMORY)
    if isinstance(e, ast.BoolLit):
        return Located(Bool(), MEMORY)
    if isinstance(e, ast.StringLit):
        return Located(String(), MEMORY)
    if isinstance(e, ast.MsgSender):
        return Located(Address(), MEMORY)
    if isinstance(e, ast.MsgValue):
        return Located(UINT256, MEMORY)
    if isinstance(e, ast.Index):
        base = type_of(env, e.base)
        return index_type(e, base, type_of(env, e.index).sem)
    if isinstance(e, ast.Member):
        return member_type(e, type_of(env, e.base))
    if isinstance(e, ast.ArrayLength):
        dyn_array(type_of(env, e.base), ".length", e.span)
        return Located(UINT256, MEMORY)
    if isinstance(e, ast.Call):
        cast = _cast_target(env, e.name)
        if cast is not None:
            return Located(cast, MEMORY)
        ret = _function_return(env, e.name)
        if ret is None:
            raise SolTypeError(
                f"function {e.name} has no return value", e.span)
        return Located(ret, MEMORY)
    if isinstance(e, ast.ExternalCall):
        target = type_of(env, e.target)
        sem, _ = _strip_ref(target.sem)
        if isinstance(sem, Contract):
            ret = _external_return(env, sem.name, e.name)
            if ret is None:
                raise SolTypeError(
                    f"function {e.name} of {sem.name} has no return value",
                    e.span)
            return Located(ret, MEMORY)
        raise SolTypeError(
            "cannot statically type an external call on a plain address",
            e.span)
    if isinstance(e, ast.LowLevelCallValue):
        return Located(Bool(), MEMORY)  # whether the call succeeded
    if isinstance(e, ast.Binary) and e.op in ("&&", "||"):
        if not all(isinstance(type_of(env, x).sem, Bool)
                   for x in (e.lhs, e.rhs)):
            raise SolTypeError(f"{e.op} requires bool operands", e.span)
        return Located(Bool(), MEMORY)
    if isinstance(e, ast.Binary):
        lt = type_of(env, e.lhs).sem
        return Located(binary_type(e, lt, type_of(env, e.rhs).sem), MEMORY)
    if isinstance(e, ast.Unary) and e.op == "-" \
            and isinstance(e.operand, ast.IntLit):  # a signed literal
        return Located(Literal(-e.operand.value), MEMORY)
    if isinstance(e, ast.Unary):
        return Located(unary_type(e, type_of(env, e.operand).sem), MEMORY)
    raise SolTypeError(f"expression has no type: {e!r}",
                       getattr(e, "span", None))
