"""Statement and call execution over a world of deployed instances.

Transactions are atomic: every change to persistent state appends an undo
record to the world's journal, and on any exception the bracket replays the
transaction's records backwards, so an aborted transaction leaves no trace in
storage, balances, instances or warnings (the event log keeps the aborted
slice for observability, marked TX-ABORT). Either way the journal is emptied
when the transaction ends, so it never holds more than one transaction.

A named external call (E-FUN1) and a low-level call that runs the fallback
(E-FUN2) share one routine, `Executor.external_call`. It threads the ambient
Msg through a save/restore stack and pushes the caller context onto the
callee's omega stack; the pop on return emits SKIP2, and expression
statements completing with an empty omega emit SKIP1. A named call is typed
by the function it reaches.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from typing import Optional

from . import ast, typesys
from .errors import (
    InsufficientBalance, ReturnOutsideFunction, SolTypeError, SolsemError,
    TxAborted, UnknownIdentifier,
)
from .evaluator import Evaluator, slot_of_dyn, _slot_stride
from .state import (
    FunctionInfo, Msg, World, encode_value, zero_value,
)
from .trace import CallInfo, Write


class _ReturnSignal(Exception):
    """Internal control flow for `return`; never escapes a call frame."""


@dataclass
class Tx:
    sender: int
    to: int
    fname: str
    args: tuple = ()
    value: int = 0
    gas: int = 0


@dataclass
class TxResult:
    ok: bool
    value: object = None
    error: Optional[TxAborted] = None
    events: list = field(default_factory=list)
    steps: int = 0  # statements executed (fault-injection points)


class Executor:
    def __init__(self, world: World):
        self.world = world

    def evaluator(self, address: int,
                  fn: Optional[FunctionInfo] = None) -> Evaluator:
        return Evaluator(self, address, fn)

    # -- transactions --------------------------------------------------------------

    def deploy(self, contract_name: str, args=(), sender: int = 0,
               value: int = 0, gas: int = 0) -> int:
        """Create an instance: allocate state variables in declaration order,
        then run the constructor under the creation Msg."""
        world = self.world
        info = world.contract_info(contract_name)
        # the address is taken inside the bracket, so an abort gives it back
        tx = Tx(sender=sender, to=world.next_address, fname=contract_name,
                args=tuple(args), value=value, gas=gas)

        def create():
            address = world.create_instance(contract_name, value)
            ev = self.evaluator(address)
            for name, t, init in info.state_vars:
                init_value = ev.eval_rvalue(init) if init is not None else None
                addr = ev.config.allocate_static(name, t, world.trace)
                writes = []
                if init_value is not None:
                    writes = ev.write_value(typesys.STORAGE, addr, t, init_value)
                world.trace.emit("VD1", writes=writes)
            if info.constructor is not None:
                self.call_internal(address, info.constructor, tx.args,
                                   expression=False)
            elif args:
                raise SolTypeError(
                    f"{contract_name} has no constructor but got arguments")
            return address

        res = self._transact(tx, "deploy", create)
        if not res.ok:
            raise res.error from res.error.cause
        return res.value

    def run_transaction(self, tx: Tx) -> TxResult:
        world = self.world

        def call():
            callee = world.instance(tx.to)
            info = world.contract_info(callee.contract_name)
            fn = info.functions.get(tx.fname)
            if fn is None:
                raise UnknownIdentifier(
                    f"{callee.contract_name} has no function {tx.fname}")
            world.credit(callee, tx.value)
            return self.call_internal(tx.to, fn, tuple(tx.args),
                                      expression=fn.ret is not None)

        return self._transact(tx, "tx", call)

    def _transact(self, tx: Tx, kind: str, body) -> TxResult:
        """The transaction bracket: run `body` under a fresh Msg and frame.

        On any exception the world is rolled back to its pre-state through
        the journal, its warnings are truncated, and the trace gets TX-ABORT.
        A SolsemError, or the interpreter running out of stack, comes back as
        a failed TxResult; any other exception is re-raised after the
        rollback. Either way the journal is emptied and the ambient context
        (Msg, Msg stack, call depth, trace context) ends as it was before.
        """
        world, trace = self.world, self.world.trace
        world.tx_count += 1
        mark = world.snapshot()
        warned = len(world.warnings)
        saved = (world.msg, world.msg_stack, world.call_depth)
        depth = trace.depth
        start = len(trace)
        world.msg = Msg(tx.sender, tx.value, tx.gas)
        world.msg_stack = []
        world.stmt_steps = 0
        deploying = kind == "deploy"
        trace.push_context(tx.to, None if deploying else tx.fname,
                           world.new_frame_id())
        trace.emit("TX-START", call=CallInfo(kind, tx.to, tx.fname,
                                             tuple(tx.args), tx.value, tx.gas),
                   value=None if deploying else tx.value or None)
        try:
            value = body()
            trace.emit("TX-END")
            return TxResult(ok=True, value=value,
                            events=trace.events[start:],
                            steps=world.stmt_steps)
        except BaseException as exc:
            world.restore(mark)
            del world.warnings[warned:]
            if isinstance(exc, RecursionError):
                exc = TxAborted(
                    f"Python stack limit reached (recursion limit "
                    f"{sys.getrecursionlimit()}); call nesting is bounded by "
                    f"the interpreter stack")
            if not isinstance(exc, SolsemError):
                trace.emit("TX-ABORT", note=f"{type(exc).__name__}: {exc}")
                raise
            trace.emit("TX-ABORT", note=str(exc))
            aborted = exc if isinstance(exc, TxAborted) \
                else TxAborted(str(exc), cause=exc)
            return TxResult(ok=False, error=aborted,
                            events=trace.events[start:],
                            steps=world.stmt_steps)
        finally:
            world.commit()
            world.msg, world.msg_stack, world.call_depth = saved
            trace.unwind(depth)

    # -- function calls ---------------------------------------------------------------

    def call_internal(self, address: int, fn: FunctionInfo, values: tuple,
                      expression: bool, call_kind: str = "internal"):
        """Push a fresh scope, bind parameters and the return slot, run the
        body under the modifier guard, and hand back the return value."""
        world = self.world
        if world.call_depth >= world.options.max_call_depth:
            raise TxAborted("call depth limit exceeded")
        ev = self.evaluator(address, fn)
        if len(values) != len(fn.params):
            raise SolTypeError(
                f"{fn.name or 'fallback'} expects {len(fn.params)} arguments, "
                f"got {len(values)}")
        world.call_depth += 1
        display = fn.name or "()"
        world.trace.push_context(address, display)
        world.trace.emit("E-FUN" if expression else "I-FUN", call=CallInfo(
            call_kind, address, display, tuple(values)))
        ev.config.memory.push_scope()
        try:
            for (pname, ptype), v in zip(fn.params, values):
                self._bind_local(ev, pname, ptype, v)
            if fn.ret is not None:
                rname, rtype = fn.ret
                self._bind_local(ev, rname, rtype, zero_value(rtype))
            if fn.guard is None or ev.eval_condition(
                    fn.guard, "modifier condition must be boolean"):
                try:
                    self.exec_block(ev, fn.body)
                except _ReturnSignal:
                    pass
            result = None
            if fn.ret is not None and expression:
                rname, rtype = fn.ret
                binding = ev.config.lookup(rname)
                result = ev.read_value(typesys.MEMORY, binding.addr, rtype)
            return result
        finally:
            ev.config.memory.pop_scope()
            world.trace.pop_context()
            world.call_depth -= 1

    def _bind_local(self, ev: Evaluator, name: str, sem: typesys.SemType, v,
                    decl: Optional[ast.VarDecl] = None):
        """VD2: bind into the top frame at a fresh memory address."""
        if isinstance(sem, typesys.String):
            raw = str(v).encode("utf-8")
            data = len(raw).to_bytes(typesys.SLOT, "big") + raw
        elif typesys.is_primitive(sem):
            data = encode_value(v, sem)
        else:
            raise SolTypeError(
                f"cannot bind a value of type {typesys.type_to_str(sem)} "
                f"in memory")
        addr = ev.config.fr(name, typesys.Located(sem, typesys.MEMORY), data,
                            decl)
        self.world.trace.emit("VD2", writes=[Write(typesys.MEMORY, addr, data)])
        return addr

    def eval_internal_call(self, ev: Evaluator, call: ast.Call,
                           expression: bool):
        fn = ev.info.functions.get(call.name)
        if fn is None:
            raise UnknownIdentifier(f"unknown function {call.name}", call.span)
        if expression and fn.ret is None:
            raise SolTypeError(
                f"function {call.name} has no return value", call.span)
        values = tuple(ev.eval_rvalue(a) for a in call.args)
        return self.call_internal(ev.address, fn, values,
                                  expression=expression)

    def external_call(self, ev: Evaluator,
                      e: ast.ExternalCall | ast.LowLevelCallValue,
                      expression: bool = False):
        """E-FUN1, a named call `c.f.value(m)(args)`, or E-FUN2, a low-level
        `c.call.value(m)()` that runs the callee's fallback.

        Both evaluate in the caller, move m wei, push the caller onto the
        callee's omega stack under a fresh Msg, run, and pop (SKIP2). The
        value and gas must be unsigned integers; gas defaults to the
        caller's. A named call returns (value, type) with the return type of
        the function it reaches. A low-level call returns (success, bool): a
        transfer the caller cannot fund fails softly (a warning, no state
        change) instead of aborting, which is also what lets the recursive
        drain stop exactly when the victim's balance hits zero, and a callee
        with no fallback takes the wei and runs nothing.
        """
        world = self.world

        def amount(x, what, default):
            if x is None:
                return default
            v, t = ev.eval_typed(x)
            if not isinstance(t, typesys.UInt):
                raise SolTypeError(f"call {what} must be an unsigned integer, "
                                   f"not {typesys.type_to_str(t)}", x.span)
            return v

        caller = ev.address
        named = isinstance(e, ast.ExternalCall)
        target = ev.eval_rvalue(e.target)
        values = tuple(ev.eval_rvalue(a) for a in e.args) if named else ()
        m = amount(e.value, "value", 0)
        n = amount(e.gas, "gas", world.msg.gas if world.msg else 0)
        callee_inst = world.instance(target)
        callee_name = callee_inst.contract_name
        callee_info = world.contract_info(callee_name)
        caller_inst = world.instance(caller)
        if named:
            fn = callee_info.functions.get(e.name)
            if fn is None:
                raise SolTypeError(f"{callee_name} has no function {e.name}",
                                   e.span)
            if expression and fn.ret is None:
                raise SolTypeError(f"function {e.name} of {callee_name} has "
                                   f"no return value", e.span)
            if caller_inst.balance < m:
                raise InsufficientBalance(
                    f"{caller:#x} holds {caller_inst.balance} wei, needs {m}")
        elif caller_inst.balance < m:
            world.trace.emit("WARN", note=(
                f"low-level call failed: {caller:#x} holds "
                f"{caller_inst.balance} wei, needs {m}"))
            world.warnings.append("low-level call failed: insufficient balance")
            return False, typesys.Bool()
        world.credit(caller_inst, -m)
        world.credit(callee_inst, m)
        if not named:
            fn = callee_info.fallback
            if fn is None:
                world.trace.emit("WARN", value=m, note=(
                    f"{callee_name} has no fallback; "
                    f"value transferred, no code ran"))
                world.warnings.append(f"{callee_name} has no fallback function")
                return True, typesys.Bool()
        kind = "external" if named else "fallback"
        callee_config = callee_inst.config
        callee_config.omega.append(caller)
        world.msg_stack.append(world.msg)
        world.msg = Msg(caller, m, n)
        display = fn.name or "()"
        world.trace.push_context(target, display, world.new_frame_id())
        world.trace.emit("E-FUN1" if named else "E-FUN2",
                         call=CallInfo(kind, target, display, values, m, n),
                         value=m, omega=len(callee_config.omega))
        try:
            value = self.call_internal(target, fn, values,
                                       expression=named and expression,
                                       call_kind=kind)
        finally:
            world.msg = world.msg_stack.pop()
            callee_config.omega.pop()
            world.trace.emit("SKIP2", omega=len(callee_config.omega))
            world.trace.pop_context()
        if not named:
            return True, typesys.Bool()
        return value, fn.ret[1] if expression else None

    # -- statements ---------------------------------------------------------------------

    def exec_block(self, ev: Evaluator, stmts: list) -> None:
        if len(stmts) > 1:
            self.world.trace.rule("SEQ")
        for s in stmts:
            self.exec_stmt(ev, s)

    def _count_step(self):
        world = self.world
        world.stmt_steps += 1
        if world.options.step_hook is not None:
            world.options.step_hook(world, world.stmt_steps)
        if world.options.max_steps is not None \
                and world.stmt_steps > world.options.max_steps:
            raise TxAborted(f"exceeded max steps ({world.options.max_steps})")

    def exec_stmt(self, ev: Evaluator, stmt: ast.Stmt) -> None:
        self._count_step()
        world = self.world
        if isinstance(stmt, ast.VarDecl):
            self._exec_var_decl(ev, stmt)
        elif isinstance(stmt, ast.Assign):
            value = ev.eval_rvalue(stmt.rhs)  # rhs first
            lv = ev.eval_lvalue(stmt.lhs)
            writes = ev.write_value(lv.located.loc, lv.addr, lv.located.sem,
                                    value)
            world.trace.emit("ASSIGN", writes=writes)
        elif isinstance(stmt, ast.ExprStmt):
            self._exec_expr_stmt(ev, stmt)
        elif isinstance(stmt, ast.If):
            if ev.eval_condition(stmt.cond, "if condition must be boolean",
                                 stmt.span):
                world.trace.rule("COND1")
                self.exec_block(ev, stmt.then)
            else:
                world.trace.rule("COND2")
                if stmt.otherwise is not None:
                    self.exec_block(ev, stmt.otherwise)
        elif isinstance(stmt, ast.While):
            while True:
                if not ev.eval_condition(
                        stmt.cond, "while condition must be boolean", stmt.span):
                    world.trace.rule("WHILE1")
                    break
                world.trace.rule("WHILE2")
                self._count_step()
                self.exec_block(ev, stmt.body)
        elif isinstance(stmt, ast.Return):
            self._exec_return(ev, stmt)
        elif isinstance(stmt, ast.Placeholder):
            raise SolsemError("placeholder statement outside a modifier", stmt.span)
        else:
            raise SolsemError(f"cannot execute {stmt!r}", getattr(stmt, "span", None))

    def _exec_expr_stmt(self, ev: Evaluator, stmt: ast.ExprStmt) -> None:
        e = stmt.expr
        if isinstance(e, ast.Push):
            self.exec_push(ev, e)
        elif isinstance(e, ast.Call):
            self.eval_internal_call(ev, e, expression=False)
        elif isinstance(e, (ast.ExternalCall, ast.LowLevelCallValue)):
            self.external_call(ev, e)
        else:
            ev.eval_rvalue(e)  # evaluate for effect, discard
        if not ev.config.omega:
            self.world.trace.rule("SKIP1")

    def _exec_var_decl(self, ev: Evaluator, stmt: ast.VarDecl) -> None:
        world = self.world
        t = typesys.resolve_type(stmt.type_name, ev.info.structs,
                                 world.registry)
        if isinstance(t, typesys.Mapping) and stmt.location == "memory":
            raise SolTypeError("mappings live in storage only", stmt.span)
        if typesys.is_reference_kind(t) and stmt.location != "memory":
            # local storage pointer: the binding itself is the referent address
            located = typesys.Located(typesys.make_ref(t), typesys.STORAGE)
            if stmt.init is not None:
                addr = ev.eval_lvalue(stmt.init).addr
            else:
                addr = 0  # aliases storage slot 0
                world.warnings.append(
                    f"uninitialized storage pointer {stmt.name}")
                world.trace.emit("WARN", note=(
                    f"uninitialized storage pointer {stmt.name} "
                    f"references storage slot 0"))
            ev.config.bind_pointer(stmt.name, located, addr, stmt)
            world.trace.emit("VD2")
            return
        if typesys.is_reference_kind(t):  # memory aggregate
            size = typesys.size_of(t, world.trace)
            data = bytes(size)
            addr = ev.config.fr(stmt.name, typesys.Located(t, typesys.MEMORY),
                                data, stmt)
            writes = [Write(typesys.MEMORY, addr, data)]
            if stmt.init is not None:
                writes += ev.write_value(typesys.MEMORY, addr, t,
                                         ev.eval_rvalue(stmt.init))
            world.trace.emit("VD2", writes=writes)
            return
        value = ev.eval_rvalue(stmt.init) if stmt.init is not None \
            else zero_value(t)
        self._bind_local(ev, stmt.name, t, value, stmt)

    def _exec_return(self, ev: Evaluator, stmt: ast.Return) -> None:
        world = self.world
        frame_fn = ev.fn
        if frame_fn is None:
            raise ReturnOutsideFunction("return outside of a function", stmt.span)
        writes = []
        if stmt.expr is not None:
            if frame_fn.ret is None:
                raise SolTypeError(
                    "return value in a function with no declared return",
                    stmt.span)
            value = ev.eval_rvalue(stmt.expr)
            rname, rtype = frame_fn.ret
            binding = ev.config.lookup(rname)
            writes = ev.write_value(typesys.MEMORY, binding.addr, rtype, value)
        world.trace.emit("RETURN", writes=writes)
        raise _ReturnSignal()

    def exec_push(self, ev: Evaluator, e: ast.Push) -> None:
        """Dynamic-array growth: store at the hashed slot for the current
        length, then bump the length in the base slot."""
        world = self.world
        addr_b, loc, sem, length = ev.length_access(e.base, "push", e.span)
        value = ev.eval_rvalue(e.arg)
        p = addr_b // typesys.SLOT
        slot = world.derived_slot(slot_of_dyn, p, 0) \
            + length * _slot_stride(sem.elem)
        ev.config.storage.record_hashed(slot, "dynarray", p, length, sem.elem)
        writes = ev.write_value(loc, slot * typesys.SLOT, sem.elem, value)
        len_data = encode_value(length + 1, typesys.UINT256)
        ev.config.write_bytes(loc, addr_b, len_data)
        writes.append(Write(loc, addr_b, len_data))
        world.trace.emit("PUSH", writes=writes)
