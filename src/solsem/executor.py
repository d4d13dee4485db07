"""Statement and call execution over a world of deployed instances.

Transactions are atomic: every change to persistent state appends an undo
record to the world's journal, and on any exception the bracket replays the
transaction's records backwards, so an aborted transaction leaves no trace in
storage, balances, instances or warnings (the event log keeps the aborted
slice for observability, marked TX-ABORT). Either way the journal is emptied
when the transaction ends, so it never holds more than one transaction.

External calls thread the ambient Msg through a save/restore stack and push
the caller context onto the callee's omega stack; the pop on return emits
SKIP2, and expression statements completing with an empty omega emit SKIP1.
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
    FunctionInfo, HashedRegion, Msg, World, encode_value, zero_value,
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
        world.msg = Msg(sender=tx.sender, value=tx.value, gas=tx.gas)
        world.msg_stack = []
        world.stmt_steps = 0
        deploying = kind == "deploy"
        trace.push_context(tx.to, None if deploying else tx.fname,
                           world.new_frame_id())
        trace.emit("TX-START", call=CallInfo(
            kind=kind, to=tx.to, fn=tx.fname, args=tuple(tx.args),
            value=tx.value, gas=tx.gas),
            value=None if deploying else tx.value or None)
        try:
            value = body()
            trace.emit("TX-END")
            return TxResult(ok=True, value=value,
                            events=trace.slice_from(start),
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
                            events=trace.slice_from(start),
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
            kind=call_kind, to=address, fn=display, args=tuple(values)))
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
        self.world.trace.emit("VD2",
                              writes=[Write(space=typesys.MEMORY, at=addr,
                                            data=data)])
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

    def eval_external_call(self, ev: Evaluator, e: ast.ExternalCall,
                           expression: bool):
        """E-FUN1: a named call on another instance, with optional value/gas."""
        world = self.world
        caller = ev.address
        target = ev.eval_rvalue(e.target)
        values = tuple(ev.eval_rvalue(a) for a in e.args)
        m = ev.eval_rvalue(e.value) if e.value is not None else 0
        n = ev.eval_rvalue(e.gas) if e.gas is not None else \
            (world.msg.gas if world.msg else 0)
        callee_inst = world.instance(target)
        callee_info = world.contract_info(callee_inst.contract_name)
        fn = callee_info.functions.get(e.name)
        if fn is None:
            raise SolTypeError(
                f"{callee_inst.contract_name} has no function {e.name}", e.span)
        if expression and fn.ret is None:
            raise SolTypeError(f"function {e.name} of "
                               f"{callee_inst.contract_name} has no return value",
                               e.span)
        caller_inst = world.instance(caller)
        if caller_inst.balance < m:
            raise InsufficientBalance(
                f"{caller:#x} holds {caller_inst.balance} wei, needs {m}")
        world.credit(caller_inst, -m)
        world.credit(callee_inst, m)
        return self._enter_external(caller, target, fn, values, m, n,
                                    expression, rule="E-FUN1", kind="external")

    def eval_low_level_call(self, ev: Evaluator, e: ast.LowLevelCallValue):
        """E-FUN2: `target.call.value(E)()` invokes the callee's fallback.

        A transfer the caller cannot fund fails softly (no state change, a
        warning event) instead of aborting: the low-level call reports
        failure to its caller rather than raising, which is also what lets
        the recursive drain stop exactly when the victim's balance hits zero.
        """
        world = self.world
        caller = ev.address
        target = ev.eval_rvalue(e.target)
        m = ev.eval_rvalue(e.value)
        n = ev.eval_rvalue(e.gas) if e.gas is not None else \
            (world.msg.gas if world.msg else 0)
        callee_inst = world.instance(target)
        caller_inst = world.instance(caller)
        if caller_inst.balance < m:
            world.trace.emit("WARN", note=(
                f"low-level call failed: {caller:#x} holds "
                f"{caller_inst.balance} wei, needs {m}"))
            world.warnings.append("low-level call failed: insufficient balance")
            return False
        world.credit(caller_inst, -m)
        world.credit(callee_inst, m)
        callee_info = world.contract_info(callee_inst.contract_name)
        fn = callee_info.fallback
        if fn is None:
            world.trace.emit("WARN", value=m, note=(
                f"{callee_inst.contract_name} has no fallback; "
                f"value transferred, no code ran"))
            world.warnings.append(
                f"{callee_inst.contract_name} has no fallback function")
            return True
        self._enter_external(caller, target, fn, (), m, n, expression=False,
                             rule="E-FUN2", kind="fallback")
        return True

    def _enter_external(self, caller: int, target: int, fn: FunctionInfo,
                        values: tuple, m: int, n: int, expression: bool,
                        rule: str, kind: str):
        """Shared E-FUN1/E-FUN2 machinery: push the caller context onto the
        callee's omega stack, save Msg, run, then restore (SKIP2)."""
        world = self.world
        callee_config = world.instance(target).config
        callee_config.omega.append(caller)
        world.msg_stack.append(world.msg)
        world.msg = Msg(sender=caller, value=m, gas=n)
        frame = world.new_frame_id()
        display = fn.name or "()"
        world.trace.push_context(target, display, frame)
        world.trace.emit(rule, call=CallInfo(
            kind=kind, to=target, fn=display, args=tuple(values),
            value=m, gas=n), value=m, omega=len(callee_config.omega))
        try:
            return self.call_internal(target, fn, values, expression=expression,
                                      call_kind=kind)
        finally:
            world.msg = world.msg_stack.pop()
            callee_config.omega.pop()
            world.trace.emit("SKIP2", omega=len(callee_config.omega))
            world.trace.pop_context()

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
        elif isinstance(e, ast.ExternalCall):
            self.eval_external_call(ev, e, expression=False)
        elif isinstance(e, ast.LowLevelCallValue):
            self.eval_low_level_call(ev, e)
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
            writes = [Write(space=typesys.MEMORY, at=addr, data=data)]
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
        ev.config.storage.record_hashed(HashedRegion(
            slot=slot, kind="dynarray", base_slot=p, key=length,
            value_type=sem.elem))
        writes = ev.write_value(loc, slot * typesys.SLOT, sem.elem, value)
        len_data = encode_value(length + 1, typesys.UINT256)
        ev.config.write_bytes(loc, addr_b, len_data)
        writes.append(Write(space=loc, at=addr_b, data=len_data))
        world.trace.emit("PUSH", writes=writes)
