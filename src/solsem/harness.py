"""Whole-program driving: scenario files, reentrancy detection, layout dumps.

A scenario is a line-oriented script:

    deploy <handle> <Contract> (args...) from <addr> [value <n>]
    tx <handle>.<fn>(args...) from <addr> [value <n>] [gas <n>]
    assert <handle>.<expr> == <literal>

Handles name deployed instances; argument positions accept decimal or hex
integers, true/false, or a handle (which resolves to its address). A
contract named `Main` with a function `main()` can drive a run instead of a
scenario file: the implicit script is `deploy main Main () ...; tx main()`.
A malformed line, including a malformed assert expression, raises a
`ScenarioError` that names its line.

Reentrancy is read off a finished trace in one pass, linear in the number
of events: each reentry is decided when its outer frame closes.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Optional

from . import ast, typesys
from .errors import SolsemError, TxAborted, UnknownIdentifier
from .evaluator import compile_expression, read_value
from .executor import Executor, Tx
from .parser import parse_expression
from .state import World

DEFAULT_SENDER = 0xC0DE


# ---------------------------------------------------------------------------
# scenario files
# ---------------------------------------------------------------------------

@dataclass
class DeployAction:
    handle: str
    contract: str
    args: list
    sender: object
    value: int = 0
    line: int = 0


@dataclass
class TxAction:
    handle: str
    fname: str
    args: list
    sender: object
    value: int = 0
    gas: int = 0
    line: int = 0


@dataclass
class AssertAction:
    handle: str
    expr: ast.Expr
    expr_text: str
    expected: object
    line: int = 0


@dataclass
class Scenario:
    actions: list = field(default_factory=list)


class ScenarioError(SolsemError):
    pass


_DEPLOY_RE = re.compile(
    r"^deploy\s+(\w+)\s+(\w+)\s*\((.*?)\)\s*from\s+(\S+)"
    r"(?:\s+value\s+(\S+))?$")
_TX_RE = re.compile(
    r"^tx\s+(\w+)\.(\w+)\s*\((.*?)\)\s*from\s+(\S+)"
    r"(?:\s+value\s+(\S+))?(?:\s+gas\s+(\S+))?$")
_ASSERT_RE = re.compile(r"^assert\s+(\w+)\.(.+?)\s*==\s*(\S+)$")


def _literal(tok: str, line: int):
    tok = tok.strip()
    if tok in ("true", "false"):
        return tok == "true"
    if re.fullmatch(r"0[xX][0-9a-fA-F]+", tok):
        return int(tok, 16)
    if re.fullmatch(r"-?\d+", tok):
        return int(tok)
    if re.fullmatch(r"\w+", tok):
        return HandleRef(tok)
    raise ScenarioError(f"line {line}: cannot parse literal {tok!r}")


def _amount(tok: Optional[str], line: int) -> int:
    """A `value` or `gas` field: a non-negative integer, 0 when absent."""
    if tok is None:
        return 0
    try:
        amount = int(tok, 0)
        if amount >= 0:
            return amount
    except ValueError:
        pass
    raise ScenarioError(
        f"line {line}: expected a non-negative integer, got {tok!r}")


@dataclass(frozen=True)
class HandleRef:
    name: str


def _arg_list(raw: str, line: int) -> list:
    raw = raw.strip()
    if not raw:
        return []
    return [_literal(part, line) for part in raw.split(",")]


def parse_scenario(text: str) -> Scenario:
    actions = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        m = _DEPLOY_RE.match(line)
        if m:
            handle, contract, args, sender, value = m.groups()
            actions.append(DeployAction(
                handle=handle, contract=contract,
                args=_arg_list(args, lineno), sender=_literal(sender, lineno),
                value=_amount(value, lineno), line=lineno))
            continue
        m = _TX_RE.match(line)
        if m:
            handle, fname, args, sender, value, gas = m.groups()
            actions.append(TxAction(
                handle=handle, fname=fname, args=_arg_list(args, lineno),
                sender=_literal(sender, lineno),
                value=_amount(value, lineno), gas=_amount(gas, lineno),
                line=lineno))
            continue
        m = _ASSERT_RE.match(line)
        if m:
            handle, expr_text, expected = m.groups()
            try:
                expr = parse_expression(expr_text)
            except SolsemError as err:  # its span is within expr_text
                raise ScenarioError(f"line {lineno}: {err.message}") from err
            actions.append(AssertAction(
                handle=handle, expr=expr, expr_text=expr_text,
                expected=_literal(expected, lineno), line=lineno))
            continue
        raise ScenarioError(f"line {lineno}: cannot parse scenario line {line!r}")
    return Scenario(actions=actions)


@dataclass
class ActionResult:
    description: str
    ok: bool
    detail: str = ""


@dataclass
class ScenarioOutcome:
    handles: dict
    results: list
    halted: bool = False

    @property
    def assertions_ok(self) -> bool:
        return all(r.ok for r in self.results)


def _contains_call(e: ast.Expr) -> bool:
    if isinstance(e, (ast.Call, ast.ExternalCall, ast.LowLevelCallValue, ast.Push)):
        return True
    return any(_contains_call(c) for _, v in ast.children(e)
               for c in (v if isinstance(v, list) else (v,)))


def eval_readonly(world: World, address: int, expr: ast.Expr,
                  handles: Optional[dict] = None):
    """The value of a state expression of one instance, compiled against a
    trace of its own and run under a snapshot, so neither the world's state
    nor its trace changes. Each of `handles` (name -> address) and
    `balance`, the instance's wei, is a named constant: an integer literal,
    unless a state variable of its name shadows it. A handle named `balance`
    shadows the balance. Calls, casts among them, are rejected."""
    if _contains_call(expr):
        raise ScenarioError("calls are not allowed in assert expressions")
    constants = {"balance": world.instance(address).balance, **(handles or {})}
    run = compile_expression(world, address, expr, constants)[0]
    mark = world.snapshot()  # a read of an unseen key records its region
    try:
        return run(Executor(world).evaluator(address))
    finally:
        world.restore(mark)


def run_scenario(world: World, scenario: Scenario) -> ScenarioOutcome:
    """Execute actions in order; deploy/tx hard errors halt the run, assert
    failures are recorded and execution continues."""
    ex = Executor(world)
    handles: dict = {}
    results: list = []

    def handle(name):
        if name not in handles:
            raise ScenarioError(f"unknown handle {name}")
        return handles[name]

    def resolve(v):
        return handle(v.name) if isinstance(v, HandleRef) else v

    for action in scenario.actions:
        if isinstance(action, DeployAction):
            desc = f"deploy {action.handle} = {action.contract}"
            try:
                address = ex.deploy(action.contract,
                                    args=[resolve(a) for a in action.args],
                                    sender=resolve(action.sender),
                                    value=action.value)
            except (TxAborted, SolsemError) as err:
                results.append(ActionResult(desc, False, str(err)))
                return ScenarioOutcome(handles, results, halted=True)
            handles[action.handle] = address
            results.append(ActionResult(desc, True, f"at {address:#x}"))
        elif isinstance(action, TxAction):
            desc = f"tx {action.handle}.{action.fname}"
            try:
                tx = Tx(to=handle(action.handle),
                        sender=resolve(action.sender), fname=action.fname,
                        args=tuple(resolve(a) for a in action.args),
                        value=action.value, gas=action.gas)
            except ScenarioError as err:
                results.append(ActionResult(desc, False, str(err)))
                return ScenarioOutcome(handles, results, halted=True)
            res = ex.run_transaction(tx)
            if not res.ok:
                results.append(ActionResult(desc, False, str(res.error)))
                return ScenarioOutcome(handles, results, halted=True)
            detail = "" if res.value is None else f"returned {res.value}"
            results.append(ActionResult(desc, True, detail))
        elif isinstance(action, AssertAction):
            desc = f"assert {action.handle}.{action.expr_text}"
            try:
                address = handle(action.handle)
                actual = eval_readonly(world, address, action.expr, handles)
                expected = resolve(action.expected)
            except (SolsemError, KeyError) as err:
                results.append(ActionResult(desc, False, str(err)))
                continue
            ok = actual == expected
            results.append(ActionResult(
                desc, ok, f"actual {actual!r}" if not ok else ""))
        else:
            raise ScenarioError(f"unknown action {action!r}")
    return ScenarioOutcome(handles, results)


def run_main_contract(world: World, contract: str = "Main",
                      sender: int = DEFAULT_SENDER) -> ScenarioOutcome:
    """Implicit scenario: deploy the driver contract and invoke main()."""
    info = world.contract_info(contract)
    if "main" not in info.functions:
        raise UnknownIdentifier(f"contract {contract} has no function main()")
    scenario = Scenario(actions=[
        DeployAction(handle="main", contract=contract, args=[], sender=sender),
        TxAction(handle="main", fname="main", args=[], sender=sender),
    ])
    return run_scenario(world, scenario)


# ---------------------------------------------------------------------------
# reentrancy detection
# ---------------------------------------------------------------------------

_FRAME_OPEN = frozenset(("TX-START", "E-FUN1", "E-FUN2"))
_FRAME_CLOSE = frozenset(("TX-END", "TX-ABORT", "SKIP2"))


@dataclass
class ReentrancyFinding:
    victim: int
    fn: str
    outer_seq: int  # entry of the frame that was still open
    reentrant_seq: int  # entry of the nested frame on the same instance
    path: tuple  # call chain at reentry: ((address, fn), ...)
    writes_after: list  # victim storage writes by the outer frame after reentry

    def to_json(self) -> dict:
        return {
            "victim": hex(self.victim),
            "fn": self.fn,
            "outerSeq": self.outer_seq,
            "reentrantSeq": self.reentrant_seq,
            "path": [[hex(a), f] for a, f in self.path],
            "writesAfterReentry": [
                {"seq": seq, **w.to_json()} for seq, w in self.writes_after],
        }


def detect_reentrancy(events) -> list:
    """Find frames entered on an instance that already has an open frame,
    where the outer frame still writes storage afterwards (the
    state-update-after-external-call shape).

    One pass over the events. A reentry is attached to its outer frame when
    the inner frame opens, and is decided when the outer frame closes: it is
    a finding if the outer frame wrote storage in between. Only the
    innermost open frame emits events, so a write can extend only the
    reentries attached to the top of the stack. Findings come out in the
    order their inner frames opened."""
    stack: list = []  # open frames: (opening event, reentries into its instance)
    path: list = []  # (address, fn) of each open frame, outermost first
    by_addr: dict = {}  # address -> its open frames, innermost last
    findings: list = []
    for ev in events:
        rule = ev.rule
        if rule is None:  # a RuleRun: no frame edge, no writes
            continue
        if rule in _FRAME_OPEN and ev.call is not None:
            path.append((ev.addr, ev.fn))
            same = by_addr.setdefault(ev.addr, [])
            if same:
                outer, reentries = same[-1]
                reentries.append(ReentrancyFinding(
                    victim=outer.addr, fn=outer.fn, outer_seq=outer.seq,
                    reentrant_seq=ev.seq, path=tuple(path), writes_after=[]))
            frame = (ev, [])
            stack.append(frame)
            same.append(frame)
        elif rule in _FRAME_CLOSE:
            if stack:
                path.pop()
                opened, reentries = stack.pop()
                by_addr[opened.addr].pop()
                findings += (f for f in reentries if f.writes_after)
        elif ev.writes and stack:
            opened, reentries = stack[-1]
            if reentries and ev.frame == opened.frame:
                writes = [(ev.seq, w) for w in ev.writes
                          if w.space == typesys.STORAGE]
                for f in reentries:
                    f.writes_after += writes
    for _, reentries in stack:  # frames a truncated trace leaves open
        findings += (f for f in reentries if f.writes_after)
    findings.sort(key=lambda f: f.reentrant_seq)
    return findings


# ---------------------------------------------------------------------------
# layout reports
# ---------------------------------------------------------------------------

@dataclass
class LayoutVar:
    name: str
    type_str: str
    byte_addr: int
    slot: int
    offset: int
    size: int
    value: object

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "type": self.type_str,
            "byteAddr": self.byte_addr,
            "slot": self.slot,
            "offset": self.offset,
            "size": self.size,
            "value": _render_value(self.value),
        }


@dataclass
class LayoutReport:
    contract: str
    address: int
    lam: int
    vars: list
    hashed_regions: list

    def to_json(self) -> dict:
        return {
            "contract": self.contract,
            "address": hex(self.address),
            "lambda": self.lam,
            "vars": [v.to_json() for v in self.vars],
            "hashedRegions": self.hashed_regions,
        }


def _render_value(v) -> Optional[str]:
    if v is None:
        return None
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, int):
        return str(v)
    if isinstance(v, str):
        return v
    if isinstance(v, list):
        return "[" + ",".join(_render_value(x) or "null" for x in v) + "]"
    if isinstance(v, dict):
        return "{" + ",".join(f"{k}:{_render_value(x) or 'null'}"
                              for k, x in v.items()) + "}"
    return str(v)


def dump_layout(world: World, address: int) -> LayoutReport:
    """Static-variable layout plus hash-derived regions touched so far.

    A pure read of the world: no bytes, names, or regions are modified.
    """
    instance = world.instance(address)
    storage = instance.config.storage
    info = world.contract_info(instance.contract_name)
    vars_out = []
    for name, (addr, (sem, _)) in info.layout.items():
        size = typesys.size_of(sem)
        value = read_value(world, instance.config, typesys.STORAGE, addr, sem)
        vars_out.append(LayoutVar(
            name=name, type_str=typesys.type_to_str(sem), byte_addr=addr,
            slot=addr // typesys.SLOT, offset=addr % typesys.SLOT,
            size=size, value=value))
    regions = []
    for region in storage.hashed.values():
        entry = {
            "kind": region.kind,
            "baseSlot": region.base_slot,
            "slot": hex(region.slot),
        }
        if region.kind == "mapping":
            entry["key"] = str(region.key)
        else:
            entry["index"] = region.key
        if region.value_type is not None:
            entry["value"] = _render_value(read_value(
                world, instance.config, typesys.STORAGE,
                region.slot * typesys.SLOT, region.value_type))
        regions.append(entry)
    return LayoutReport(contract=instance.contract_name, address=address,
                        lam=info.lam, vars=vars_out, hashed_regions=regions)
