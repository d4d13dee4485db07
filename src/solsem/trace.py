"""Execution traces: one event per applied semantics rule.

Rule labels follow the source rule names (VD1, ASSIGN, E-FUN1, SKIP2, ...)
so tests and downstream tooling can grep for them. Events carry the cell
changes (byte writes, calls, value transfers) that the reentrancy detector
and the replay check consume. Serialized form is newline-delimited JSON.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Optional

# Every rule label the engine can emit for an applied semantics rule.
RULE_LABELS = frozenset({
    "VD1", "VD2",
    "ASSIGN", "SEQ", "COND1", "COND2", "WHILE1", "WHILE2",
    "SKIP1", "SKIP2", "RETURN",
    "I-FUN", "E-FUN", "E-FUN1", "E-FUN2",
    "E-RV", "E-ID1", "E-ID2",
    "E-ARRAY", "E-ARRAY-REF", "E-ARRAY-LEN", "E-ARRAY-LEN-ref",
    "E-D-ARRAY", "E-D-ARRAY-ref", "E-MAPPING", "E-MAPPING-REF",
    "E-STRUCT", "E-STRUCT-ref",
    "SR1", "SR2", "SR3",
    "Size1", "Size2", "Size3", "Size4", "Size5", "Size6", "Size7",
    "Type1", "Type2", "Type3", "Type4", "Type5", "Type6", "Type7", "Type8",
    # engine-level markers (not semantics rules)
    "TX-START", "TX-END", "TX-ABORT", "PUSH", "WARN",
})


@dataclass
class Write:
    space: str  # 'storage' | 'memory'
    at: int
    data: bytes

    def to_json(self) -> dict:
        return {"space": self.space, "at": hex(self.at),
                "bytes": "0x" + self.data.hex()}


@dataclass
class CallInfo:
    kind: str  # 'tx' | 'internal' | 'external' | 'fallback'
    to: Optional[int] = None
    fn: Optional[str] = None
    args: tuple = ()
    value: Optional[int] = None
    gas: Optional[int] = None

    def to_json(self) -> dict:
        out = {"kind": self.kind}
        if self.to is not None:
            out["to"] = hex(self.to)
        if self.fn is not None:
            out["fn"] = self.fn
        if self.args:
            out["args"] = [str(a) for a in self.args]
        if self.value is not None:
            out["value"] = self.value
        if self.gas is not None:
            out["gas"] = self.gas
        return out


@dataclass
class TraceEvent:
    seq: int
    rule: str
    addr: Optional[int]  # instance the rule fired in
    fn: Optional[str]
    frame: Optional[int]  # nearest enclosing external frame
    writes: list = field(default_factory=list)
    call: Optional[CallInfo] = None
    value: Optional[int] = None
    omega: Optional[int] = None  # callee omega depth right after a push
    note: Optional[str] = None

    def to_json(self) -> dict:
        out = {
            "seq": self.seq,
            "rule": self.rule,
            "addr": hex(self.addr) if self.addr is not None else None,
            "fn": self.fn,
            "writes": [w.to_json() for w in self.writes],
        }
        if self.frame is not None:
            out["frame"] = self.frame
        if self.call is not None:
            out["call"] = self.call.to_json()
        if self.value is not None:
            out["value"] = self.value
        if self.omega is not None:
            out["omega"] = self.omega
        if self.note is not None:
            out["note"] = self.note
        return out


class _Context:
    __slots__ = ("addr", "fn", "frame")

    def __init__(self, addr, fn, frame):
        self.addr = addr
        self.fn = fn
        self.frame = frame


class Trace:
    """Ordered event log plus the ambient (instance, function, frame) context."""

    def __init__(self):
        self.events: list = []
        self._ctx: list = [_Context(None, None, None)]
        self._muted: int = 0

    # -- context ---------------------------------------------------------------

    def push_context(self, addr, fn, frame=None):
        top = self._ctx[-1]
        self._ctx.append(_Context(addr, fn, top.frame if frame is None else frame))

    def pop_context(self):
        self._ctx.pop()

    @property
    def depth(self) -> int:
        return len(self._ctx)

    def unwind(self, depth: int) -> None:
        """Drop every context above `depth`, including any that a failing
        frame did not get to pop."""
        del self._ctx[depth:]

    # -- emission ----------------------------------------------------------------

    def emit(self, rule: str, writes=None, call=None, value=None, omega=None,
             note=None) -> Optional[TraceEvent]:
        if rule not in RULE_LABELS:
            raise ValueError(f"unknown rule label {rule!r}")
        if self._muted:
            return None
        ctx = self._ctx[-1]
        ev = TraceEvent(seq=len(self.events) + 1, rule=rule, addr=ctx.addr,
                        fn=ctx.fn, frame=ctx.frame, writes=list(writes or ()),
                        call=call, value=value, omega=omega, note=note)
        self.events.append(ev)
        return ev

    def rule(self, label: str):
        """Minimal event for a pure rule application (sizing, typing)."""
        return self.emit(label)

    # -- muting (read-only evaluations such as scenario asserts) -----------------

    @contextmanager
    def mute(self):
        self._muted += 1
        try:
            yield
        finally:
            self._muted -= 1

    # -- views --------------------------------------------------------------------

    def __len__(self):
        return len(self.events)

    def slice_from(self, start_len: int) -> list:
        return self.events[start_len:]

    def labels(self) -> set:
        return {e.rule for e in self.events}

    def to_ndjson(self) -> str:
        return "\n".join(json.dumps(e.to_json(), sort_keys=True)
                         for e in self.events) + ("\n" if self.events else "")


def replay_storage_writes(events: list) -> dict:
    """Reapply committed storage writes; returns {address: {byte: value}}.

    Slices belonging to aborted transactions are skipped, so the result
    matches the post-state byte-for-byte (the rule-label fidelity check).
    """
    from .state import write_byte_map  # state imports this module
    out: dict = {}
    committed: list = []
    pending: list = []
    depth = 0
    for ev in events:
        if ev.rule == "TX-START":
            if depth == 0:
                pending = []
            depth += 1
        if depth > 0:
            pending.append(ev)
        else:
            committed.append(ev)
        if ev.rule == "TX-END":
            depth -= 1
            if depth == 0:
                committed.extend(pending)
                pending = []
        elif ev.rule == "TX-ABORT":
            depth -= 1
            if depth == 0:
                pending = []
    for ev in committed:
        for w in ev.writes:
            if w.space == "storage":
                write_byte_map(out.setdefault(ev.addr, {}), w.at, w.data)
    return out
