"""Execution traces: an entry per effectful rule, one per run of pure ones.

Rule labels follow the source rule names (VD1, ASSIGN, E-FUN1, SKIP2, ...)
so tests and downstream tooling can grep for them. Every label is a
literal in the engine's source, and a test checks each against
RULE_LABELS, so nothing checks a label per call. A rule recorded through
`emit` (writes, a transfer, a warning) is one slotted `TraceEvent`, holding
its rule's Write list uncopied or the shared `()`. A frame edge is one call:
`enter` pushes a context and logs the event that opens it (TX-START, I-FUN,
E-FUN, E-FUN1, E-FUN2), `leave` logs the one that closes it (SKIP2), if
any, and pops. An external callee's I-FUN or E-FUN is an `emit` with its
CallInfo in the context its E-FUN1 or E-FUN2 entered, which is the same
(callee, function, frame): one context per external call. A pure rule
application (typing, sizing, E-RV, SEQ, ...) appends its label to a
pending list, in a C call (`Trace.rules` is the list's `extend`, the only
way a pure label reaches the trace); before the next event, frame edge or
read of `Trace.events`, the pending labels become one `RuleRun` entry (a
Coin `send`: 36 rules, 9 entries), a NamedTuple built in C. It reads as an
event with no payload, so the reentrancy detector and the replay pass over
it; `expand` yields a TraceEvent per rule and `len(trace)` counts rules.
Entries are read-only to every consumer. Code that must leave a world's
trace alone (a scenario assert) is compiled against a `Trace()` of its
own. `committed` picks out the slices of the transactions that committed;
the storage replay and the CLI's warnings (a warning is its WARN event)
read the log through it.

Serialized form is newline-delimited JSON, one line per rule, written
straight out as f-strings with no dict per event: keys in sorted order, hex
fields as `0x..`, every string through the C escaper `json.dumps` uses. Each
line is byte for byte `json.dumps(event, sort_keys=True)` of the JSON form
of the rule's expanded event (tests/ndjson_oracle.py keeps that dict
builder to check against). Nothing is encoded at `emit` time, and each
distinct address, function name, rule label, RuleRun and CallInfo is
encoded once per `to_ndjson` call: a 51-level drain repeats the same four
calls at every level. The dicts that hold them die with the call. A
CallInfo holding anything but ints, strings and None is encoded afresh,
because equality takes `True` and `1.0` for `1` while they print apart.
"""

from __future__ import annotations

import json
from collections import defaultdict
from dataclasses import dataclass
from typing import NamedTuple, Optional

# Every rule label the engine can emit for an applied semantics rule
# (tests/test_golden.py checks each label literal of the source against it).
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

# the C string escaper json.dumps uses (ensure_ascii)
_esc = json.encoder.encode_basestring_ascii
_new = tuple.__new__  # a NamedTuple from all its fields, no Python call


# the types whose values are equal only when they print alike (`True == 1`
# and `1.0 == 1` print apart, and a list is unhashable): a CallInfo is a key
# of `to_ndjson`'s call fragments only if its value, gas and args are these
_PLAIN = frozenset({int, str, type(None)})


class _Labels(dict):
    """A rule label -> the `"rule": "<label>", "seq": ` that starts its
    line's tail, each made the first time it is read."""
    __slots__ = ()

    def __missing__(self, rule: str) -> str:
        frag = self[rule] = f'"rule": {_esc(rule)}, "seq": '
        return frag


def _int(x) -> str:
    """A transferred value or gas as JSON: a library `Tx` can carry a bool,
    which its TX-START logs before the bracket aborts it."""
    return "true" if x is True else "false" if x is False else repr(x)


@dataclass(slots=True)
class Write:
    space: str  # 'storage' | 'memory'
    at: int
    data: bytes

    def to_json(self) -> dict:
        return {"space": self.space, "at": hex(self.at),
                "bytes": "0x" + self.data.hex()}


# built and read positionally (`_new`, `to_ndjson`): keep this field order
class CallInfo(NamedTuple):
    kind: str  # 'tx' | 'internal' | 'external' | 'fallback'
    to: Optional[int] = None
    fn: Optional[str] = None
    args: tuple = ()
    value: Optional[int] = None
    gas: Optional[int] = None


# built positionally: keep this field order. Slotted, not a NamedTuple: the
# report reads each field, and a slot reads faster than a tuple's field
@dataclass(slots=True)
class TraceEvent:
    seq: int
    rule: str
    addr: Optional[int]  # instance the rule fired in
    fn: Optional[str]
    frame: Optional[int]  # nearest enclosing external frame
    writes: list | tuple = ()  # its rule's own Write list, or the shared ()
    call: Optional[CallInfo] = None
    value: Optional[int] = None
    omega: Optional[int] = None  # callee omega depth right after a push
    note: Optional[str] = None


class RuleRun(NamedTuple):
    """Consecutive pure rule applications in one context: `rules[i]` has
    seq `seq + i`. It reads as an event with no payload."""
    seq: int
    rules: tuple
    addr: Optional[int]
    fn: Optional[str]
    frame: Optional[int]
    rule = call = value = omega = note = None
    writes = ()


def expand(entries):
    """One TraceEvent per applied rule of `entries`, a log or a slice of one."""
    for ev in entries:
        if ev.rule is not None:
            yield ev
        else:  # a RuleRun: (seq, rules, addr, fn, frame)
            yield from (TraceEvent(i, rule, *ev[2:])
                        for i, rule in enumerate(ev.rules, ev.seq))


class Trace:
    """Ordered log plus the ambient (instance, function, frame) context."""

    def __init__(self):
        self._log: list = []  # TraceEvents and RuleRuns, in seq order
        self._pending: list = []  # pure labels not yet in the log
        self._seq: int = 0  # the last seq in the log
        self._ctx: list = [(None, None, None)]  # (addr, fn, frame) tuples
        self.rules = self._pending.extend  # pure rules' labels, one C call

    def __setstate__(self, state) -> None:  # a copy extends its own list
        self.__dict__.update(state)
        self.rules = self._pending.extend

    def _flush(self) -> None:
        """Log the pending labels (callers test them first)."""
        pending, seq = self._pending, self._seq
        self._log.append(_new(RuleRun, (seq + 1, tuple(pending),
                                        *self._ctx[-1])))
        self._seq = seq + len(pending)
        pending.clear()

    # -- frame edges -------------------------------------------------------------

    def enter(self, rule: str, addr, fn, frame, call, value=None,
              omega=None) -> None:
        """Log the pending labels, push (addr, fn, frame), a None frame
        inheriting the enclosing one, and log `rule`'s event in it."""
        if self._pending:
            self._flush()
        if frame is None:
            frame = self._ctx[-1][2]
        self._ctx.append((addr, fn, frame))
        self._seq = seq = self._seq + 1
        self._log.append(TraceEvent(seq, rule, addr, fn, frame, (), call,
                                    value, omega, None))

    def leave(self, rule: Optional[str] = None, omega=None) -> None:
        """Close the innermost frame: log its pending labels and then
        `rule`'s event, if one is given, in its own context, then pop it."""
        if self._pending:
            self._flush()
        if rule is not None:
            self._seq = seq = self._seq + 1
            addr, fn, frame = self._ctx[-1]
            self._log.append(TraceEvent(seq, rule, addr, fn, frame, (), None,
                                        None, omega, None))
        self._ctx.pop()

    @property
    def depth(self) -> int:
        return len(self._ctx)

    def unwind(self, depth: int) -> None:
        """Drop every context above `depth`, including any that a failing
        frame did not get to pop."""
        if self._pending:
            self._flush()
        del self._ctx[depth:]

    # -- emission ----------------------------------------------------------------

    def emit(self, rule: str, writes=(), value=None, note=None,
             call=None) -> TraceEvent:
        """Append and return the event of `rule` in the current context. It
        keeps `writes` uncopied: the caller must not change that list
        afterwards."""
        if self._pending:
            self._flush()
        self._seq = seq = self._seq + 1
        addr, fn, frame = self._ctx[-1]
        ev = TraceEvent(seq, rule, addr, fn, frame, writes or (), call, value,
                        None, note)
        self._log.append(ev)
        return ev

    # -- views --------------------------------------------------------------------

    @property
    def events(self) -> list:
        """The log, pending labels written out first: TraceEvents, RuleRuns."""
        if self._pending:
            self._flush()
        return self._log

    def __len__(self):  # rule applications, not log entries
        return self._seq + len(self._pending)

    def labels(self) -> set:
        return {ev.rule for ev in expand(self.events)}

    def to_ndjson(self) -> str:
        """One line per rule, `json.dumps(event, sort_keys=True)` of its
        expanded event's JSON form, written straight out: keys in sorted
        order, `addr`, `fn`, `rule`, `seq` and `writes` always, the other
        fields only when not None (a call's `args` only when non-empty).

        Each distinct value is encoded once per call, in dicts that die
        with it: an address's `"0x.."`, a function name's escaped form, a
        rule's `"rule": "..", "seq": ` (and their list per tuple of RuleRun
        labels), the `{"addr": .., "fn": .., "frame": .., ` head of a
        call-less entry, and a CallInfo's `"call": {..}, ` (only a `_PLAIN`
        one: see there). A TX-START and its I-FUN share one `args` tuple, as do an
        E-FUN1 and its callee's, so the last `args` encoded is kept by
        identity. A RuleRun is one string: its lines joined on their
        shared head, so `lines` holds one piece per entry."""
        esc = _esc
        addrs = {None: "null"}
        names = {None: "null"}
        labels = _Labels()
        runs: dict = {}  # RuleRun labels -> their `labels` fragments
        calls: dict = {}
        heads: dict = {}  # (addr, fn, frame) -> head of a call-less entry
        last_args = last_frag = None
        tail = ', "writes": []}\n'
        lines: list = []
        for ev in self.events:
            call = ev.call
            key = (ev.addr, ev.fn, ev.frame)
            if call is None:
                head = heads.get(key)
                c = ""
            else:
                head = None
                kind, to, cfn, args, cvalue, gas = call
                plain = (type(cvalue) in _PLAIN and type(gas) in _PLAIN
                         and _PLAIN.issuperset(map(type, args)))
                c = calls.get(call) if plain else None
                if c is None:
                    c = '"call": {'
                    if args:
                        if args is not last_args:
                            last_args = args
                            last_frag = '"args": [' + ", ".join(
                                map(esc, map(str, args))) + "], "
                        c += last_frag
                    if cfn is not None:
                        if (f := names.get(cfn)) is None:
                            f = names[cfn] = esc(cfn)
                        c += f'"fn": {f}, '
                    if gas is not None:
                        c += f'"gas": {_int(gas)}, '
                    c += f'"kind": {esc(kind)}'
                    if to is not None:
                        if (a := addrs.get(to)) is None:
                            a = addrs[to] = f'"{to:#x}"'
                        c += f', "to": {a}'
                    if cvalue is not None:
                        c += f', "value": {_int(cvalue)}'
                    c += "}, "
                    if plain:
                        calls[call] = c
            if head is None:
                addr, fn, frame = key
                if (a := addrs.get(addr)) is None:
                    a = addrs[addr] = f'"{addr:#x}"'
                if (f := names.get(fn)) is None:
                    f = names[fn] = esc(fn)
                head = f'{{"addr": {a}, {c}"fn": {f}, '
                if frame is not None:
                    head += f'"frame": {frame}, '
                if call is None:
                    heads[key] = head
            if ev.rule is None:  # a RuleRun: one line per label
                if rules := ev.rules:
                    if (frags := runs.get(rules)) is None:
                        frags = runs[rules] = [*map(labels.__getitem__,
                                                    rules)]
                    lines.append(head + head.join([
                        f"{frag}{seq}{tail}"
                        for seq, frag in enumerate(frags, ev.seq)]))
                continue
            line = head
            if ev.note is not None:
                line += f'"note": {esc(ev.note)}, '
            if ev.omega is not None:
                line += f'"omega": {ev.omega}, '
            line += f"{labels[ev.rule]}{ev.seq}, "
            if ev.value is not None:
                line += f'"value": {_int(ev.value)}, '
            writes = ev.writes
            if writes:
                lines.append(line + '"writes": [' + ", ".join([
                    f'{{"at": "{w.at:#x}", "bytes": "0x{w.data.hex()}", '
                    f'"space": {esc(w.space)}}}' for w in writes]) + "]}\n")
            else:
                lines.append(line + '"writes": []}\n')
        # each piece ends in a newline: joined lines plus a trailing "\n"
        # would hold a second copy of the whole output while `lines` lives
        return "".join(lines)


def committed(entries: list):
    """The entries of each transaction that committed, in log order: each
    slice from TX-START through TX-END. A slice that aborts (TX-ABORT) and
    one still open are left out. Transactions never nest."""
    start = 0
    for i, ev in enumerate(entries):
        if ev.rule == "TX-START":
            start = i
        elif ev.rule == "TX-END":
            yield from entries[start:i + 1]


def replay_storage_writes(events: list) -> dict:
    """Reapply committed storage writes to a fresh word store per instance;
    returns {address: {byte: value}}, the stores' byte views.

    Only the slices `committed` yields are replayed, so the result matches
    each instance's `storage.bytes` (the rule-label fidelity check).
    """
    from .state import ByteStore  # state imports this module
    stores = defaultdict(ByteStore)
    for ev in committed(events):
        for w in ev.writes:
            if w.space == "storage":
                stores[ev.addr].write(w.at, w.data)
    return {addr: store.bytes for addr, store in stores.items()}
