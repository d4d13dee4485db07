"""The dict-building trace encoder, kept as a test oracle.

This is how `solsem.trace.Trace.to_ndjson` encoded an event before it
wrote each line directly: build a dict per event (plus one per call), then
let `json.dumps(..., sort_keys=True)` order, escape and join it. It is slow
but plainly right, so test_trace.py checks the line writer byte for byte
against `json.dumps(event_to_json(ev), sort_keys=True)`.
"""


def call_to_json(call) -> dict:
    out = {"kind": call.kind}
    if call.to is not None:
        out["to"] = hex(call.to)
    if call.fn is not None:
        out["fn"] = call.fn
    if call.args:
        out["args"] = [str(a) for a in call.args]
    if call.value is not None:
        out["value"] = call.value
    if call.gas is not None:
        out["gas"] = call.gas
    return out


def event_to_json(ev) -> dict:
    out = {
        "seq": ev.seq,
        "rule": ev.rule,
        "addr": hex(ev.addr) if ev.addr is not None else None,
        "fn": ev.fn,
        "writes": [w.to_json() for w in ev.writes],
    }
    if ev.frame is not None:
        out["frame"] = ev.frame
    if ev.call is not None:
        out["call"] = call_to_json(ev.call)
    if ev.value is not None:
        out["value"] = ev.value
    if ev.omega is not None:
        out["omega"] = ev.omega
    if ev.note is not None:
        out["note"] = ev.note
    return out
