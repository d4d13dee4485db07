"""The quadratic reentrancy detector, kept as a test oracle.

This is the detector `solsem.harness.detect_reentrancy` replaced: every
candidate reentry outlives its outer frame, and every storage-writing event
scans every candidate created so far. It is slow on long traces but simple
to check by eye, so test_harness.py compares the one-pass detector's
complete finding lists against it.
"""

from solsem import typesys
from solsem.harness import ReentrancyFinding, _FRAME_CLOSE, _FRAME_OPEN


class _OpenFrame:
    __slots__ = ("frame", "addr", "fn", "entry_seq")

    def __init__(self, frame, addr, fn, entry_seq):
        self.frame = frame
        self.addr = addr
        self.fn = fn
        self.entry_seq = entry_seq


def detect_reentrancy(events) -> list:
    """Scan a trace for frames entered on an instance that already has an
    open frame, where the outer frame still writes storage afterwards (the
    state-update-after-external-call shape)."""
    stack: list = []
    by_addr: dict = {}
    candidates: list = []  # [outer frame, inner frame info, writes]
    findings: list = []
    for ev in events:
        if ev.rule in _FRAME_OPEN and ev.call is not None:
            fr = _OpenFrame(ev.frame, ev.addr, ev.fn, ev.seq)
            open_same = by_addr.get(ev.addr)
            if open_same:
                outer = open_same[-1]
                candidates.append({
                    "outer": outer,
                    "inner": fr,
                    "path": tuple((f.addr, f.fn) for f in stack) + ((fr.addr, fr.fn),),
                    "writes": [],
                })
            stack.append(fr)
            by_addr.setdefault(ev.addr, []).append(fr)
        elif ev.rule in _FRAME_CLOSE:
            if stack:
                fr = stack.pop()
                frames = by_addr.get(fr.addr)
                if frames and frames[-1] is fr:
                    frames.pop()
        else:
            if not ev.writes or ev.frame is None:
                continue
            for cand in candidates:
                if ev.frame == cand["outer"].frame \
                        and ev.seq > cand["inner"].entry_seq:
                    for w in ev.writes:
                        if w.space == typesys.STORAGE:
                            cand["writes"].append((ev.seq, w))
    for cand in candidates:
        if cand["writes"]:
            findings.append(ReentrancyFinding(
                victim=cand["outer"].addr,
                fn=cand["outer"].fn,
                outer_seq=cand["outer"].entry_seq,
                reentrant_seq=cand["inner"].entry_seq,
                path=cand["path"],
                writes_after=cand["writes"]))
    return findings
