"""Spans around solsem's layer boundaries, recorded from outside the program.

`Tracer` replaces public functions and methods of the solsem modules with
timing wrappers while it is installed (every module that imported a
function by name gets the wrapper too) and puts the originals back on
exit, so untraced episodes run the unmodified program.

A span is (name, start, end, parent index), kept in memory in start order.
A layer's self time is a span's duration minus the durations of its direct
children. None of the wrapped callables calls itself through the wrapped
name, so summing durations per name never counts an interval twice.
"""

from __future__ import annotations

import sys
import time

# (span name, module, attribute) of every wrapped callable. Span names are
# "<layer>.<what>"; the layer is the solsem module the metric is filed under.
TARGETS = (
    ("lexer.tokenize", "solsem.lexer", "tokenize"),
    ("parser.parse", "solsem.parser", "parse"),
    ("state.register", "solsem.state", "World.register"),
    ("state.snapshot", "solsem.state", "World.snapshot"),
    ("state.restore", "solsem.state", "World.restore"),
    ("executor.deploy", "solsem.executor", "Executor.deploy"),
    ("executor.tx", "solsem.executor", "Executor.run_transaction"),
    ("typesys.type_of", "solsem.evaluator", "Evaluator.type_of"),
    ("evaluator.slot_of_map", "solsem.evaluator", "slot_of_map"),
    ("evaluator.slot_of_dyn", "solsem.evaluator", "slot_of_dyn"),
    ("keccak.keccak256", "solsem.keccak", "keccak256"),
    ("trace.emit", "solsem.trace", "Trace.emit"),
    ("trace.to_ndjson", "solsem.trace", "Trace.to_ndjson"),
    ("trace.replay", "solsem.trace", "replay_storage_writes"),
    ("harness.detect", "solsem.harness", "detect_reentrancy"),
    ("harness.layout", "solsem.harness", "dump_layout"),
)


class Tracer:
    """Install with `with tracer:`; read `spans`, `summary()` afterwards."""

    def __init__(self):
        self.spans: list = []
        self.slot_inputs: set = set()  # distinct Keccak inputs of slot derivations
        self.tokens: int = 0
        self._stack: list = []
        self._saved: list = []

    # -- wrappers ----------------------------------------------------------------

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, stack[-1] if stack else -1)

        if name == "lexer.tokenize":
            def counted(*args, **kwargs):
                tokens = traced(*args, **kwargs)
                self.tokens += len(tokens)
                return tokens
            return counted
        if name == "evaluator.slot_of_dyn":
            def dyn(p, i):
                self.slot_inputs.add(("dyn", p))  # Keccak hashes p only
                return traced(p, i)
            return dyn
        if name == "evaluator.slot_of_map":
            def mapping(p, key32, evm_hash_order=False):
                self.slot_inputs.add(("map", p, key32, evm_hash_order))
                return traced(p, key32, evm_hash_order)
            return mapping
        return traced

    def _set(self, owner, attr, value):
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def __enter__(self):
        by_id = {}  # id(original module-level function) -> (original, wrapper)
        for name, modname, path in TARGETS:
            owner = sys.modules[modname]
            attr = path
            if "." in path:
                cls, attr = path.split(".")
                owner = getattr(owner, cls)
                self._set(owner, attr, self._wrap(name, owner.__dict__[attr]))
            else:
                fn = getattr(owner, attr)
                by_id[id(fn)] = (fn, self._wrap(name, fn))
        for modname, module in list(sys.modules.items()):
            if modname != "solsem" and not modname.startswith("solsem."):
                continue
            for attr, value in list(vars(module).items()):
                hit = by_id.get(id(value))
                if hit is not None and hit[0] is value:
                    self._set(module, attr, hit[1])
        return self

    def __exit__(self, *exc):
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)
        return False

    # -- views ---------------------------------------------------------------------

    def _child_time(self) -> list:
        child = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return child

    def summary(self) -> dict:
        """Per span name: [calls, inclusive seconds, self seconds]."""
        child = self._child_time()
        out: dict = {}
        for i, (name, start, end, _) in enumerate(self.spans):
            row = out.setdefault(name, [0, 0.0, 0.0])
            row[0] += 1
            row[1] += end - start
            row[2] += end - start - child[i]
        return out

    def self_within(self, root: str) -> dict:
        """Self seconds by span name, over spans named `root` and everything
        nested inside them."""
        child = self._child_time()
        inside = [False] * len(self.spans)
        out: dict = {}
        for i, (name, start, end, parent) in enumerate(self.spans):
            # a parent is appended before its children, so it is already known
            inside[i] = name == root or (parent >= 0 and inside[parent])
            if inside[i]:
                out[name] = out.get(name, 0.0) + end - start - child[i]
        return out

    def to_json(self) -> list:
        """Spans as [name, start_us, end_us, parent], times from the first span."""
        if not self.spans:
            return []
        t0 = self.spans[0][1]
        return [[name, round((s - t0) * 1e6, 3), round((e - t0) * 1e6, 3), p]
                for name, s, e, p in self.spans]
