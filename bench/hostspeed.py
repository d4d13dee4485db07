"""Host-speed probe: scales measured times to a nominal host speed.

On a shared host the speed a process gets can drift by up to a factor
of two over seconds to minutes while its CPU time stays equal to its wall
time (so it is not time slicing, and CPU time does not remove it); a
2-core KVM guest on a Xeon host showed this. A run of the same code can
then read 40% slower than the run before it, and no estimator inside one
run removes that.

So every time an end-to-end metric reports is taken at a nominal host
speed: `timed` runs a fixed pure-Python probe right before and right after
the timed call and multiplies the call's wall time by PROBE_S / (the mean
of the two probe times). The probe walks a fixed tree of slotted objects
with type dispatch, attribute and dict reads and 64-bit integer mixing,
the kind of interpreter work solsem's evaluator, snapshots and Keccak do.
It allocates no object the garbage collector tracks, so it never starts a
collection and leaves the program's collection schedule as it would be
without it. It is the benchmark's own code, so a change to solsem moves
the scaled times in the same proportion as the wall times.
"""

from __future__ import annotations

import time

clock = time.perf_counter

# The probe's time on an unloaded host: a 2-core Intel Xeon (Sapphire
# Rapids) KVM guest, CPython 3.11.7. Scaled times read as wall times on
# that host at that speed.
PROBE_S = 0.5e-3

_MASK = (1 << 64) - 1
_ENV = {k: k * 7919 for k in range(8)}


class _Node:
    __slots__ = ("kind", "kids", "val", "name")

    def __init__(self, kind, kids, val):
        self.kind, self.kids, self.val, self.name = kind, kids, val, f"n{val}"


def _build(depth: int, val: int) -> _Node:
    if depth == 0:
        return _Node(0, (), val)
    return _Node(depth, tuple(_build(depth - 1, 3 * val + i) for i in range(3)),
                 val)


_TREE = _build(5, 1)  # 364 nodes


def _walk(node: _Node) -> int:
    # index loops, not `for`: a list or tuple iterator is a tracked object
    if node.kind == 0:
        return (node.val * 0x9E3779B97F4A7C15 ^ len(node.name)) & _MASK
    kids = node.kids
    acc, i, n = 0, 0, len(kids)
    while i < n:
        acc = ((acc << 1) ^ _walk(kids[i])) & _MASK
        i += 1
    return (acc + _ENV.get(node.kind, 0)) & _MASK


def probe() -> float:
    """Seconds one fixed unit of work takes now."""
    t0 = clock()
    _walk(_TREE)
    _walk(_TREE)
    _walk(_TREE)
    _walk(_TREE)
    return clock() - t0


def timed(fn, *args):
    """(fn(*args), wall seconds, seconds at the nominal host speed)."""
    before = probe()
    t0 = clock()
    out = fn(*args)
    wall = clock() - t0
    after = probe()
    return out, wall, wall * 2 * PROBE_S / (before + after)
