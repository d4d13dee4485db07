"""solsem benchmark: end-to-end metrics, or per-layer metrics from spans.

    python3 bench/run.py --workload coin_history --seed 1 --seconds 60 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 60 --trace 1

`all` runs every workload of workloads.py, each in its own process;
compile_layout is one of them but not in BENCHMARK.json.

Drives solsem from outside through its public API, with the engine options
the CLI uses (only the per-op fault hook of coin_history is set). A run
repeats whole episodes of the workload (set-up, the op loop, the post-run
report over the full trace), at least MIN_EPISODES times and then while
the next one would still end within --seconds. Every episode runs the same
seeded inputs; each time reported is the median over the run's episodes of
that episode's own figure. Each timed call is scaled to a nominal host
speed by a probe timed next to it (see hostspeed.py); the wall times are
printed beside the scaled ones and kept in the output file. Every outcome
is checked; any mismatch makes the run exit 1, and the last line of
standard output is one JSON object with the metrics named in
BENCHMARK.json.

--trace 0 times the unmodified program. --trace 1 alternates untraced
episodes with episodes whose calls into each solsem module are wrapped in
spans (see spans.py); the untraced ones also size the trace's heap with
tracemalloc. Results and spans go to bench/out/.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import math
import os
import pickle
import platform
import resource
import statistics
import subprocess
import sys
import time
import tracemalloc
from dataclasses import dataclass
from pathlib import Path

from hostspeed import timed

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
MIN_EPISODES = 2
# untraced episodes time the report this many times: coin_history fits
# only 2-4 episodes into a run, and one report call lasts long enough for
# the host's speed to change during it
REPORT_REPS = 10
clock = time.perf_counter

# CLI fixture runs and their documented exit codes (1 = reentrancy found)
SMOKE = (
    ("dao.sol", "dao.scn", 1),
    ("dao_fixed.sol", "dao_fixed.scn", 0),
    ("coin.sol", "coin.scn", 0),
    ("coin.sol", "empty.scn", 0),
    ("coverage.sol", None, 0),
)


class SetupError(Exception):
    """The checkout lacks what the benchmark drives."""


def use_checkout_sources():
    """Import solsem from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    needed = [src / "solsem" / "__init__.py", ROOT / "BENCHMARK.json"]
    needed += [ROOT / "contracts" / c for c, _, _ in SMOKE]
    needed += [ROOT / "scenarios" / s for _, s, _ in SMOKE if s]
    missing = [str(p.relative_to(ROOT)) for p in dict.fromkeys(needed)
               if not p.is_file()]
    if missing:
        raise SetupError(f"missing from the checkout: {', '.join(missing)}")
    sys.path.insert(0, str(src))
    import solsem
    if Path(solsem.__file__).resolve().parent != src / "solsem":
        raise SetupError(f"solsem imported from {solsem.__file__}, not {src}")


# ---------------------------------------------------------------------------
# one episode
# ---------------------------------------------------------------------------

@dataclass
class Report:
    ndjson_bytes: int
    findings: list
    replay: dict


@dataclass
class Episode:
    # times at the nominal host speed (hostspeed.timed)
    setup_s: list
    op_s: list
    report_s: list
    total_s: float  # one set-up + the op loop + the report
    wall: dict  # the same four as measured, in wall seconds
    mismatches: int
    steps: int
    aborts: int
    events: int  # trace events emitted by the op loop
    storage_bytes: int  # non-zero storage bytes of every instance
    memory_fresh_bytes: int  # sum of MemoryState.fresh
    instances: int
    ndjson_bytes: int
    findings: int
    fingerprint: int  # a hash of ints, so the same in every process; a long
    # run does not hold every episode's final state
    tracer: object = None
    layers: dict = None  # per-layer metrics of a traced episode
    trace_heap_bytes: int = 0


def _report(worlds) -> tuple:
    """(reports, wall s, scaled s). Each of the three calls is timed on its
    own, so that the host-speed probe samples the host more often."""
    import solsem
    reports, wall, scaled = [], 0.0, 0.0
    for w in worlds:
        parts = []
        for fn, args in ((w.trace.to_ndjson, ()),
                         (solsem.detect_reentrancy, (w.trace.events,)),
                         (solsem.trace.replay_storage_writes, (w.trace.events,))):
            out, dw, ds = timed(fn, *args)
            parts.append(out)
            wall += dw
            scaled += ds
        ndjson, findings, replay = parts
        reports.append(Report(len(ndjson), findings, replay))
    return reports, wall, scaled


def _replay_mismatches(worlds, reports) -> int:
    """Replayed committed writes must equal every instance's storage."""
    bad = 0
    for world, rep in zip(worlds, reports):
        stored = {a: i.config.storage.bytes for a, i in world.instances.items()
                  if i.config.storage.bytes}
        bad += {a: b for a, b in rep.replay.items() if b} != stored
    return bad


def run_episode(wl, inputs, setup_reps: int = 1, report_reps: int = 1,
                tracer=None, heap: bool = False) -> Episode:
    """Set up `setup_reps` times (the last set-up is used), run every op,
    then the report `report_reps` times (it only reads the trace); checks
    run between the timed regions. A tracer is installed for the last
    set-up, the op loop and the report only: the per-op checks call no
    traced function, and the final checks run after it is removed."""
    gc.collect()  # start every episode from a heap without the last one's garbage
    setups, setups_wall = [], []
    for _ in range(setup_reps - 1):
        _, wall, scaled = timed(wl.setup, inputs)
        setups.append(scaled)
        setups_wall.append(wall)
    with tracer if tracer is not None else contextlib.nullcontext():
        state, wall, scaled = timed(wl.setup, inputs)
        setups.append(scaled)
        setups_wall.append(wall)
        worlds = state.worlds
        events0 = sum(len(w.trace) for w in worlds)
        op_s, op_wall, bad, out = [], [], 0, None
        for op in inputs["ops"]:
            pre = wl.before_op(state, op)
            out, wall, scaled = timed(wl.run_op, state, op)
            op_s.append(scaled)
            op_wall.append(wall)
            bad += wl.check_op(state, op, pre, out)
        out = None  # the last op's result holds a slice of the trace
        events = sum(len(w.trace) for w in worlds) - events0
        report_s, report_wall = [], []
        for _ in range(report_reps):
            reports = None  # hold one report's output at a time
            reports, wall, scaled = _report(worlds)
            report_s.append(scaled)
            report_wall.append(wall)
    bad += _replay_mismatches(worlds, reports)
    bad += wl.check_final(state, inputs, reports)
    instances = [i for w in worlds for i in w.instances.values()]
    ep = Episode(
        setup_s=setups, op_s=op_s, report_s=report_s,
        total_s=setups[-1] + sum(op_s) + statistics.median(report_s),
        wall={"setup_s": setups_wall, "op_s": op_wall, "report_s": report_wall,
              "total_s": setups_wall[-1] + sum(op_wall)
              + statistics.median(report_wall)},
        mismatches=bad,
        steps=state.steps, aborts=state.aborts, events=events,
        storage_bytes=sum(len(i.config.storage.bytes) for i in instances),
        memory_fresh_bytes=sum(i.config.memory.fresh for i in instances),
        instances=len(instances),
        ndjson_bytes=sum(r.ndjson_bytes for r in reports),
        findings=sum(len(r.findings) for r in reports),
        fingerprint=hash(tuple(tuple(w.storage_fingerprint().items())
                               for w in worlds)),
        tracer=tracer)
    if heap:
        ep.trace_heap_bytes = sum(trace_heap_bytes(w.trace.events) for w in worlds)
    return ep


def trace_heap_bytes(events: list) -> int:
    """Heap the event list holds, by tracemalloc: the bytes allocated while
    unpickling a copy of it (pickling keeps shared objects shared).

    The trace only grows, so what it holds at the end is its peak. Copying
    it after the episode spares the episode tracemalloc's cost.
    """
    data = pickle.dumps(events, protocol=pickle.HIGHEST_PROTOCOL)
    tracemalloc.start()
    try:
        copy = pickle.loads(data)
        size = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    del copy
    return size


# ---------------------------------------------------------------------------
# runs and metrics
# ---------------------------------------------------------------------------

def _repeat(seconds: float, minimum: int, once) -> None:
    """Call `once` at least `minimum` times, then while the next call, as
    long as the mean call so far, would still end within `seconds`."""
    start, done = clock(), 0
    while True:
        once()
        done += 1
        elapsed = clock() - start
        if done >= minimum and elapsed + elapsed / done > seconds:
            return


def plain_run(wl, inputs, seconds: float) -> list:
    episodes = []
    _repeat(seconds, MIN_EPISODES, lambda: episodes.append(
        run_episode(wl, inputs, setup_reps=wl.setup_reps,
                    report_reps=REPORT_REPS)))
    return episodes


def traced_run(wl, inputs, seconds: float):
    """Untraced and traced episodes in turn, at least one of each."""
    from spans import Tracer
    plain, traced = [], []

    def pair():
        plain.append(run_episode(wl, inputs, heap=True))
        ep = run_episode(wl, inputs, tracer=Tracer())
        ep.layers = _layer_row(ep, len(inputs["ops"]))
        if traced:
            traced[-1].tracer = None  # keep only the last episode's spans
        traced.append(ep)
    _repeat(seconds, 1, pair)
    return plain, traced


def tail_percentile(n_samples: int) -> float:
    """Highest percentile (to 0.1) with at least 10 of n samples above it."""
    return math.floor(1000 * (n_samples - 10) / n_samples) / 10


def percentile(values, q: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100 * len(ordered)) - 1)]


def _times(rows) -> dict:
    """The timed metrics of a run, from one dict of times per episode (keys
    setup_s, op_s, report_s, total_s). Every time is the median over the
    episodes of that episode's own figure, so it does not depend on how
    many episodes fit into the run; set-up and report are the medians of
    every set-up and every report."""
    all_ops = [s for r in rows for s in r["op_s"]]

    def median(f):
        return statistics.median(f(r) for r in rows)

    return {
        "setup_s": statistics.median(s for r in rows for s in r["setup_s"]),
        "ops_per_s": median(lambda r: len(r["op_s"]) / sum(r["op_s"])),
        "op_p50_ms": median(lambda r: statistics.median(r["op_s"])) * 1e3,
        "op_tail_ms": percentile(all_ops, tail_percentile(len(all_ops))) * 1e3,
        "report_s": statistics.median(s for r in rows for s in r["report_s"]),
        "total_s": median(lambda r: r["total_s"]),
    }


def end_to_end(episodes) -> tuple:
    """(metrics, details): times at the nominal host speed; the details
    hold the same times from wall clock alone."""
    ops = sum(len(e.op_s) for e in episodes)
    metrics = _times([{"setup_s": e.setup_s, "op_s": e.op_s,
                       "report_s": e.report_s, "total_s": e.total_s}
                      for e in episodes])
    metrics["peak_rss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics["error_rate"] = sum(e.mismatches for e in episodes) / ops
    details = {"op_tail_percentile": tail_percentile(ops),
               "op_tail_samples": ops, "episodes": len(episodes),
               "wall": _times([e.wall for e in episodes])}
    return metrics, details


def _growth(op_s: list) -> float:
    """Median op latency over the last tenth of an episode / the first."""
    k = max(1, len(op_s) // 10)
    return statistics.median(op_s[-k:]) / statistics.median(op_s[:k])


def _layer_row(e: Episode, ops: int) -> dict:
    summary = e.tracer.summary()

    def calls(n):
        return summary.get(n, (0, 0.0, 0.0))[0]

    def inclusive(n):
        return summary.get(n, (0, 0.0, 0.0))[1]

    def self_s(n):
        return summary.get(n, (0, 0.0, 0.0))[2]

    derivations = calls("evaluator.slot_of_map") + calls("evaluator.slot_of_dyn")
    distinct = len(e.tracer.slot_inputs)
    return {
        "state.snapshot_s": inclusive("state.snapshot"),
        "state.snapshot_calls": calls("state.snapshot"),
        "state.restore_s": inclusive("state.restore"),
        "state.restore_calls": calls("state.restore"),
        "state.storage_bytes": e.storage_bytes,
        "state.memory_fresh_bytes": e.memory_fresh_bytes,
        "state.instances": e.instances,
        "state.register_s": inclusive("state.register"),
        "keccak.calls": calls("keccak.keccak256"),
        "keccak.s": inclusive("keccak.keccak256"),
        "evaluator.slot_derivations": derivations,
        "evaluator.slot_distinct": distinct,
        "evaluator.slot_reuse": 1 - distinct / derivations if derivations else 0.0,
        "typesys.type_of_calls": calls("typesys.type_of"),
        "typesys.type_of_s": inclusive("typesys.type_of"),
        "trace.emit_calls": calls("trace.emit"),
        "trace.emit_s": inclusive("trace.emit"),
        "trace.events_per_op": e.events / ops,
        "trace.ndjson_s": inclusive("trace.to_ndjson"),
        "trace.ndjson_bytes": e.ndjson_bytes,
        "trace.replay_s": inclusive("trace.replay"),
        "harness.detect_s": inclusive("harness.detect"),
        "harness.findings": e.findings,
        "harness.layout_s": inclusive("harness.layout"),
        "executor.deploy_s": inclusive("executor.deploy"),
        "executor.tx_s": inclusive("executor.tx"),
        "executor.tx_self_s": self_s("executor.tx"),
        "executor.steps": e.steps,
        "executor.aborts": e.aborts,
        "lexer.tokens": e.tracer.tokens,
        "lexer.tokenize_s": inclusive("lexer.tokenize"),
        "parser.parse_self_s": self_s("parser.parse"),
    }


def per_layer(plain, traced) -> tuple:
    """(metrics, details): medians over the traced episodes, per episode."""
    metrics = {k: statistics.median(e.layers[k] for e in traced)
               for k in traced[0].layers}
    metrics["trace.heap_peak_mb"] = statistics.median(
        e.trace_heap_bytes for e in plain) / 2**20
    metrics["executor.tx_growth"] = statistics.median(_growth(e.op_s)
                                                      for e in plain)
    metrics["tracing_overhead"] = (statistics.median(e.total_s for e in traced)
                                   / statistics.median(e.total_s for e in plain))
    last = traced[-1]
    within_tx = last.tracer.self_within("executor.tx")
    traced_ops = sum(last.wall["op_s"])  # spans hold wall times
    details = {
        "traced_episodes": len(traced), "untraced_episodes": len(plain),
        "tx_self_s_by_span": dict(sorted(within_tx.items(),
                                         key=lambda kv: -kv[1])),
        "tx_share_of_op_time": sum(within_tx.values()) / traced_ops,
        "spans_in_last_episode": len(last.tracer.spans),
    }
    return metrics, details


# ---------------------------------------------------------------------------
# fixture smoke pass, metadata, output
# ---------------------------------------------------------------------------

def smoke_pass() -> list:
    """`solsem run --detect-reentrancy` on every fixture scenario; untimed."""
    from solsem.cli import main as cli_main
    out = []
    for contract, scenario, want in SMOKE:
        argv = ["run", str(ROOT / "contracts" / contract), "--detect-reentrancy"]
        if scenario:
            argv += ["--scenario", str(ROOT / "scenarios" / scenario)]
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            got = cli_main(argv)
        out.append({"run": scenario or contract, "exit": got, "expected": want})
    return out


def git_sha() -> str:
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=False)
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def meta(args, wl, spec) -> dict:
    why = {w["name"]: w["why"] for w in spec["workloads"]}
    return {
        "workload": wl.name, "why": why.get(wl.name, wl.__doc__),
        "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "sizes": wl.sizes(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
        "git_sha": git_sha(),
    }


def run_one(args, spec) -> int:
    import workloads
    wl = workloads.WORKLOADS[args.workload]()
    inputs = wl.inputs(args.seed)
    ops = len(inputs["ops"])
    doc = {"meta": meta(args, wl, spec)}
    if args.trace:
        plain, traced = traced_run(wl, inputs, args.seconds)
        episodes = plain + traced
        metrics, doc["per_layer"] = per_layer(plain, traced)
        wanted = spec["per_layer"]
    else:
        episodes = plain_run(wl, inputs, args.seconds)
        metrics, doc["end_to_end"] = end_to_end(episodes)
        wanted = spec["end_to_end"]
    attempted = ops * len(episodes)
    failed = sum(e.mismatches for e in episodes)
    smoke = smoke_pass()
    smoke_ok = all(s["exit"] == s["expected"] for s in smoke)
    correct = failed == 0 and smoke_ok
    doc.update(metrics=metrics, smoke=smoke, correct=correct,
               attempted=attempted, failed=failed,
               episodes=[{"setup_s": e.setup_s, "op_s": e.op_s,
                          "report_s": e.report_s, "total_s": e.total_s,
                          "wall": e.wall} for e in episodes])

    m = doc["meta"]
    print(f"solsem bench  workload={wl.name} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}  python={m['python']} "
          f"nproc={m['nproc']} git={m['git_sha'][:12]}")
    print(f"  sizes {json.dumps(m['sizes'], sort_keys=True)}  "
          f"episodes={len(episodes)}")
    # op_tail_ms and error_rate are printed but not gated: the tail of
    # dao_drain's uniform rounds measures only host noise, and error_rate is
    # 0 on a correct run (it is the JSON line's failed / attempted)
    units = {"op_tail_ms": "ms", "error_rate": "ratio"}
    units.update((w["name"], w["unit"]) for w in wanted)
    wall = {} if args.trace else doc["end_to_end"]["wall"]
    for name, value in metrics.items():
        print(f"  {name:<28} {value:>14.6g} {units[name]}"
              + (f"  (wall {wall[name]:.6g})" if name in wall else ""))
    if args.trace:
        d = doc["per_layer"]
        top = ", ".join(f"{k} {v:.3g}" for k, v in
                        list(d["tx_self_s_by_span"].items())[:6])
        print(f"  self s inside executor.tx (last traced episode): {top}; "
              f"{d['tx_share_of_op_time']:.1%} of its op time")
    else:
        d = doc["end_to_end"]
        print(f"  times are medians over {d['episodes']} episodes, at the "
              f"nominal host speed; op_tail_ms is p{d['op_tail_percentile']:g} "
              f"of all {d['op_tail_samples']} op times; "
              f"error_rate = {failed}/{attempted}")
    print("  smoke " + " ".join(f"{s['run']}={s['exit']}" for s in smoke)
          + ("  ok" if smoke_ok else "  MISMATCH"))

    OUT.mkdir(exist_ok=True)
    stem = OUT / f"{wl.name}-seed{args.seed}-trace{args.trace}"
    stem.with_suffix(".json").write_text(json.dumps(doc, indent=1) + "\n")
    if args.trace:
        spans = {"meta": doc["meta"], "spans": traced[-1].tracer.to_json()}
        Path(f"{stem}-spans.json").write_text(json.dumps(spans) + "\n")

    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {w["name"]: {"value": metrics[w["name"]], "unit": w["unit"]}
                    for w in wanted}}))
    return 0 if correct else 1


def run_all(args, names) -> int:
    """Each workload in a fresh process, so peak RSS is its own."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__)), "--workload", name,
             "--seed", str(args.seed), "--seconds", f"{args.seconds:g}",
             "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900, check=False)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        sys.stderr.write(proc.stderr)
        if proc.returncode not in (0, 1) or not lines:
            return proc.returncode or 2
        result = json.loads(lines[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            merged["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(merged))
    return 0 if merged["correct"] else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    help="coin_history, dao_drain, compile_layout, or all")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        use_checkout_sources()
    except SetupError as err:
        print(f"bench: {err}", file=sys.stderr)
        return 2
    import workloads
    names = list(workloads.WORKLOADS)
    if args.workload == "all":
        return run_all(args, names)
    if args.workload not in names:
        ap.error(f"--workload must be one of {', '.join(names)} or all")
    return run_one(args, json.loads((ROOT / "BENCHMARK.json").read_text()))


if __name__ == "__main__":
    sys.exit(main())
