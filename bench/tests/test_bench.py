"""Tests of the benchmark itself: seeded inputs, repeatable counts, checks
that catch wrong outcomes, and a tracer that leaves the program as it was.

    python3 -m pytest bench/tests -q
"""

import dataclasses
import gc
import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import solsem  # noqa: E402
import hostspeed  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer  # noqa: E402

SMALL = {
    "coin_history": lambda: workloads.CoinHistory(ops=60, accounts=20,
                                                  setup_reps=2),
    "dao_drain": lambda: workloads.DaoDrain(rounds=2, value=20, setup_reps=2),
    "compile_layout": lambda: workloads.CompileLayout(contracts=4,
                                                      setup_reps=2),
}


def _counts(ep):
    row = run._layer_row(ep, ops=len(ep.op_s))
    return {k: row[k] for k in ("trace.events_per_op", "keccak.calls",
                                "executor.steps", "evaluator.slot_distinct",
                                "typesys.type_of_calls", "lexer.tokens")}


@pytest.mark.parametrize("name", sorted(SMALL))
def test_same_seed_same_ops_counts_and_fingerprints(name):
    wl = SMALL[name]()
    a, b = wl.inputs(7), wl.inputs(7)
    assert a["ops"] == b["ops"]
    ep_a = run.run_episode(wl, a, tracer=Tracer())
    ep_b = run.run_episode(wl, b, tracer=Tracer())
    assert ep_a.mismatches == ep_b.mismatches == 0
    assert _counts(ep_a) == _counts(ep_b)
    assert ep_a.fingerprint == ep_b.fingerprint


@pytest.mark.parametrize("name", sorted(SMALL))
def test_other_seed_other_ops(name):
    wl = SMALL[name]()
    a, b = wl.inputs(7), wl.inputs(8)
    if name == "compile_layout":
        assert [c.source for c in a["contracts"]] \
            != [c.source for c in b["contracts"]]
    else:
        assert a["ops"] != b["ops"]


def test_coin_mix_and_fault_rollback():
    wl = SMALL["coin_history"]()
    inputs = wl.inputs(3)
    kinds = [op.kind for op in inputs["ops"]]
    assert kinds.count("send_fault") == 3 and kinds.count("mint_guarded") == 6
    ep = run.run_episode(wl, inputs, setup_reps=2)
    assert ep.mismatches == 0 and ep.aborts == 3 and len(ep.setup_s) == 2


def test_checks_catch_wrong_outcomes():
    coin = SMALL["coin_history"]()
    inputs = coin.inputs(3)
    account = next(iter(inputs["expected"]))
    inputs["expected"][account] += 1  # the model and storage now disagree
    assert run.run_episode(coin, inputs).mismatches == 1

    layout = SMALL["compile_layout"]()
    inputs = layout.inputs(3)
    c = inputs["contracts"][0]
    name, addr = c.expected[-1]
    inputs["contracts"][0] = dataclasses.replace(
        c, expected=c.expected[:-1] + [(name, addr + 1)])
    assert run.run_episode(layout, inputs).mismatches == 1


def test_dao_findings_name_every_bank():
    wl = SMALL["dao_drain"]()
    ep = run.run_episode(wl, wl.inputs(5), tracer=Tracer())
    assert ep.mismatches == 0
    assert ep.findings == 2 * (20 + 2) // 2  # one per reentrant level
    assert ep.aborts == 0


def test_tracer_restores_the_program():
    before = (solsem.parse, solsem.evaluator.slot_of_dyn,
              solsem.executor.slot_of_dyn, solsem.keccak.keccak256,
              solsem.World.__dict__["snapshot"],
              solsem.trace.Trace.__dict__["emit"])
    with Tracer() as tracer:
        assert solsem.executor.slot_of_dyn is not before[2]
        solsem.keccak.keccak256_int(b"\x00" * 32)
    after = (solsem.parse, solsem.evaluator.slot_of_dyn,
             solsem.executor.slot_of_dyn, solsem.keccak.keccak256,
             solsem.World.__dict__["snapshot"],
             solsem.trace.Trace.__dict__["emit"])
    assert after == before
    assert [s[0] for s in tracer.spans] == ["keccak.keccak256"]


def test_self_time_excludes_children():
    t = Tracer()
    t.spans[:] = [("a", 0.0, 10.0, -1), ("b", 1.0, 4.0, 0), ("c", 2.0, 3.0, 1),
                  ("d", 11.0, 12.0, -1)]
    summary = t.summary()
    assert summary["a"] == [1, 10.0, 7.0]
    assert summary["b"] == [1, 3.0, 2.0]
    assert t.self_within("b") == {"b": 2.0, "c": 1.0}


def test_tail_percentile_leaves_ten_samples_above():
    for n in (20, 50, 200, 1500):
        q = run.tail_percentile(n)
        values = list(range(n))
        above = sum(v > run.percentile(values, q) for v in values)
        assert above >= 10
        assert run.tail_percentile(n) < 100


def test_smoke_pass_matches_documented_exit_codes():
    assert all(s["exit"] == s["expected"] for s in run.smoke_pass())


@pytest.mark.parametrize("trace", [0, 1])
def test_last_line_reports_every_listed_metric(trace, capsys, monkeypatch):
    monkeypatch.setitem(workloads.WORKLOADS, "dao_drain", SMALL["dao_drain"])
    code = run.main(["--workload", "dao_drain", "--seed", "1",
                     "--seconds", "0", "--trace", str(trace)])
    lines = capsys.readouterr().out.splitlines()
    result = json.loads(lines[-1])
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    listed = spec["per_layer" if trace else "end_to_end"]
    assert code == 0 and result["correct"] and result["failed"] == 0
    assert result["attempted"] == 2 * (2 if trace else run.MIN_EPISODES)
    assert list(result["metrics"]) == [m["name"] for m in listed]
    assert all(result["metrics"][m["name"]]["unit"] == m["unit"]
               and result["metrics"][m["name"]]["value"] >= 0 for m in listed)
    if not trace:
        assert any(line.split()[:1] == ["op_tail_ms"] for line in lines)


def test_run_stops_before_overrunning_its_seconds():
    calls = []
    run._repeat(0.0, 3, lambda: calls.append(1))
    assert len(calls) == 3
    ticks = iter(range(100))
    clock, run.clock = run.clock, lambda: float(next(ticks))
    try:
        calls.clear()
        run._repeat(4.5, 1, lambda: calls.append(1))
    finally:
        run.clock = clock
    assert len(calls) == 4  # each call takes one tick; a fifth would end at 5


def test_probe_starts_no_collection():
    seen = []

    def note(phase, info):
        seen.append(phase)
    threshold = gc.get_threshold()
    gc.callbacks.append(note)
    gc.set_threshold(1)  # any tracked allocation would now collect
    try:
        hostspeed.probe()
    finally:
        gc.set_threshold(*threshold)
        gc.callbacks.remove(note)
    assert seen == []


def test_timed_scales_wall_time_by_the_probe(monkeypatch):
    monkeypatch.setattr(hostspeed, "probe", lambda: 2 * hostspeed.PROBE_S)
    out, wall, scaled = hostspeed.timed(lambda x: x + 1, 1)
    assert out == 2 and scaled == pytest.approx(wall / 2)
