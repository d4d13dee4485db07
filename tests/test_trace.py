"""The NDJSON trace writer against the dict-building encoder it replaced,
the event contract `Trace.emit` keeps, and the log of RuleRuns against
the consumers' oracles over its expansion."""

import copy
import json
import sys

import pytest
from hypothesis import given, settings, strategies as st

import solsem.trace

from solsem.errors import TxAborted
from solsem.executor import Executor, Tx
from solsem.harness import (
    detect_reentrancy, eval_readonly, parse_scenario, run_main_contract,
    run_scenario,
)
from solsem.parser import parse_expression
from solsem.trace import (
    CallInfo, RuleRun, Trace, TraceEvent, Write, committed, expand,
    replay_storage_writes,
)

from conftest import CLI_RUNS, deploy, make_world, python_calls, \
    scenario_source, world_from_source
from ndjson_oracle import event_to_json
from reentrancy_oracle import detect_reentrancy as oracle_detect_reentrancy

# a transfer to a contract without a fallback (WARN with value and note)
# and an unfunded one (WARN with a note); a bool value or gas only reaches
# the writer through a library Tx, which the drawn events below cover
_PAYER = """
contract Sink { uint x; }
contract Payer {
    function pay(address to, uint m) public { to.call.value(m)(); }
}
"""


def _oracle_ndjson(events) -> str:
    return "".join(json.dumps(event_to_json(ev), sort_keys=True) + "\n"
                   for ev in events)


def _traces():
    """(label, trace) pairs the writer is checked on."""
    for contract_file, scn_file in CLI_RUNS:
        world = make_world(contract_file)
        if scn_file is None:
            run_main_contract(world)
        else:
            run_scenario(world, parse_scenario(scenario_source(scn_file)))
        yield f"{contract_file} {scn_file}", world.trace
    world = make_world("coin.sol")
    coin = deploy(world, "Coin")
    res = Executor(world).run_transaction(Tx(sender=1, to=coin,
                                             fname="nosuch"))
    assert not res.ok and world.trace.events[-1].note
    yield "aborted tx", world.trace
    world = world_from_source(_PAYER)
    ex = Executor(world)
    sink = deploy(world, "Sink")
    payer = deploy(world, "Payer", value=5)
    for m in (3, 100):
        assert ex.run_transaction(Tx(sender=1, to=payer, fname="pay",
                                     args=(sink, m))).ok
    warns = [ev for ev in world.trace.events if ev.rule == "WARN"]
    assert [ev.value for ev in warns] == [3, None]
    assert all(ev.note for ev in warns)
    yield "transfers", world.trace


_chars = st.one_of(st.characters(),
                   st.sampled_from('"\\/\x00\x08\x1f\x7f\xe9\u2028\u2029'
                                   '\ud800\udfff\U0001f600'))
_strings = st.text(_chars, max_size=8)
_ints = st.integers(min_value=0, max_value=(1 << 256) - 1)
_opt_ints = st.one_of(st.none(), st.just(0), _ints)
_opt_amounts = st.one_of(_opt_ints, st.booleans())  # value and gas
# a few shared values, so that lines share their (addr, fn, frame) head
_addrs = st.one_of(st.sampled_from((None, 0, 0x1000)), _ints)
_fns = st.one_of(st.sampled_from((None, "", "f")), _strings)
_frames = st.one_of(st.sampled_from((None, 0, 3)), _ints)

_writes = st.builds(Write, space=_strings, at=_ints,
                    data=st.binary(max_size=40))
_calls = st.builds(
    CallInfo, kind=_strings, to=_opt_ints,
    fn=st.one_of(st.none(), _strings),
    args=st.one_of(st.just(()), st.lists(
        st.one_of(_ints, st.booleans(), _strings), min_size=1,
        max_size=3).map(tuple)),
    value=_opt_amounts, gas=_opt_amounts)
_runs = st.builds(RuleRun, seq=_ints, rules=st.lists(_strings, max_size=4)
                  .map(tuple), addr=_addrs, fn=_fns, frame=_frames)


def _swaps(x) -> list:
    """The values equal to x that print apart from it (`True == 1.0 == 1`)."""
    if type(x) is bool:
        return [int(x), float(x)]
    if type(x) is int:
        return [bool(x)] * (x in (0, 1)) + [float(x)] * (float(x) == x)
    return []


def _twins(call: CallInfo) -> list:
    """`call` with one argument, its value or its gas swapped for an equal
    value that prints apart: each twin equals `call`."""
    args = call.args
    return [call._replace(args=args[:i] + (y,) + args[i + 1:])
            for i, x in enumerate(args) for y in _swaps(x)] + \
        [call._replace(value=y) for y in _swaps(call.value)] + \
        [call._replace(gas=y) for y in _swaps(call.gas)]


@st.composite
def _entry_lists(draw):
    """Up to 6 entries; an event's call is None, a fresh CallInfo, or one of
    a few shared ones or their twins, so that equal calls recur."""
    shared = draw(st.lists(_calls, min_size=1, max_size=2))
    shared += [twin for call in shared for twin in _twins(call)]
    events = st.builds(
        TraceEvent, seq=_ints, rule=_strings, addr=_addrs, fn=_fns,
        frame=_frames,
        writes=st.one_of(st.just(()), st.lists(_writes, max_size=3)),
        call=st.one_of(st.none(), _calls, st.sampled_from(shared)),
        value=_opt_amounts, omega=_opt_ints,
        note=st.one_of(st.none(), _strings))
    return draw(st.lists(st.one_of(events, _runs), max_size=6))


@settings(max_examples=300, deadline=None)
@given(_entry_lists())
def _drawn_entries_match(entries):
    trace = Trace()
    trace.events.extend(entries)
    assert trace.to_ndjson() == _oracle_ndjson(expand(entries))


def test_ndjson_matches_the_dict_oracle():
    for label, trace in _traces():
        assert trace.to_ndjson() == _oracle_ndjson(expand(trace.events)), \
            label
    _drawn_entries_match()


@pytest.mark.parametrize("first, second", [(True, 1), (1, True), (False, 0),
                                           (0, False), (1.0, 1)])
def test_equal_calls_that_print_apart_are_each_encoded(first, second):
    # CallInfo equality takes True and 1.0 for 1, but they print
    # differently, so the writer's call fragments must not hand one the
    # other's encoding
    for field in ("args", "value", "gas"):
        calls = [CallInfo("tx", 0x10, "f", **{
            field: (v,) if field == "args" else v}) for v in (first, second)]
        assert calls[0] == calls[1]
        trace = Trace()
        trace.events.extend(TraceEvent(seq, "TX-START", 0x10, "f", 7, (), call)
                            for seq, call in enumerate(calls, 1))
        assert trace.to_ndjson() == _oracle_ndjson(trace.events), field


def test_library_txs_with_a_float_value_or_a_list_argument_are_written():
    # a library Tx may carry any value: 1.0 == 1 (the bracket aborts it, but
    # its TX-START logs it), and a list argument makes its CallInfo unhashable
    world = make_world("coin.sol")
    coin = deploy(world, "Coin", sender=0xA)
    ex = Executor(world)
    with pytest.raises(TypeError):  # rolled back; its TX-START is logged
        ex.run_transaction(Tx(sender=0xA, to=coin, fname="mint",
                              args=([1], 2)))
    assert [ex.run_transaction(Tx(sender=0xA, to=coin, fname="mint",
                                  args=(0xB, 2), value=value)).ok
            for value in (1.0, 1)] == [False, True]
    trace = world.trace
    assert trace.to_ndjson() == _oracle_ndjson(expand(trace.events))


def test_a_rule_run_with_no_labels_writes_no_line():
    trace = Trace()
    trace.events.extend([RuleRun(1, (), 0x10, "f", 7),
                         TraceEvent(1, "TX-END", 0x10, "f", 7),
                         RuleRun(2, (), None, None, None)])
    assert trace.to_ndjson() == _oracle_ndjson(expand(trace.events)) == (
        '{"addr": "0x10", "fn": "f", "frame": 7, "rule": "TX-END", '
        '"seq": 1, "writes": []}\n')


def _drain(bank_value: int):
    """The world of a DAO drain of a bank holding `bank_value` wei: an
    attacker's deposit of 2, then (bank_value + 2) // 2 nested withdraws."""
    world = make_world("dao.sol")
    ex = Executor(world)
    bank = ex.deploy("Bank", value=bank_value)
    attack = ex.deploy("Attack", args=(bank,), sender=0xB, value=2)
    for fname in ("addToBalance", "withdrawBalance"):
        assert ex.run_transaction(Tx(sender=0xB, to=attack, fname=fname)).ok
    return world


def test_a_51_level_drain_matches_the_dict_oracle():
    # every level repeats the same four calls, so most call fragments the
    # writer encodes are reused across levels
    trace = _drain(100).trace
    calls = [ev.call for ev in trace.events if ev.call is not None]
    assert sum(ev.rule == "E-FUN2" for ev in trace.events) == 51
    assert (len(calls), len(set(calls))) == (215, 13)
    assert trace.to_ndjson() == _oracle_ndjson(expand(trace.events))


@pytest.mark.skipif(sys.implementation.name != "cpython"
                    or sys.version_info[:2] != (3, 11),
                    reason="call counts are pinned for CPython 3.11")
def test_python_calls_of_the_writer_on_the_dao_scenario():
    # pinned exactly: a helper called per line or per entry moves it, and
    # says so in CHANGES.md
    world = make_world("dao.sol")
    run_scenario(world, parse_scenario(scenario_source("dao.scn")))
    trace = world.trace
    trace.events  # the pending labels are logged before the count
    assert python_calls(trace.to_ndjson) == WRITER_CALLS


WRITER_CALLS = 94


def test_an_event_keeps_its_writes_list_or_the_shared_empty_tuple():
    trace = Trace()
    trace.rules(("Type3",))
    assert trace.emit("TX-END").writes == ()
    ws = [Write("storage", 0x20, b"\x01")]
    assert trace.emit("ASSIGN", writes=ws).writes is ws
    assert trace.events[0].writes == ()  # the RuleRun of Type3
    assert [(ev.seq, ev.rule) for ev in expand(trace.events)] == [
        (1, "Type3"), (2, "TX-END"), (3, "ASSIGN")]


def test_a_copied_trace_applies_rules_to_its_own_pending_labels():
    trace = Trace()
    trace.rules(("Type3",))
    copied = copy.deepcopy(trace)
    copied.rules(("SEQ",))
    assert (trace._pending, copied._pending) == (["Type3"], ["Type3", "SEQ"])


def test_pure_labels_a_callee_applies_last_are_logged_in_its_context():
    # g's last rule is the COND2 of an if with no else: it is still pending
    # when g returns, and is logged as g's, before f's next event
    world = world_from_source("""
    contract C {
      uint x; uint y;
      function g() internal { if (y == 1) { x = 2; } }
      function f() public { g(); x = 3; } }""")
    address = deploy(world, "C")
    res = Executor(world).run_transaction(Tx(sender=1, to=address, fname="f"))
    assert res.ok
    events = list(expand(res.events))
    [cond] = [ev for ev in events if ev.rule == "COND2"]
    [assign] = [ev for ev in events if ev.rule == "ASSIGN"]
    assert (cond.fn, assign.fn) == ("g", "f") and cond.seq < assign.seq


def _context(trace) -> tuple:
    """The innermost (addr, fn, frame), read off an event logged in it."""
    ev = trace.emit("WARN")
    return ev.addr, ev.fn, ev.frame


def test_frame_edges_log_as_a_push_and_emit_and_an_emit_and_pop():
    trace = Trace()
    trace.rules(("SEQ", "E-RV"))
    tx = CallInfo("tx", 0x10, "f", (1,), 3, 0)
    trace.enter("TX-START", 0x10, "f", 7, tx, 3)
    # the pending labels are one RuleRun in the caller's context, then the
    # opening event is logged in the new one
    assert trace.events == [RuleRun(1, ("SEQ", "E-RV"), None, None, None),
                            TraceEvent(3, "TX-START", 0x10, "f", 7, (), tx, 3)]
    assert trace.depth == 2
    internal = CallInfo("internal", 0x10, "g", (), None, None)
    trace.enter("I-FUN", 0x10, "g", None, internal)  # inherits frame 7
    assert trace.events[-1] == TraceEvent(4, "I-FUN", 0x10, "g", 7, (),
                                          internal)
    trace.rules(("COND2",))
    trace.leave()  # g's pending label is logged as g's; no event
    assert trace.events[-1] == RuleRun(5, ("COND2",), 0x10, "g", 7)
    assert (trace.depth, _context(trace)) == (2, (0x10, "f", 7))
    external = CallInfo("external", 0x20, "h", (), 0, 0)
    trace.enter("E-FUN1", 0x20, "h", 8, external, 0, 1)
    trace.rules(("SEQ",))
    trace.leave("SKIP2", omega=0)  # logged in the callee's context
    assert trace.events[-2:] == [
        RuleRun(8, ("SEQ",), 0x20, "h", 8),
        TraceEvent(9, "SKIP2", 0x20, "h", 8, omega=0)]
    assert (trace.depth, _context(trace)) == (2, (0x10, "f", 7))


def test_unwind_after_a_failed_enter_restores_the_depth(monkeypatch):
    trace = Trace()
    depth = trace.depth

    def failing(*args):
        raise RuntimeError("no event")
    monkeypatch.setattr(solsem.trace, "TraceEvent", failing)
    with pytest.raises(RuntimeError):
        trace.enter("E-FUN1", 0x20, "h", 8, None)
    monkeypatch.undo()
    trace.unwind(depth)
    assert (trace.depth, _context(trace)) == (depth, (None, None, None))


# -- the log of RuleRuns against the consumers' oracles ----------------------------

_USERS = (0xA, 0xB, 0xC)
_coin_txs = st.lists(st.tuples(
    st.sampled_from(("mint", "send")), st.sampled_from(_USERS),
    st.sampled_from(_USERS), st.integers(0, 30),
    st.one_of(st.none(), st.integers(1, 6)),  # the statement that faults
    st.booleans()), max_size=10)  # an assert's read after the tx


def _check_log(world, deployed, results) -> None:
    """`deployed` is the log as the deploys left it; `results` holds the
    TxResult of every transaction after them."""
    trace = world.trace
    entries = trace.events
    assert list(committed(entries)) == deployed + [
        ev for res in results if res.ok for ev in res.events]
    events = list(expand(entries))
    assert [ev.seq for ev in events] == list(range(1, len(trace) + 1))
    assert trace.to_ndjson() == _oracle_ndjson(events)
    assert detect_reentrancy(entries) == oracle_detect_reentrancy(events)
    replayed = replay_storage_writes(entries)
    for address, inst in world.instances.items():
        assert replayed.get(address, {}) == inst.config.storage.bytes


@settings(max_examples=50, deadline=None)
@given(_coin_txs, st.integers(0, 30))
def _random_logs_match_the_oracles(txs, bank_value):
    world = make_world("coin.sol")
    coin = deploy(world, "Coin", sender=0xA)
    deployed, results = list(world.trace.events), []
    ex = Executor(world)
    read = parse_expression("balances[0xB]")
    for fname, sender, to, amount, fault, peek in txs:
        def hook(w, step, fault=fault):
            if step == fault:
                raise TxAborted("injected fault")
        world.options.step_hook = hook if fault else None
        results.append(ex.run_transaction(Tx(sender=sender, to=coin,
                                             fname=fname, args=(to, amount))))
        if peek:  # an assert's labels go to a trace of its own
            n, entries = len(world.trace), len(world.trace.events)
            eval_readonly(world, coin, read)
            assert (len(world.trace), len(world.trace.events)) == (n, entries)
    _check_log(world, deployed, results)
    world = make_world("dao.sol")
    ex = Executor(world)
    bank = ex.deploy("Bank", value=bank_value)
    attack = ex.deploy("Attack", args=(bank,), sender=0xB, value=2)
    deployed = list(world.trace.events)
    results = [ex.run_transaction(Tx(sender=0xB, to=attack, fname=fname))
               for fname in ("addToBalance", "withdrawBalance")]
    assert all(res.ok for res in results)
    assert world.instance(bank).balance == bank_value % 2
    _check_log(world, deployed, results)


def test_the_log_reads_as_its_expanded_events():
    _random_logs_match_the_oracles()


def test_a_transaction_still_running_is_not_committed():
    world = make_world("coin.sol")
    coin = deploy(world, "Coin", sender=0xA)
    ex = Executor(world)
    first = ex.run_transaction(Tx(sender=0xA, to=coin, fname="mint",
                                  args=(0xB, 5)))
    committed_before = list(world.trace.events)
    seen = []

    def hook(w, step):  # before the send's last statement: one write made
        if step == 3:
            entries = w.trace.events
            seen.append((list(committed(entries)),
                         entries[len(committed_before)].rule,
                         replay_storage_writes(entries),
                         dict(w.instance(coin).config.storage.bytes)))
    world.options.step_hook = hook
    assert ex.run_transaction(Tx(sender=0xB, to=coin, fname="send",
                                 args=(0xC, 2))).ok
    [(entries, opened, replayed, storage)] = seen
    # the open slice is in the log, from its TX-START on, but not committed
    assert first.ok and entries == committed_before and opened == "TX-START"
    # the replay leaves out the open slice's write to balances[0xB]
    assert replayed[coin] == replay_storage_writes(committed_before)[coin] \
        != storage
