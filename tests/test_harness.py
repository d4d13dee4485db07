"""Scenario running, reentrancy detection, and layout reports."""

import random

import pytest

from solsem.errors import SolsemError
from solsem.executor import Executor, Tx
from solsem.harness import (
    Scenario, detect_reentrancy, dump_layout, eval_readonly, parse_scenario,
    run_main_contract, run_scenario,
)
from solsem.parser import parse_expression
from solsem.state import World

from conftest import (
    contract_source, deploy, make_world, read, scenario_source,
    world_from_source,
)
from reentrancy_oracle import detect_reentrancy as oracle_detect_reentrancy


def _run(contract_file, scenario_file):
    world = make_world(contract_file)
    outcome = run_scenario(world, parse_scenario(scenario_source(scenario_file)))
    return world, outcome


# -- scenarios ----------------------------------------------------------------

def test_dao_scenario_drains_the_bank():
    world, outcome = _run("dao.sol", "dao.scn")
    assert not outcome.halted
    assert outcome.assertions_ok, [r for r in outcome.results if not r.ok]
    bank = outcome.handles["bank"]
    attack = outcome.handles["attack"]
    assert world.instance(bank).balance == 0
    assert world.instance(attack).balance == 12


def test_empty_scenario_changes_nothing():
    world = make_world("coin.sol")
    outcome = run_scenario(world, parse_scenario(scenario_source("empty.scn")))
    assert outcome.results == []
    assert world.instances == {}
    assert len(world.trace.events) == 0


def test_coin_scenario_matches_hand_simulation():
    # hand-simulated: mint 5 to B0B, B0B sends 3 to CA7 -> 2 and 3
    world, outcome = _run("coin.sol", "coin.scn")
    assert outcome.assertions_ok
    coin = outcome.handles["coin"]
    assert read(world, coin, "balances[0xB0B]") == 2
    assert read(world, coin, "balances[0xCA7]") == 3


def test_scenario_halts_on_hard_error():
    world = make_world("coin.sol")
    scn = parse_scenario("""
    deploy coin Coin () from 0xA
    tx coin.nosuch() from 0xA
    assert coin.balances[0xB] == 0
    """)
    outcome = run_scenario(world, scn)
    assert outcome.halted
    assert len(outcome.results) == 2  # the assert after the failure never ran
    assert not outcome.results[-1].ok


def test_assert_failures_are_recorded_not_fatal():
    world = make_world("coin.sol")
    scn = parse_scenario("""
    deploy coin Coin () from 0xA
    assert coin.balances[0xB] == 999
    assert coin.balances[0xB] == 0
    """)
    outcome = run_scenario(world, scn)
    assert not outcome.halted
    assert [r.ok for r in outcome.results] == [True, False, True]


def test_assert_rejects_calls():
    world = make_world("dao.sol")
    scn = parse_scenario("""
    deploy bank Bank () from 0xA
    assert bank.getUserBalance(0xB) == 0
    """)
    outcome = run_scenario(world, scn)
    assert not outcome.results[-1].ok
    assert "calls are not allowed" in outcome.results[-1].detail


def test_main_contract_mode():
    world = make_world("coverage.sol")
    outcome = run_main_contract(world)
    assert outcome.assertions_ok
    assert not outcome.halted
    main = outcome.handles["main"]
    assert read(world, main, "m2[7]") == 4
    assert read(world, main, "m2[8]") == 5
    assert read(world, main, "arr[1]") == 5
    assert read(world, main, "arr[2]") == 6
    assert read(world, main, "da[0]") == 41
    assert read(world, main, "da[1]") == 42
    assert read(world, main, "s.x") == 3
    assert read(world, main, "s.y") == 4
    assert read(world, main, "blob.big") == 9
    assert read(world, main, "blob.lanes[2]") == 11
    assert read(world, main, "flag") is True


def test_scenario_parse_errors_are_located():
    with pytest.raises(SolsemError) as exc:
        parse_scenario("deploy ???")
    assert "line 1" in str(exc.value)


# -- reentrancy detection -----------------------------------------------------------

def test_dao_detected_with_single_victim():
    world, outcome = _run("dao.sol", "dao.scn")
    findings = detect_reentrancy(world.trace.events)
    assert len(findings) >= 1
    victims = {(f.victim, f.fn) for f in findings}
    assert victims == {(outcome.handles["bank"], "withdraw")}
    f = findings[0]
    assert f.outer_seq < f.reentrant_seq
    assert f.writes_after
    assert f.path[0][1] == "withdrawBalance"


def test_fixed_bank_is_clean():
    world, outcome = _run("dao_fixed.sol", "dao_fixed.scn")
    assert outcome.assertions_ok
    findings = detect_reentrancy(world.trace.events)
    assert findings == []
    # drains at most the attacker's own 2 wei
    assert world.instance(outcome.handles["bank"]).balance == 10


def test_trace_without_external_calls_has_no_findings():
    world = make_world("coin.sol")
    outcome = run_scenario(world, parse_scenario(scenario_source("coin.scn")))
    assert outcome.assertions_ok
    assert detect_reentrancy(world.trace.events) == []


def test_depth_one_variant_detected():
    world = make_world("dao_depth1.sol")
    scn = parse_scenario("""
    deploy bank Bank () from 0xA value 10
    deploy attack Attack (bank) from 0xB value 2
    tx attack.addToBalance() from 0xB
    tx attack.withdrawBalance() from 0xB
    """)
    outcome = run_scenario(world, scn)
    assert not outcome.halted
    findings = detect_reentrancy(world.trace.events)
    assert len(findings) >= 1
    assert all(f.fn == "withdraw" for f in findings)
    # one reentrant level: 2 wei stolen on top of the attacker's own 2
    assert world.instance(outcome.handles["bank"]).balance == 8
    assert world.instance(outcome.handles["attack"]).balance == 4


def test_proxy_variant_detected_even_without_theft():
    world = make_world("dao_proxy.sol")
    scn = parse_scenario("""
    deploy bank Bank () from 0xA value 10
    deploy proxy Proxy (bank) from 0xB
    deploy attack Attack (bank, proxy) from 0xB value 2
    tx attack.addToBalance() from 0xB
    tx attack.withdrawBalance() from 0xB
    """)
    outcome = run_scenario(world, scn)
    assert not outcome.halted
    findings = detect_reentrancy(world.trace.events)
    assert len(findings) >= 1
    bank = outcome.handles["bank"]
    assert {(f.victim, f.fn) for f in findings} == {(bank, "withdraw")}
    # the proxy has no credit, so only the attacker's own deposit moved
    assert world.instance(bank).balance == 10


def _sibling_calls_world() -> World:
    # two sequential (not nested) calls into the same contract are benign
    world = world_from_source("""
    contract Emitter {
      Sink target;
      function Emitter(address a) { target = Sink(a); }
      function go() public { target.hit(); target.hit(); }
    }
    contract Sink {
      uint hits;
      function hit() public { hits = hits + 1; }
    }""")
    ex = Executor(world)
    sink = ex.deploy("Sink")
    emitter = ex.deploy("Emitter", args=(sink,))
    assert ex.run_transaction(Tx(sender=1, to=emitter, fname="go")).ok
    return world


def test_detector_ignores_sibling_calls_to_same_instance():
    assert detect_reentrancy(_sibling_calls_world().trace.events) == []


def _drain(ex: Executor, contract_file: str, bank_value: int):
    """Deploy a bank holding `bank_value` wei and an attacker with 2 wei,
    deposit the 2 wei, then run the drain; returns the drain's TxResult."""
    bank = ex.deploy("Bank", value=bank_value)
    args = (bank,)
    if contract_file == "dao_proxy.sol":
        args += (ex.deploy("Proxy", args=(bank,), sender=0xB),)
    attack = ex.deploy("Attack", args=args, sender=0xB, value=2)
    assert ex.run_transaction(Tx(sender=0xB, to=attack,
                                 fname="addToBalance")).ok
    return ex.run_transaction(Tx(sender=0xB, to=attack,
                                 fname="withdrawBalance"))


def _detector_traces():
    """(label, trace) pairs the one-pass detector is checked on."""
    for contract_file, scn_file in (("coin.sol", "coin.scn"),
                                    ("coin.sol", "empty.scn"),
                                    ("dao.sol", "dao.scn"),
                                    ("dao_fixed.sol", "dao_fixed.scn")):
        world, _ = _run(contract_file, scn_file)
        yield scn_file, world.trace
    world = make_world("coverage.sol")
    run_main_contract(world)
    yield "coverage.sol", world.trace
    for fixture, fname in (("test.sol", "foo"), ("test2.sol", "foo2"),
                           ("test3.sol", "foo3"), ("test4.sol", "foo4")):
        world = make_world(fixture)
        address = deploy(world, fixture[:-4].capitalize())
        Executor(world).run_transaction(Tx(sender=1, to=address, fname=fname))
        yield fixture, world.trace
    # several drains in one world; an odd bank value ends its drain on a
    # low-level call the bank cannot fund, which fails softly
    for contract_file in ("dao.sol", "dao_depth1.sol", "dao_proxy.sol"):
        for drains in range(1, 6):
            rng = random.Random(f"{contract_file}/{drains}")
            world = make_world(contract_file)
            ex = Executor(world)
            for _ in range(drains):
                assert _drain(ex, contract_file, rng.randrange(1, 25)).ok
            yield f"{contract_file} x{drains}", world.trace
    yield "sibling calls", _sibling_calls_world().trace
    # the victim binds a memory local after the reentrant call: only its
    # storage write counts
    world = world_from_source(contract_source("dao.sol").replace(
        "credit[msg.sender] -= amount;",
        "uint left = credit[msg.sender] - amount; credit[msg.sender] = left;"))
    assert _drain(Executor(world), "dao.sol", 6).ok
    yield "memory write after reentry", world.trace
    # a drain the Python stack cannot hold aborts mid-drain; the drain
    # after it in the same world succeeds
    world = make_world("dao.sol")
    ex = Executor(world)
    res = _drain(ex, "dao.sol", 10000)
    assert not res.ok and "stack limit" in str(res.error)
    assert _drain(ex, "dao.sol", 10).ok
    yield "stack-exhausting drain", world.trace


def test_one_pass_detector_matches_the_quadratic_oracle():
    found = 0
    soft_failures = 0
    for label, trace in _detector_traces():
        findings = detect_reentrancy(trace.events)
        assert findings == oracle_detect_reentrancy(trace.events), label
        found += len(findings)
        soft_failures += sum(e.rule == "WARN" and "low-level call failed"
                             in e.note for e in trace.events)
    assert found and soft_failures


# -- layout reports -----------------------------------------------------------------

def test_layout_of_test_contract():
    world = make_world("test.sol")
    address = deploy(world, "Test")
    rep = dump_layout(world, address)
    assert rep.lam == 64
    by_name = {v.name: v for v in rep.vars}
    assert (by_name["a"].slot, by_name["a"].offset, by_name["a"].size) == (0, 0, 16)
    assert (by_name["b"].slot, by_name["b"].offset, by_name["b"].size) == (1, 0, 32)


def test_layout_of_test2_spans_four_slots():
    world = make_world("test2.sol")
    address = deploy(world, "Test2")
    rep = dump_layout(world, address)
    assert rep.lam == 160
    b = {v.name: v for v in rep.vars}["b"]
    assert b.byte_addr == 32 and b.size == 128
    assert b.slot == 1 and (b.byte_addr + b.size) // 32 - 1 == 4
    assert b.value == [[1, 2, 3], [4, 5, 6]]


def test_layout_of_empty_contract():
    world = world_from_source("contract Empty { function f() public { } }")
    address = deploy(world, "Empty")
    rep = dump_layout(world, address)
    assert rep.vars == [] and rep.lam == 0 and rep.hashed_regions == []


def test_layout_includes_hashed_regions():
    world = make_world("test4.sol")
    address = deploy(world, "Test4")
    Executor(world).run_transaction(Tx(sender=1, to=address, fname="foo4"))
    rep = dump_layout(world, address)
    kinds = {r["kind"] for r in rep.hashed_regions}
    assert kinds == {"mapping"}
    keys = {r["key"] for r in rep.hashed_regions}
    assert keys == {"100", "200"}
    values = {r["value"] for r in rep.hashed_regions}
    assert values == {"10", "11"}


def test_layout_is_pure():
    world = make_world("test4.sol")
    address = deploy(world, "Test4")
    Executor(world).run_transaction(Tx(sender=1, to=address, fname="foo4"))
    before = world.storage_fingerprint()
    regions_before = dict(world.instance(address).config.storage.hashed)
    events_before = len(world.trace.events)
    dump_layout(world, address)
    assert world.storage_fingerprint() == before
    assert world.instance(address).config.storage.hashed == regions_before
    assert len(world.trace.events) == events_before


def test_assert_read_of_an_unseen_key_changes_no_state():
    world = make_world("coin.sol")
    coin = deploy(world, "Coin")
    before = world.storage_fingerprint()
    assert eval_readonly(world, coin, parse_expression("balances[0xB]")) == 0
    assert world.storage_fingerprint() == before
    assert world.journal == []


def test_an_assert_leaves_the_trace_alone_with_labels_pending():
    # the assert compiles against a trace of its own: the world's log, its
    # pending labels and its storage are as they were
    world = make_world("coin.sol")
    coin = deploy(world, "Coin")
    trace = world.trace
    trace.rules(("SEQ",))

    def state():
        return (len(trace), len(trace._log), list(trace._pending),
                world.storage_fingerprint())
    before = state()
    assert before[2] == ["SEQ"]
    assert eval_readonly(world, coin, parse_expression("balances[0xB] + 1")) \
        == 1
    assert state() == before


# -- determinism ----------------------------------------------------------------------

def test_identical_scenarios_yield_identical_traces():
    def trace_text():
        world, _ = _run("dao.sol", "dao.scn")
        return world.trace.to_ndjson()
    assert trace_text() == trace_text()


def test_external_frames_open_with_a_call_marker():
    # the E-FUN1/E-FUN2 event precedes every event of its callee frame
    world, _ = _run("dao.sol", "dao.scn")
    first_rule_by_frame = {}
    for e in world.trace.events:
        if e.frame is not None and e.frame not in first_rule_by_frame:
            first_rule_by_frame[e.frame] = e.rule
    assert first_rule_by_frame
    assert set(first_rule_by_frame.values()) <= {"TX-START", "E-FUN1", "E-FUN2"}


def test_handles_resolve_in_sender_and_arg_positions():
    world = make_world("dao.sol", "coverage.sol")
    scn = parse_scenario("""
    deploy bank Bank () from 0xA value 4
    deploy attack Attack (bank) from 0xB value 2
    # a handle used as the tx sender resolves to the instance address
    tx bank.deposit() from attack value 0
    assert bank.credit[attack] == 0
    deploy main Main () from 0xA
    tx main.main() from 0xA
    # every non-call expression kind, with handles nested deep inside
    assert main.(!(s.x + arr[da.length - 1] * m2[bank - bank + 7] > 24 - -(-1)) != !flag) && true == true
    # a call nested as deep is still found and rejected
    assert main.!(s.x + arr[da.length - helper(1)] > 0) == true
    """)
    outcome = run_scenario(world, scn)
    assert not outcome.halted
    assert [r.ok for r in outcome.results] == [True] * 7 + [False]
    assert "calls are not allowed" in outcome.results[-1].detail


# the handles are bank 0x1000, attack 0x1001 (4097) and main; bank holds 4
# wei, and main() leaves s.x == 3
_PINNED_SETUP = """
deploy bank Bank () from 0xA value 4
deploy attack Attack (bank) from 0xB value 2
tx bank.deposit() from attack value 0
deploy main Main () from 0xA
tx main.main() from 0xA
"""


@pytest.mark.parametrize("line, expected", [
    # a handle is a value, not a place
    ("bank.attack[0] == 0", (False, "expression is not addressable")),
    ("bank.attack.x == 0", (False, "expression is not addressable")),
    ("bank.attack.length == 0", (False, "expression is not addressable")),
    # only a non-negative literal stands for an address key
    ("bank.credit[-attack] == 0",
     (False, "mapping key must be address, got uint256")),
    ("bank.credit[attack + 0] == 0",
     (False, "mapping key must be address, got uint256")),
    ("bank.credit[-5] == 0",
     (False, "mapping key must be address, got uint256")),
    ("bank.credit[0x5] == 0", (True, "")),
    ("bank.-attack == -4097", (True, "")),
    ("bank.attack - attack + 7 == 7", (True, "")),
    ("bank.balance == 4", (True, "")),
    # `balance` is a named constant, so it works inside an expression too
    ("bank.balance + 1 == 5", (True, "")),
    ("main.s.x == 3", (True, "")),
    # `-(-5)` is not a literal; `x + -5` wraps at uint256, not int256
    ("main.s.x + -(-5) == 8", (True, "")),
    (f"main.s.x + -5 == {(1 << 256) - 2}", (True, "")),
])
def test_asserts_read_handles_and_literals(line, expected):
    world = make_world("dao.sol", "coverage.sol")
    outcome = run_scenario(world, parse_scenario(
        f"{_PINNED_SETUP}assert {line}\n"))
    assert not outcome.halted
    result = outcome.results[-1]
    assert (result.ok, result.detail) == expected


def test_two_instances_in_one_world_have_identical_storage():
    world = make_world("test2.sol")
    a1 = deploy(world, "Test2")
    a2 = deploy(world, "Test2")
    s1 = world.instance(a1).config.storage
    s2 = world.instance(a2).config.storage
    assert s1.bytes == s2.bytes
    r1, r2 = dump_layout(world, a1), dump_layout(world, a2)
    assert r1.lam == r2.lam
    assert [(v.name, v.byte_addr) for v in r1.vars] == \
        [(v.name, v.byte_addr) for v in r2.vars]
