"""Acceptance criteria, one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s`. Every expected value here
is either taken from the narrative outcomes the fixtures are built around,
computed by an independent oracle in this repository (keccak_oracle,
packing_oracle, hand-written models), or is a frozen published constant.
"""

import random
import time
from collections import defaultdict

from solsem import typesys
from solsem.errors import SolsemError
from solsem.evaluator import read_value
from solsem.executor import Executor, Tx
from solsem.harness import detect_reentrancy, dump_layout, eval_readonly, \
    parse_scenario, run_scenario, run_main_contract
from solsem.parser import parse_expression
from solsem.state import decode_value, encode_value
from solsem.typesys import Address, Bool, Int256, UInt

from conftest import deploy, make_world, scenario_source
from keccak_oracle import keccak256_oracle_int
from packing_oracle import all_field_lists, place_fields

U128, U256 = UInt(128), UInt(256)

# keccak256(bytes32(0)), pre-computed with the reference implementation
FROZEN_SLOT0_HASH = int(
    "290decd9548b62a8d60345a988386fc84ba6bc95484008f6362f93160ef3e563", 16)


def _timed(budget_s):
    start = time.perf_counter()

    def check():
        elapsed = time.perf_counter() - start
        assert elapsed < budget_s, f"{elapsed:.3f}s exceeds {budget_s}s budget"
        return elapsed

    return check


def _read(world, address, text):
    return eval_readonly(world, address, parse_expression(text))


def test_criterion_1_layout_and_aliasing():
    done = _timed(1.0)
    world = make_world("test.sol")
    address = deploy(world, "Test")
    rep = dump_layout(world, address)
    byname = {v.name: v for v in rep.vars}
    assert (byname["a"].byte_addr, byname["a"].size) == (0, 16)
    assert (byname["b"].byte_addr, byname["b"].size) == (32, 32)
    assert rep.lam == 64
    assert Executor(world).run_transaction(
        Tx(sender=1, to=address, fname="foo")).ok
    assert _read(world, address, "a") == 0
    assert _read(world, address, "b") == 8
    elapsed = done()
    print(f"\nACCEPTANCE 1 PASS: Test layout a@0/16 b@32/32 lambda=64; "
          f"after foo(): a=0 b=8  [{elapsed:.3f}s < 1s]")


def test_criterion_2_two_dimensional_aliasing():
    done = _timed(1.0)
    world = make_world("test2.sol")
    address = deploy(world, "Test2")
    rep = dump_layout(world, address)
    byname = {v.name: v for v in rep.vars}
    assert rep.lam == 160
    b = byname["b"]
    assert b.byte_addr == 32 and b.byte_addr + b.size == 160  # slots 1..4
    assert b.value == [[1, 2, 3], [4, 5, 6]]
    assert Executor(world).run_transaction(
        Tx(sender=1, to=address, fname="foo2")).ok
    config = world.instance(address).config
    decoded = read_value(world, config, typesys.STORAGE, 32,
                         typesys.StaticArray(typesys.StaticArray(U128, 3), 2))
    assert decoded == [[0, 10, 0], [4, 5, 6]]
    elapsed = done()
    print(f"\nACCEPTANCE 2 PASS: Test2 lambda=160, b slots 1-4 "
          f"[[1,2,3],[4,5,6]]; after foo2(): [[0,10,0],[4,5,6]]  "
          f"[{elapsed:.3f}s < 1s]")


def test_criterion_3_dynamic_array_hash_addressing():
    done = _timed(1.0)
    world = make_world("test3.sol")
    address = deploy(world, "Test3")
    assert Executor(world).run_transaction(
        Tx(sender=1, to=address, fname="foo3")).ok
    storage = world.instance(address).config.storage
    assert decode_value(storage.read(0, 32), U256) == 2  # base slot length
    slot = keccak256_oracle_int(bytes(32))  # independent oracle
    assert slot == FROZEN_SLOT0_HASH  # the oracle itself is pinned
    assert decode_value(storage.read(slot * 32, 32), U256) == 10
    assert decode_value(storage.read((slot + 1) * 32, 32), U256) == 11
    elapsed = done()
    print(f"\nACCEPTANCE 3 PASS: base slot=2; a[0]=10 a[1]=11 at "
          f"keccak256(bytes32(0)) and +1, cross-checked against the "
          f"independent keccak oracle  [{elapsed:.3f}s < 1s]")


def test_criterion_4_mapping_hash_addressing():
    done = _timed(1.0)
    world = make_world("test4.sol")
    address = deploy(world, "Test4")
    assert Executor(world).run_transaction(
        Tx(sender=1, to=address, fname="foo4")).ok
    storage = world.instance(address).config.storage
    # base slot first, then the key, each padded to 32 bytes
    s100 = keccak256_oracle_int((0).to_bytes(32, "big") +
                                (100).to_bytes(32, "big"))
    s200 = keccak256_oracle_int((0).to_bytes(32, "big") +
                                (200).to_bytes(32, "big"))
    assert decode_value(storage.read(s100 * 32, 32), U256) == 10
    assert decode_value(storage.read(s200 * 32, 32), U256) == 11
    assert _read(world, address, "m[100]") == 10
    assert _read(world, address, "m[200]") == 11
    assert _read(world, address, "m[300]") == 0  # unwritten key
    elapsed = done()
    print(f"\nACCEPTANCE 4 PASS: m[100]=10 m[200]=11 at "
          f"keccak256(bytes32(p)||bytes32(k)); m[300]=0  [{elapsed:.3f}s < 1s]")


def test_criterion_5_coin_end_to_end():
    done = _timed(1.0)
    S, R, R2, OTHER = 0x5EED, 0xB0B, 0xCA7, 0xBAD
    world = make_world("coin.sol")
    address = deploy(world, "Coin", sender=S)
    ex = Executor(world)
    assert ex.run_transaction(Tx(sender=S, to=address, fname="mint",
                                 args=(R, 5))).ok
    assert _read(world, address, f"balances[{R}]") == 5
    assert ex.run_transaction(Tx(sender=OTHER, to=address, fname="mint",
                                 args=(R, 5))).ok
    assert _read(world, address, f"balances[{R}]") == 5  # guard held
    assert ex.run_transaction(Tx(sender=R, to=address, fname="send",
                                 args=(R2, 3))).ok
    assert _read(world, address, f"balances[{R}]") == 2
    assert _read(world, address, f"balances[{R2}]") == 3
    assert ex.run_transaction(Tx(sender=R, to=address, fname="send",
                                 args=(R2, 99))).ok
    assert _read(world, address, f"balances[{R}]") == 2  # overdraft guard
    assert _read(world, address, f"balances[{R2}]") == 3
    elapsed = done()
    print(f"\nACCEPTANCE 5 PASS: mint(R,5)=5; non-minter mint unchanged; "
          f"send(R2,3) -> 2/3; overdraft unchanged  [{elapsed:.3f}s < 1s]")


def test_criterion_6_dao_reproduction_and_detection():
    done = _timed(2.0)
    world = make_world("dao.sol")
    outcome = run_scenario(world, parse_scenario(scenario_source("dao.scn")))
    assert not outcome.halted and outcome.assertions_ok
    bank = outcome.handles["bank"]
    attack = outcome.handles["attack"]
    omegas = [e.omega for e in world.trace.events
              if e.addr == bank and e.omega is not None]
    assert max(omegas) >= 2  # nested frames on the victim
    assert world.instance(bank).balance == 0
    findings = detect_reentrancy(world.trace.events)
    assert len(findings) >= 1
    assert {(f.victim, f.fn) for f in findings} == {(bank, "withdraw")}

    fixed = make_world("dao_fixed.sol")
    fixed_out = run_scenario(fixed,
                             parse_scenario(scenario_source("dao_fixed.scn")))
    assert not fixed_out.halted and fixed_out.assertions_ok
    assert detect_reentrancy(fixed.trace.events) == []
    fixed_bank = fixed_out.handles["bank"]
    assert fixed.instance(fixed_bank).balance == 10  # only the 2 wei moved
    assert world.instance(attack).balance == 12
    elapsed = done()
    print(f"\nACCEPTANCE 6 PASS: vulnerable Bank drained to 0 with omega "
          f"depth >= 2 and {len(findings)} finding(s) on Bank.withdraw; "
          f"fixed Bank clean, keeps 10 wei  [{elapsed:.3f}s < 2s]")


def test_criterion_7a_packing_oracle_equivalence():
    starts = (0, 1, 5, 15, 16, 17, 20, 31, 32, 33, 48, 63, 64)
    cases = 0
    for fields in all_field_lists(4):
        for start in starts:
            assert typesys.size_packed(start, list(fields)) == \
                place_fields(start, fields)
            cases += 1
    assert cases >= 10_000
    print(f"\nACCEPTANCE 7a PASS: size/alignment oracle equivalence over "
          f"{cases} cases (all <=4-field primitive structs x {len(starts)} "
          f"start offsets), 100% agreement")


def test_criterion_7b_encode_decode_roundtrip():
    rng = random.Random(2024)
    types = [UInt(8), UInt(16), UInt(32), UInt(64), U128, U256, Bool(),
             Address(), Int256()]
    cases = 0
    for _ in range(1000):
        t = rng.choice(types)
        if isinstance(t, Bool):
            v = rng.random() < 0.5
        elif isinstance(t, Int256):
            v = rng.randrange(-(1 << 255), 1 << 255)
        elif isinstance(t, Address):
            v = rng.randrange(0, 1 << 160)
        else:
            v = rng.randrange(0, 1 << t.width)
        assert decode_value(encode_value(v, t), t) == v
        cases += 1
    assert cases == 1000
    print(f"\nACCEPTANCE 7b PASS: encode/decode round-trip on {cases} random "
          f"(value, type) pairs, 100%")


class _InjectedFault(SolsemError):
    pass


def _run_scenario_actions(world, scenario, upto=None):
    """Run scenario deploy/tx actions (asserts skipped); returns per-action
    step counts."""
    from solsem.harness import DeployAction, TxAction
    ex = Executor(world)
    handles = {}
    steps = []
    actions = [a for a in scenario.actions
               if isinstance(a, (DeployAction, TxAction))]
    if upto is not None:
        actions = actions[:upto]
    for action in actions:
        def resolve(v):
            from solsem.harness import HandleRef
            return handles[v.name] if isinstance(v, HandleRef) else v
        if isinstance(action, DeployAction):
            handles[action.handle] = ex.deploy(
                action.contract, args=[resolve(a) for a in action.args],
                sender=resolve(action.sender), value=action.value)
            steps.append(world.stmt_steps)
        else:
            res = ex.run_transaction(Tx(
                sender=resolve(action.sender), to=handles[action.handle],
                fname=action.fname,
                args=tuple(resolve(a) for a in action.args),
                value=action.value, gas=action.gas))
            assert res.ok, res.error
            steps.append(res.steps)
    return handles, steps


def test_criterion_7c_atomicity_under_injected_faults():
    from solsem.harness import DeployAction, HandleRef, TxAction
    checked = 0
    for contract_file, scn_file in (("dao.sol", "dao.scn"),
                                    ("coin.sol", "coin.scn")):
        scenario = parse_scenario(scenario_source(scn_file))
        actions = [a for a in scenario.actions
                   if isinstance(a, (DeployAction, TxAction))]
        profile_world = make_world(contract_file)
        _, step_counts = _run_scenario_actions(profile_world, scenario)
        for k, n_steps in enumerate(step_counts):
            for fault_step in range(1, n_steps + 1):
                world = make_world(contract_file)
                handles, _ = _run_scenario_actions(world, scenario, upto=k)
                before = world.storage_fingerprint()

                def hook(w, step, fault_at=fault_step):
                    if step == fault_at:
                        raise _InjectedFault("injected fault")

                def resolve(v):
                    return handles[v.name] if isinstance(v, HandleRef) else v

                world.options.step_hook = hook
                ex = Executor(world)
                action = actions[k]
                try:
                    if isinstance(action, DeployAction):
                        failed = False
                        try:
                            ex.deploy(action.contract,
                                      args=[resolve(a) for a in action.args],
                                      sender=resolve(action.sender),
                                      value=action.value)
                        except SolsemError:
                            failed = True
                    else:
                        res = ex.run_transaction(Tx(
                            sender=resolve(action.sender),
                            to=handles[action.handle], fname=action.fname,
                            args=tuple(resolve(a) for a in action.args),
                            value=action.value, gas=action.gas))
                        failed = not res.ok
                finally:
                    world.options.step_hook = None
                assert failed, (contract_file, k, fault_step)
                assert world.storage_fingerprint() == before, \
                    (contract_file, k, fault_step)
                checked += 1
    assert checked > 30  # every statement of every action is a fault point
    print(f"\nACCEPTANCE 7c PASS: post-abort world byte-equal to pre-state "
          f"at all {checked} injected fault points in the DAO and Coin "
          f"fixtures, 100%")


def test_criterion_7d_randomized_coin_sequences():
    rng = random.Random(424242)
    MINTER = 0xA0
    USERS = [0xA0, 0xB1, 0xC2, 0xD3]
    sequences = 200
    for _ in range(sequences):
        world = make_world("coin.sol")
        ex = Executor(world)
        address = ex.deploy("Coin", sender=MINTER)
        model = defaultdict(int)
        injected = 0
        for _ in range(rng.randrange(3, 8)):
            value = rng.randrange(0, 3)
            if rng.random() < 0.5:
                sender = rng.choice(USERS)
                receiver = rng.choice(USERS)
                amount = rng.randrange(0, 10)
                res = ex.run_transaction(Tx(sender=sender, to=address,
                                            fname="mint",
                                            args=(receiver, amount),
                                            value=value))
                if sender == MINTER:
                    model[receiver] += amount
            else:
                sender = rng.choice(USERS)
                receiver = rng.choice(USERS)
                amount = rng.randrange(0, 8)
                res = ex.run_transaction(Tx(sender=sender, to=address,
                                            fname="send",
                                            args=(receiver, amount),
                                            value=value))
                if model[sender] >= amount:
                    model[sender] -= amount
                    model[receiver] += amount
            assert res.ok
            injected += value
            config = world.instance(address).config
            # scope and omega balance after every transaction
            assert len(config.memory.scopes) == 1
            assert config.omega == []
            assert world.msg is None and world.msg_stack == []
            # value conservation: only externally attached wei enters
            assert sum(i.balance for i in world.instances.values()) == injected
        for user in USERS:
            assert _read(world, address, f"balances[{user}]") == model[user]
    print(f"\nACCEPTANCE 7d PASS: scope/omega balance, value conservation, "
          f"and model agreement over {sequences} randomized Coin "
          f"transaction sequences, 100%")


# every rule label of the semantics (statement, evaluation, sizing, typing)
REQUIRED_RULE_LABELS = {
    "VD1", "VD2", "ASSIGN", "SEQ", "COND1", "COND2", "WHILE1", "WHILE2",
    "SKIP1", "SKIP2", "RETURN", "I-FUN", "E-FUN", "E-FUN1", "E-FUN2",
    "E-RV", "E-ID1", "E-ID2",
    "E-ARRAY", "E-ARRAY-REF", "E-ARRAY-LEN", "E-ARRAY-LEN-ref",
    "E-D-ARRAY", "E-D-ARRAY-ref", "E-MAPPING", "E-MAPPING-REF",
    "E-STRUCT", "E-STRUCT-ref",
    "SR1", "SR2", "SR3",
    "Size1", "Size2", "Size3", "Size4", "Size5", "Size6", "Size7",
    "Type1", "Type2", "Type3", "Type4", "Type5", "Type6", "Type7", "Type8",
}


def test_criterion_8_rule_label_coverage_gate():
    emitted = set()
    for contract_file, scn_file in (("dao.sol", "dao.scn"),
                                    ("dao_fixed.sol", "dao_fixed.scn"),
                                    ("coin.sol", "coin.scn")):
        world = make_world(contract_file)
        outcome = run_scenario(world,
                               parse_scenario(scenario_source(scn_file)))
        assert not outcome.halted
        emitted |= world.trace.labels()
    world = make_world("coverage.sol")
    outcome = run_main_contract(world)
    assert not outcome.halted
    emitted |= world.trace.labels()
    for fixture, fname in (("test.sol", "foo"), ("test2.sol", "foo2"),
                           ("test3.sol", "foo3"), ("test4.sol", "foo4")):
        w = make_world(fixture)
        address = deploy(w, fixture[:-4].capitalize())
        assert Executor(w).run_transaction(
            Tx(sender=1, to=address, fname=fname)).ok
        emitted |= w.trace.labels()
    missing = REQUIRED_RULE_LABELS - emitted
    assert missing == set(), f"rule labels never emitted: {sorted(missing)}"
    print(f"\nACCEPTANCE 8 PASS: all {len(REQUIRED_RULE_LABELS)} rule labels "
          f"appear in the fixture-suite traces")
