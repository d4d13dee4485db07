"""Statement execution, calls, transactions, and their invariants."""

import random

import pytest

from solsem import typesys
from solsem.errors import SolsemError, SolTypeError, TxAborted
from solsem.evaluator import read_value
from solsem.executor import Executor, Tx
from solsem.parser import parse_expression
from solsem.state import EngineOptions, decode_value
from solsem.trace import replay_storage_writes
from solsem.typesys import UInt

from conftest import deploy, make_world, world_from_source

U256 = UInt(256)


def _read(world, address, text):
    ev = Executor(world).evaluator(address)
    with world.trace.mute():
        return ev.eval_rvalue(parse_expression(text))


# -- the aliasing examples -----------------------------------------------------

def test_foo_overwrites_slots_zero_and_one():
    world = make_world("test.sol")
    address = deploy(world, "Test")
    res = Executor(world).run_transaction(Tx(sender=1, to=address, fname="foo"))
    assert res.ok
    st = world.instance(address).config.storage
    assert st.read(0, 32) == (7).to_bytes(32, "big")
    assert st.read(32, 32) == (8).to_bytes(32, "big")
    assert _read(world, address, "a") == 0
    assert _read(world, address, "b") == 8


def test_foo2_changes_first_row_only():
    world = make_world("test2.sol")
    address = deploy(world, "Test2")
    Executor(world).run_transaction(Tx(sender=1, to=address, fname="foo2"))
    config = world.instance(address).config
    b = read_value(world, config, "storage", 32,
                   typesys.StaticArray(typesys.StaticArray(UInt(128), 3), 2))
    assert b == [[0, 10, 0], [4, 5, 6]]


def test_uninitialized_pointer_warns():
    world = make_world("test.sol")
    address = deploy(world, "Test")
    Executor(world).run_transaction(Tx(sender=1, to=address, fname="foo"))
    assert any("uninitialized storage pointer" in w for w in world.warnings)
    assert any(e.rule == "WARN" for e in world.trace.events)


def test_while_false_is_a_no_op():
    world = world_from_source("""
    contract W { uint x;
      function f() public { while (false) { x = 1; } } }""")
    address = deploy(world, "W")
    before = world.storage_fingerprint()
    res = Executor(world).run_transaction(Tx(sender=1, to=address, fname="f"))
    assert res.ok
    assert world.storage_fingerprint() == before
    assert any(e.rule == "WHILE1" for e in res.events)
    assert not any(e.rule == "WHILE2" for e in res.events)


def test_declaration_in_a_loop_body_runs_again():
    # pre-0.5 locals are scoped to the whole function: a declaration run again
    # rebinds its local; a second declaration of the name still fails
    world = world_from_source("""
    contract W { uint s;
      function f() public {
        uint i = 0;
        while (i < 3) { uint x = i; uint[2] m; uint[2] storage p; i = i + 1; }
        s = i; }
      function g() public { uint x = 1; uint x = 2; } }""")
    address = deploy(world, "W")
    ex = Executor(world)
    res = ex.run_transaction(Tx(sender=1, to=address, fname="f"))
    assert res.ok
    assert _read(world, address, "s") == 3
    res = ex.run_transaction(Tx(sender=1, to=address, fname="g"))
    assert not res.ok and "x already declared" in str(res.error)


# -- push --------------------------------------------------------------------------

def test_push_pair_and_length():
    world = make_world("test3.sol")
    address = deploy(world, "Test3")
    Executor(world).run_transaction(Tx(sender=1, to=address, fname="foo3"))
    assert _read(world, address, "a.length") == 2
    assert _read(world, address, "a[0]") == 10
    assert _read(world, address, "a[1]") == 11


def test_push_onto_empty_stores_at_index_zero():
    world = world_from_source("""
    contract P { uint[] xs;
      function once() public { xs.push(77); } }""")
    address = deploy(world, "P")
    Executor(world).run_transaction(Tx(sender=1, to=address, fname="once"))
    assert _read(world, address, "xs.length") == 1
    assert _read(world, address, "xs[0]") == 77


def test_random_pushes_match_list_oracle():
    world = world_from_source("""
    contract P { uint[] xs;
      function add(uint v) public { xs.push(v); } }""")
    address = deploy(world, "P")
    ex = Executor(world)
    rng = random.Random(31)
    model = []
    for _ in range(50):
        v = rng.randrange(0, 1 << 64)
        assert ex.run_transaction(Tx(sender=1, to=address, fname="add",
                                     args=(v,))).ok
        model.append(v)
    assert _read(world, address, "xs.length") == len(model)
    for i, v in enumerate(model):
        assert _read(world, address, f"xs[{i}]") == v


# -- internal calls and guards ---------------------------------------------------------

def test_mint_guard_blocks_non_minter(coin_world):
    address = deploy(coin_world, "Coin", sender=0x5EED)
    ex = Executor(coin_world)
    res = ex.run_transaction(Tx(sender=0xBAD, to=address, fname="mint",
                                args=(0xB0B, 5)))
    assert res.ok  # the guarded early return is not an error
    assert _read(coin_world, address, "balances[0xB0B]") == 0
    ex.run_transaction(Tx(sender=0x5EED, to=address, fname="mint",
                          args=(0xB0B, 5)))
    assert _read(coin_world, address, "balances[0xB0B]") == 5


def test_guard_style_modifier_skips_body():
    world = world_from_source("""
    contract M {
      address owner;
      uint x;
      modifier onlyOwner { if (msg.sender == owner) _; }
      function M() public { owner = msg.sender; }
      function setX(uint v) public onlyOwner { x = v; }
    }""")
    address = deploy(world, "M", sender=0xAA)
    ex = Executor(world)
    ex.run_transaction(Tx(sender=0xBB, to=address, fname="setX", args=(9,)))
    assert _read(world, address, "x") == 0  # condition false: body skipped
    ex.run_transaction(Tx(sender=0xAA, to=address, fname="setX", args=(9,)))
    assert _read(world, address, "x") == 9


def test_general_modifier_is_inlined_at_placeholder():
    world = world_from_source("""
    contract M {
      uint log;
      uint x;
      modifier noted { log = log + 1; _; log = log + 100; }
      function bump2() public noted { x = x + 1; }
    }""")
    address = deploy(world, "M")
    Executor(world).run_transaction(Tx(sender=1, to=address, fname="bump2"))
    assert _read(world, address, "x") == 1
    assert _read(world, address, "log") == 101


def test_internal_expression_call_returns_value():
    world = world_from_source("""
    contract C {
      uint out;
      function twice(uint v) internal returns (uint) { return v + v; }
      function f() public { out = twice(21); }
    }""")
    address = deploy(world, "C")
    Executor(world).run_transaction(Tx(sender=1, to=address, fname="f"))
    assert _read(world, address, "out") == 42


def test_function_without_return_statement_yields_zero():
    world = world_from_source("""
    contract C {
      uint out;
      function silent() internal returns (uint) { out = 5; }
      function f() public { out = silent() + out; }
    }""")
    address = deploy(world, "C")
    Executor(world).run_transaction(Tx(sender=1, to=address, fname="f"))
    assert _read(world, address, "out") == 5  # 0 + 5


def test_value_of_a_function_without_return_aborts_before_it_runs():
    world = world_from_source("""
    contract C {
      uint out;
      function g() internal { out = 7; }
      function f() public { uint x = g(); out = x; }
    }""")
    address = deploy(world, "C")
    before = world.storage_fingerprint()
    res = Executor(world).run_transaction(Tx(sender=1, to=address, fname="f"))
    assert not res.ok
    assert isinstance(res.error.cause, SolTypeError)
    assert res.error.cause.message == "function g has no return value"
    assert all(ev.fn != "g" for ev in res.events)  # g never ran
    assert world.storage_fingerprint() == before


def test_value_of_an_external_function_without_return_aborts_before_it_runs():
    world = world_from_source("""
    contract B { uint z; function g() public { z = 1; } }
    contract A {
      B b;
      function A(B _b) public { b = _b; }
      function f() public { uint y = b.g(); }
    }""")
    b = deploy(world, "B")
    a = deploy(world, "A", args=(b,))
    before = world.storage_fingerprint()
    res = Executor(world).run_transaction(Tx(sender=1, to=a, fname="f"))
    assert not res.ok
    assert isinstance(res.error.cause, SolTypeError)
    assert res.error.cause.message == "function g of B has no return value"
    assert all(ev.fn != "g" for ev in res.events)  # g never ran
    assert world.storage_fingerprint() == before


# -- return ------------------------------------------------------------------------------

def test_transaction_returns_declared_value(dao_world):
    bank = deploy(dao_world, "Bank", value=10)
    ex = Executor(dao_world)
    ex.run_transaction(Tx(sender=0xEE, to=bank, fname="deposit", value=4))
    res = ex.run_transaction(Tx(sender=1, to=bank, fname="getUserBalance",
                                args=(0xEE,)))
    assert res.ok and res.value == 4


def test_bare_return_unwinds():
    world = world_from_source("""
    contract C { uint x;
      function f() public { x = 1; return; x = 2; } }""")
    address = deploy(world, "C")
    assert Executor(world).run_transaction(Tx(sender=1, to=address,
                                              fname="f")).ok
    assert _read(world, address, "x") == 1


# reference mini-interpreter (explicit return propagation) for loop/return
# interaction, mirrored over three hand cases

def _mini_eval(e, env):
    kind = e[0]
    if kind == "lit":
        return e[1]
    if kind == "var":
        return env[e[1]]
    lhs, rhs = _mini_eval(e[1], env), _mini_eval(e[2], env)
    return {"+": lambda: (lhs + rhs) % (1 << 256),
            "<": lambda: lhs < rhs,
            "==": lambda: lhs == rhs}[kind]()


def _mini_exec(stmts, env):
    for s in stmts:
        if s[0] == "set":
            env[s[1]] = _mini_eval(s[2], env)
        elif s[0] == "while":
            while _mini_eval(s[1], env):
                r = _mini_exec(s[2], env)
                if r is not None:
                    return r
        elif s[0] == "if":
            branch = s[2] if _mini_eval(s[1], env) else s[3]
            r = _mini_exec(branch, env)
            if r is not None:
                return r
        elif s[0] == "ret":
            return ("ret", _mini_eval(s[1], env))
    return None


_RETURN_CASES = [
    # (solidity body, mirrored mini program, state var checked)
    ("""
     uint i = 0;
     while (i < 10) {
        if (i == 3) { marker = i; return i; }
        i = i + 1;
     }
     return 99;
     """,
     [("set", "i", ("lit", 0)),
      ("while", ("<", ("var", "i"), ("lit", 10)),
       [("if", ("==", ("var", "i"), ("lit", 3)),
         [("set", "marker", ("var", "i")), ("ret", ("var", "i"))],
         []),
        ("set", "i", ("+", ("var", "i"), ("lit", 1)))]),
      ("ret", ("lit", 99))]),
    ("""
     uint i = 0;
     uint j = 0;
     while (i < 4) {
        j = 0;
        while (j < 4) {
           if (i + j == 5) { marker = i; return j; }
           j = j + 1;
        }
        i = i + 1;
     }
     return 77;
     """,
     [("set", "i", ("lit", 0)), ("set", "j", ("lit", 0)),
      ("while", ("<", ("var", "i"), ("lit", 4)),
       [("set", "j", ("lit", 0)),
        ("while", ("<", ("var", "j"), ("lit", 4)),
         [("if", ("==", ("+", ("var", "i"), ("var", "j")), ("lit", 5)),
           [("set", "marker", ("var", "i")), ("ret", ("var", "j"))], []),
          ("set", "j", ("+", ("var", "j"), ("lit", 1)))]),
        ("set", "i", ("+", ("var", "i"), ("lit", 1)))]),
      ("ret", ("lit", 77))]),
    ("""
     uint i = 0;
     while (i < 3) { marker = marker + i; i = i + 1; }
     return 99;
     """,
     [("set", "i", ("lit", 0)),
      ("while", ("<", ("var", "i"), ("lit", 3)),
       [("set", "marker", ("+", ("var", "marker"), ("var", "i"))),
        ("set", "i", ("+", ("var", "i"), ("lit", 1)))]),
      ("ret", ("lit", 99))]),
]


@pytest.mark.parametrize("case", range(len(_RETURN_CASES)))
def test_return_in_loops_matches_mini_interpreter(case):
    body, mini, = _RETURN_CASES[case]
    world = world_from_source(
        "contract C { uint marker;\n"
        "  function f() public returns (uint) {\n" + body + "} }")
    address = deploy(world, "C")
    res = Executor(world).run_transaction(Tx(sender=1, to=address, fname="f"))
    env = {"marker": 0}
    expected = _mini_exec(mini, env)
    assert res.ok
    assert ("ret", res.value) == expected
    assert _read(world, address, "marker") == env["marker"]


# -- external calls ----------------------------------------------------------------------

def test_add_to_balance_moves_value_and_credit(dao_world):
    bank = deploy(dao_world, "Bank", value=10)
    attack = Executor(dao_world).deploy("Attack", args=(bank,), sender=0xB,
                                        value=2)
    res = Executor(dao_world).run_transaction(
        Tx(sender=0xB, to=attack, fname="addToBalance"))
    assert res.ok
    assert dao_world.instance(bank).balance == 12
    assert dao_world.instance(attack).balance == 0
    assert _read(dao_world, bank, f"credit[{attack}]") == 2


def test_external_call_to_unknown_address_aborts():
    world = world_from_source("""
    contract C {
      function f(address other) public { C(other).f(other); } }""")
    address = deploy(world, "C")
    before = world.storage_fingerprint()
    res = Executor(world).run_transaction(
        Tx(sender=1, to=address, fname="f", args=(0xDEAD,)))
    assert not res.ok
    assert "no contract instance" in str(res.error)
    assert world.storage_fingerprint() == before


def test_nested_omega_depths_during_reentry(dao_world):
    bank = deploy(dao_world, "Bank", value=10)
    ex = Executor(dao_world)
    attack = ex.deploy("Attack", args=(bank,), sender=0xB, value=2)
    ex.run_transaction(Tx(sender=0xB, to=attack, fname="addToBalance"))
    res = ex.run_transaction(Tx(sender=0xB, to=attack, fname="withdrawBalance"))
    assert res.ok
    depths = [e.omega for e in res.events
              if e.rule == "E-FUN1" and e.addr == bank]
    assert depths[:2] == [1, 2]
    assert max(depths) >= 2
    assert dao_world.instance(bank).balance == 0
    assert dao_world.instance(attack).balance == 12


def test_fallback_invoked_by_low_level_call(dao_world):
    bank = deploy(dao_world, "Bank", value=10)
    ex = Executor(dao_world)
    attack = ex.deploy("Attack", args=(bank,), sender=0xB, value=2)
    ex.run_transaction(Tx(sender=0xB, to=attack, fname="addToBalance"))
    res = ex.run_transaction(Tx(sender=0xB, to=attack, fname="withdrawBalance"))
    fallback_entries = [e for e in res.events
                        if e.rule == "E-FUN2" and e.addr == attack]
    assert fallback_entries, "the victim's transfer must invoke the fallback"


def test_fallbackless_recipient_still_receives_value():
    world = world_from_source("""
    contract Quiet { uint x; }
    contract Payer {
      function pay(address to) public { to.call.value(1)(); } }""")
    ex_world = Executor(world)
    quiet = ex_world.deploy("Quiet")
    payer = ex_world.deploy("Payer", value=3)
    res = Executor(world).run_transaction(
        Tx(sender=1, to=payer, fname="pay", args=(quiet,)))
    assert res.ok
    assert world.instance(quiet).balance == 1
    assert world.instance(payer).balance == 2
    assert any("no fallback" in w for w in world.warnings)


def test_value_zero_fallback_call_runs_body():
    world = world_from_source("""
    contract Recv { uint hits; function() payable { hits = hits + 1; } }
    contract Pinger {
      function ping(address to) public { to.call.value(0)(); } }""")
    ex = Executor(world)
    recv = ex.deploy("Recv")
    pinger = ex.deploy("Pinger")
    res = ex.run_transaction(Tx(sender=1, to=pinger, fname="ping",
                                args=(recv,)))
    assert res.ok
    assert _read(world, recv, "hits") == 1
    assert world.instance(recv).balance == 0


def test_insufficient_balance_for_named_value_call_aborts(dao_world):
    bank = deploy(dao_world, "Bank", value=10)
    ex = Executor(dao_world)
    attack = ex.deploy("Attack", args=(bank,), sender=0xB, value=0)
    before = dao_world.storage_fingerprint()
    res = ex.run_transaction(Tx(sender=0xB, to=attack, fname="addToBalance"))
    assert not res.ok
    assert "wei" in str(res.error)
    assert dao_world.storage_fingerprint() == before  # atomic rollback


# -- transactions --------------------------------------------------------------------------

def test_sequential_transactions_observe_commits(coin_world):
    address = deploy(coin_world, "Coin", sender=0xA)
    ex = Executor(coin_world)
    ex.run_transaction(Tx(sender=0xA, to=address, fname="mint", args=(0xB, 5)))
    ex.run_transaction(Tx(sender=0xA, to=address, fname="mint", args=(0xB, 5)))
    assert _read(coin_world, address, "balances[0xB]") == 10


def test_abort_restores_bytes_for_runtime_faults():
    world = world_from_source("""
    contract F {
      uint a;
      uint[2] xs;
      function div0(uint d) public { a = 1; a = a / d; }
      function oob(uint i) public { a = 2; xs[i] = 1; }
      function warn(uint d) public { uint[2] p; p[0] = 1 / d; }
    }""")
    address = deploy(world, "F")
    ex = Executor(world)
    before = world.storage_fingerprint()
    res = ex.run_transaction(Tx(sender=1, to=address, fname="div0", args=(0,)))
    assert not res.ok and world.storage_fingerprint() == before
    res = ex.run_transaction(Tx(sender=1, to=address, fname="oob", args=(5,)))
    assert not res.ok and world.storage_fingerprint() == before
    # the aborted transaction's warning goes with it
    res = ex.run_transaction(Tx(sender=1, to=address, fname="warn", args=(0,)))
    assert not res.ok and world.storage_fingerprint() == before
    assert world.warnings == []
    # committed sanity: the same functions succeed with benign arguments
    assert ex.run_transaction(Tx(sender=1, to=address, fname="div0",
                                 args=(1,))).ok


_ILL_TYPED = {  # the function (with its modifier) -> the type error's message
    "function f() public { a = 5; b = !a; }": "! requires a bool operand",
    "function f() public { a = 5; a = -b; }":
        "unary - requires a numeric operand",
    "function f() public { a = 5; b = true && a; }":
        "&& requires bool operands",
    "function f() public { a = 5; b = a || false; }":
        "|| requires bool operands",
    "function f() public { a = 5; b = b < a; }":
        "cannot compare bool with uint256",
    "function f() public { a = 5; a = b + 1; }":
        "arithmetic on non-numeric types bool/uint256",
    "function f() public { a = 5; if (a) { a = 6; } }":
        "if condition must be boolean",
    "function f() public { a = 5; while (a) { a = 0; } }":
        "while condition must be boolean",
    "modifier m { if (a) _; } function f() m public { a = 5; }":
        "modifier condition must be boolean",
}


@pytest.mark.parametrize("fn, message", _ILL_TYPED.items())
def test_ill_typed_operands_abort_with_a_type_error(fn, message):
    world = world_from_source(f"contract T {{ uint a; bool b; {fn} }}")
    address = deploy(world, "T")
    before = world.storage_fingerprint()
    res = Executor(world).run_transaction(Tx(sender=1, to=address, fname="f"))
    assert not res.ok
    assert isinstance(res.error.cause, SolTypeError)
    assert res.error.cause.message == message
    assert world.storage_fingerprint() == before


def test_tx_count_increments_even_on_abort():
    world = make_world("coin.sol")
    address = deploy(world, "Coin")
    ex = Executor(world)
    n = world.tx_count
    ex.run_transaction(Tx(sender=1, to=address, fname="nosuch"))
    assert world.tx_count == n + 1


def test_scope_and_context_balance_after_transactions(coin_world):
    address = deploy(coin_world, "Coin", sender=0xA)
    ex = Executor(coin_world)
    for args in ((0xB, 5), (0xC, 7)):
        ex.run_transaction(Tx(sender=0xA, to=address, fname="mint", args=args))
        config = coin_world.instance(address).config
        assert len(config.memory.scopes) == 1
        assert config.omega == []
        assert coin_world.msg is None
        assert coin_world.msg_stack == []


def test_value_conservation_across_dao_run(dao_world):
    bank = deploy(dao_world, "Bank", value=10)
    ex = Executor(dao_world)
    attack = ex.deploy("Attack", args=(bank,), sender=0xB, value=2)
    def total():
        return sum(i.balance for i in dao_world.instances.values())
    assert total() == 12
    ex.run_transaction(Tx(sender=0xB, to=attack, fname="addToBalance"))
    assert total() == 12
    ex.run_transaction(Tx(sender=0xB, to=attack, fname="withdrawBalance"))
    assert total() == 12


def test_max_steps_bounds_nontermination():
    world = world_from_source(
        "contract L { uint x; function spin() public { "
        "while (true) { x = x + 1; } } }",
        options=EngineOptions(max_steps=100))
    address = deploy(world, "L")
    before = world.storage_fingerprint()
    res = Executor(world).run_transaction(Tx(sender=1, to=address,
                                             fname="spin"))
    assert not res.ok and "max steps" in str(res.error)
    assert world.storage_fingerprint() == before


def test_deploy_abort_message_has_one_prefix():
    world = world_from_source(
        "contract L { uint x; function L() { while (true) { x = x + 1; } } }",
        options=EngineOptions(max_steps=5))
    before = world.storage_fingerprint()
    with pytest.raises(TxAborted) as info:
        Executor(world).deploy("L")
    assert str(info.value) == "transaction aborted: exceeded max steps (5)"
    assert world.storage_fingerprint() == before


def test_stack_exhausting_drain_aborts_and_rolls_back(dao_world):
    # 5001 nested withdraw levels: the Python stack runs out long before
    ex = Executor(dao_world)
    bank = ex.deploy("Bank", value=10000)
    attack = ex.deploy("Attack", args=(bank,), sender=0xB, value=2)
    assert ex.run_transaction(Tx(sender=0xB, to=attack,
                                 fname="addToBalance")).ok
    before = dao_world.storage_fingerprint()
    res = ex.run_transaction(Tx(sender=0xB, to=attack,
                                fname="withdrawBalance"))
    assert not res.ok and "stack limit" in str(res.error)
    assert dao_world.storage_fingerprint() == before
    assert dao_world.trace.events[-1].rule == "TX-ABORT"
    assert (dao_world.msg, dao_world.msg_stack, dao_world.call_depth,
            dao_world.trace.depth) == (None, [], 0, 1)
    for inst in dao_world.instances.values():  # even if a frame's pop failed
        memory = inst.config.memory
        assert (memory.bytes, len(memory.scopes)) == ({}, 1)


def test_call_depth_cap():
    world = world_from_source(
        "contract R { function r() public { r(); } }",
        options=EngineOptions(max_call_depth=40))
    address = deploy(world, "R")
    res = Executor(world).run_transaction(Tx(sender=1, to=address, fname="r"))
    assert not res.ok and "call depth" in str(res.error)


# -- trace fidelity --------------------------------------------------------------------------

def test_replaying_committed_writes_reproduces_storage():
    world = make_world("dao.sol")
    ex = Executor(world)
    bank = ex.deploy("Bank", value=10)
    attack = ex.deploy("Attack", args=(bank,), sender=0xB, value=2)
    ex.run_transaction(Tx(sender=0xB, to=attack, fname="addToBalance"))
    ex.run_transaction(Tx(sender=0xB, to=attack, fname="withdrawBalance"))
    ex.run_transaction(Tx(sender=0xB, to=attack, fname="nosuch"))  # aborted
    replayed = replay_storage_writes(world.trace.events)
    for address, inst in world.instances.items():
        assert replayed.get(address, {}) == inst.config.storage.bytes


def test_every_committed_diff_is_covered_by_a_write_record(coin_world):
    address = deploy(coin_world, "Coin", sender=0xA)
    ex = Executor(coin_world)
    pre = dict(coin_world.instance(address).config.storage.bytes)
    res = ex.run_transaction(Tx(sender=0xA, to=address, fname="mint",
                                args=(0xB, 5)))
    post = coin_world.instance(address).config.storage.bytes
    covered = set()
    for e in res.events:
        for w in e.writes:
            if w.space == "storage" and e.addr == address:
                covered.update(range(w.at, w.at + len(w.data)))
    diff = {k for k in set(pre) | set(post) if pre.get(k) != post.get(k)}
    assert diff <= covered


# -- additional type coverage -----------------------------------------------------

def test_int256_signed_literals_and_division():
    world = world_from_source("""
    contract I {
      int256 z;
      function f() public {
        z = -5;
        z = z / 2;
        z = z - 1;
        z = z * -4;
      } }""")
    address = deploy(world, "I")
    res = Executor(world).run_transaction(Tx(sender=1, to=address, fname="f"))
    assert res.ok, res.error
    # -5 / 2 truncates toward zero: -2; then -3; then 12
    assert _read(world, address, "z") == 12


def test_memory_array_local_does_not_touch_storage():
    world = world_from_source("""
    contract M {
      uint keep;
      uint out;
      function f() public {
        uint256[2] memory tmp;
        tmp[0] = 7;
        tmp[1] = tmp[0] + 1;
        out = tmp[1];
      } }""")
    address = deploy(world, "M")
    ex = Executor(world)
    ex.run_transaction(Tx(sender=1, to=address, fname="f"))
    assert _read(world, address, "out") == 8
    assert _read(world, address, "keep") == 0  # slot 0 untouched


def test_string_state_roundtrip_and_equality():
    world = world_from_source("""
    contract S {
      string greeting = "hello";
      uint matched;
      function f() public {
        if (greeting == "hello") { matched = 1; }
        greeting = "longer than thirty two bytes, definitely";
        if (greeting == "hello") { matched = 2; }
      } }""")
    address = deploy(world, "S")
    Executor(world).run_transaction(Tx(sender=1, to=address, fname="f"))
    assert _read(world, address, "matched") == 1
    assert _read(world, address, "greeting") == \
        "longer than thirty two bytes, definitely"


def test_string_parameter_binds_in_memory():
    world = world_from_source("""
    contract S {
      string kept;
      function set(string memory v) public { kept = v; } }""")
    address = deploy(world, "S")
    res = Executor(world).run_transaction(
        Tx(sender=1, to=address, fname="set", args=("salut",)))
    assert res.ok, res.error
    assert _read(world, address, "kept") == "salut"


def test_nested_mapping_addresses_compose():
    world = world_from_source("""
    contract N {
      mapping(uint=>mapping(uint=>uint)) grid;
      function f() public { grid[3][4] = 7; } }""")
    address = deploy(world, "N")
    Executor(world).run_transaction(Tx(sender=1, to=address, fname="f"))
    assert _read(world, address, "grid[3][4]") == 7
    assert _read(world, address, "grid[3][5]") == 0
    from keccak_oracle import keccak256_oracle_int
    outer = keccak256_oracle_int((0).to_bytes(32, "big") +
                                 (3).to_bytes(32, "big"))
    inner = keccak256_oracle_int(outer.to_bytes(32, "big") +
                                 (4).to_bytes(32, "big"))
    storage = world.instance(address).config.storage
    assert decode_value(storage.read(inner * 32, 32), U256) == 7


def test_dyn_array_of_sub_slot_elements_uses_one_slot_each():
    world = world_from_source("""
    contract D {
      uint128[] xs;
      function f() public { xs.push(5); xs.push(6); } }""")
    address = deploy(world, "D")
    Executor(world).run_transaction(Tx(sender=1, to=address, fname="f"))
    from keccak_oracle import keccak256_oracle_int
    h = keccak256_oracle_int(bytes(32))
    storage = world.instance(address).config.storage
    assert decode_value(storage.read(h * 32, 16), typesys.UInt(128)) == 5
    assert decode_value(storage.read((h + 1) * 32, 16), typesys.UInt(128)) == 6
    assert _read(world, address, "xs[1]") == 6
