"""The undo journal against a deep-copy oracle, transaction-scoped memory, and
per-transaction work that does not depend on the history before it."""

import copy

from hypothesis import given, settings, strategies as st

import solsem.keccak
from solsem.errors import SolsemError, TxAborted
from solsem.executor import Executor, Tx
from solsem.keccak import keccak256_int
from solsem.state import World, key_encoder
from solsem.typesys import Address

from conftest import make_world, read
from keccak_oracle import keccak256_oracle_int


class InjectedFault(SolsemError):
    pass


def _fault(spec):
    """A step hook raising at statement k ("step", k), or at the first
    statement run at call depth d or deeper ("depth", d); None: no fault."""
    if spec is None:
        return None
    kind, n = spec

    def hook(world, step):
        if (step if kind == "step" else world.call_depth) >= n:
            raise InjectedFault(f"injected at {kind} {n}")
    return hook


def _oracle_fingerprint(instances, next_address):
    world = World()
    world.instances, world.next_address = instances, next_address
    return world.storage_fingerprint()


def _fresh(instances):
    return {a: i.config.memory.fresh for a, i in instances.items()}


def _checked(world, spec, run):
    """Run one transaction under an injected fault and check it against a
    deep copy of the pre-state taken before it; returns run()'s value,
    which is falsy when the transaction aborted."""
    instances, next_address = copy.deepcopy(world.instances), world.next_address
    world.options.step_hook = _fault(spec)
    try:
        committed = run()
    finally:
        world.options.step_hook = None
    assert world.journal == []
    for inst in world.instances.values():
        assert inst.config.memory.bytes == {}
        assert len(inst.config.memory.scopes) == 1
    if not committed:
        assert world.storage_fingerprint() == \
            _oracle_fingerprint(instances, next_address)
        assert _fresh(world.instances) == _fresh(instances)
    return committed


def _deploy(ex, name, **kw):
    try:
        return ex.deploy(name, **kw)
    except TxAborted:
        return None


def _transact(ex, **kw):
    return lambda: ex.run_transaction(Tx(**kw)).ok


def faults(max_step, max_depth=1):
    return st.one_of(
        st.none(), st.tuples(st.just("step"), st.integers(1, max_step)),
        st.tuples(st.just("depth"), st.integers(1, max_depth)))


ACCOUNTS = (0xA1, 0xA2, 0xA3, 0xA4)
MINTER = ACCOUNTS[0]


@settings(max_examples=30, deadline=None)
@given(deploy_fault=faults(1), ops=st.lists(st.tuples(
    st.sampled_from(("mint", "send")), st.sampled_from(ACCOUNTS),
    st.sampled_from(ACCOUNTS), st.integers(0, 30), faults(3)), max_size=25))
def test_coin_journal_matches_deepcopy(deploy_fault, ops):
    """Mints by the minter or anyone else, sends that can or cannot pay; a
    fault may hit any of a mint's or send's (at most 3) statements."""
    world = make_world("coin.sol")
    ex = Executor(world)
    coin = _checked(world, deploy_fault,
                    lambda: _deploy(ex, "Coin", sender=MINTER))
    if coin is None:
        coin = ex.deploy("Coin", sender=MINTER)
    for fname, sender, receiver, amount, spec in ops:
        _checked(world, spec, _transact(ex, sender=sender, to=coin,
                                        fname=fname, args=(receiver, amount)))


@settings(max_examples=20, deadline=None)
@given(rounds=st.lists(st.tuples(st.sampled_from((0, 2, 6, 10)),
                                 st.lists(faults(40, 14), min_size=4,
                                          max_size=4)),
                       min_size=1, max_size=3))
def test_dao_journal_matches_deepcopy(rounds):
    """Bank and Attack deploys, a deposit and a drain per round, in one
    world; a fault may hit any of the four, at any statement or depth."""
    world = make_world("dao.sol")
    ex = Executor(world)
    for value, (f_bank, f_attack, f_deposit, f_drain) in rounds:
        bank = _checked(world, f_bank,
                        lambda: _deploy(ex, "Bank", value=value))
        if not bank:
            continue
        attack = _checked(world, f_attack, lambda: _deploy(
            ex, "Attack", args=(bank,), sender=0xB, value=2))
        if not attack:
            continue
        _checked(world, f_deposit, _transact(ex, sender=0xB, to=attack,
                                             fname="addToBalance"))
        _checked(world, f_drain, _transact(ex, sender=0xB, to=attack,
                                           fname="withdrawBalance"))


def test_fault_at_the_deepest_drain_level_rolls_back():
    def drain_world():
        world = make_world("dao.sol")
        ex = Executor(world)
        bank = ex.deploy("Bank", value=100)
        attack = ex.deploy("Attack", args=(bank,), sender=0xB, value=2)
        assert ex.run_transaction(Tx(sender=0xB, to=attack,
                                     fname="addToBalance")).ok
        return world, ex, attack

    # a twin world measures how deep the drain goes (51 withdraw levels)
    world, ex, attack = drain_world()
    depths = []
    world.options.step_hook = lambda w, step: depths.append(w.call_depth)
    assert ex.run_transaction(Tx(sender=0xB, to=attack,
                                 fname="withdrawBalance")).ok
    deepest = max(depths)
    assert deepest > 100

    world, ex, attack = drain_world()
    assert not _checked(world, ("depth", deepest), _transact(
        ex, sender=0xB, to=attack, fname="withdrawBalance"))
    # and a fault while deploying the attacker, inside its constructor
    assert not _checked(world, ("step", 1), lambda: _deploy(
        ex, "Attack", args=(attack,), sender=0xB))


def test_memory_is_transaction_scoped():
    world = make_world("coin.sol")
    ex = Executor(world)
    coin = ex.deploy("Coin", sender=MINTER)
    memory = world.instance(coin).config.memory
    assert ex.run_transaction(Tx(sender=MINTER, to=coin, fname="mint",
                                 args=(0xB, 5))).ok
    assert memory.bytes == {} and memory.fresh > 0
    fresh = memory.fresh
    world.options.step_hook = _fault(("step", 2))
    assert not ex.run_transaction(Tx(sender=MINTER, to=coin, fname="mint",
                                     args=(0xB, 5))).ok
    assert memory.bytes == {} and memory.fresh == fresh


# -- per-transaction work does not depend on the history ---------------------------

def test_journal_records_per_send_do_not_grow_with_history(monkeypatch):
    records = []
    commit = World.commit

    def counting_commit(self):
        records.append(len(self.journal))
        commit(self)
    monkeypatch.setattr(World, "commit", counting_commit)

    world = make_world("coin.sol")
    ex = Executor(world)
    coin = ex.deploy("Coin", sender=MINTER)

    def tx(fname, sender, receiver, amount):
        assert ex.run_transaction(Tx(sender=sender, to=coin, fname=fname,
                                     args=(receiver, amount))).ok
        return records[-1]

    tx("mint", MINTER, 0xB, 1000)
    tx("mint", MINTER, 0xC, 1000)
    for i in range(6):
        tx("mint", MINTER, 0x100 + i, 1)
    early = tx("send", 0xB, 0xC, 1)
    assert world.tx_count == 10  # the deploy counts
    for i in range(489):
        tx("mint", MINTER, 0x200 + i, 1)
    assert tx("send", 0xB, 0xC, 1) == early
    assert world.tx_count == 500


def test_each_slot_is_hashed_once_per_world(monkeypatch):
    calls = []
    keccak256 = solsem.keccak.keccak256
    monkeypatch.setattr(solsem.keccak, "keccak256",
                        lambda data: calls.append(data) or keccak256(data))

    def world_with_balance():
        world = make_world("coin.sol")
        ex = Executor(world)
        coin = ex.deploy("Coin", sender=MINTER)
        assert ex.run_transaction(Tx(sender=MINTER, to=coin, fname="mint",
                                     args=(0xB, 5))).ok
        return world, coin

    world, coin = world_with_balance()
    for _ in range(3):
        assert read(world, coin, "balances[0xB]") == 5
    assert len(calls) == 1
    world_with_balance()
    assert len(calls) == 2
    # keccak256_int itself is not memoised
    keccak256_int(b"\x00" * 32)
    keccak256_int(b"\x00" * 32)
    assert len(calls) == 4


def test_flipping_hash_order_derives_the_other_slot():
    world = make_world("coin.sol")
    ex = Executor(world)
    coin = ex.deploy("Coin", sender=MINTER)
    base32 = (1).to_bytes(32, "big")  # balances is declared at slot 1
    key32 = key_encoder(Address())(0xB)
    expected = [keccak256_oracle_int(base32 + key32),
                keccak256_oracle_int(key32 + base32)]
    hashed = world.instance(coin).config.storage.hashed
    for n, order in enumerate((False, True), start=1):
        world.options.evm_hash_order = order
        assert ex.run_transaction(Tx(sender=MINTER, to=coin, fname="mint",
                                     args=(0xB, 5))).ok
        assert set(hashed) == set(expected[:n])
        assert read(world, coin, "balances[0xB]") == 5
