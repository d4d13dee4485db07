"""The benchmark's workloads: seeded inputs, set-up, one op, and the checks.

Each workload is a closed loop in one thread: an op starts when the
previous one returns. Its inputs come from the seed alone, and every
outcome is checked against a reference that solsem does not compute (a
dict model of balances, the drain arithmetic, a byte-stepping placement of
state variables). `check_op` and `check_final` return the number of
mismatches; the runner calls them outside the timed region.

The interface the runner uses: `inputs(seed)`, `setup(inputs)`,
`before_op(state, op)`, `run_op(state, op)`, `check_op(state, op, pre,
out)` and `check_final(state, inputs, reports)`; `State.worlds` holds every
World an episode uses.

solsem's functions are called through the package (`solsem.parse`), not
bound here by name, so that the span wrappers of a traced run see them.
"""

from __future__ import annotations

import random
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

import solsem
from solsem import Executor, Tx, World
from solsem.errors import SolsemError

CONTRACTS = Path(__file__).resolve().parent.parent / "contracts"


def _address(rng: random.Random) -> int:
    return rng.getrandbits(160) | (1 << 159)  # never 0, never a small address


def _distinct_addresses(rng: random.Random, n: int) -> list:
    out: list = []
    seen: set = set()
    while len(out) < n:
        a = _address(rng)
        if a not in seen:
            seen.add(a)
            out.append(a)
    return out


@dataclass
class State:
    """What one episode's ops run against, plus tallies for the checks."""
    worlds: list
    executors: list
    handles: dict = field(default_factory=dict)
    steps: int = 0  # statements executed (TxResult.steps, deploy steps)
    aborts: int = 0  # ops that ended in TX-ABORT


# ---------------------------------------------------------------------------
# coin_history
# ---------------------------------------------------------------------------

class InjectedFault(SolsemError):
    """Raised by the per-op step hook; a SolsemError, so the tx aborts."""


def _fault_after_first_write(world, step):
    # send's statements: 1 = the overdraft guard, 2 = the debit (first
    # storage write), 3 = the credit. Failing on entry to 3 leaves a
    # half-applied transfer that only the rollback can undo.
    if step == 3:
        raise InjectedFault("injected fault after the first storage write")


@dataclass(frozen=True)
class CoinOp:
    kind: str  # mint | mint_guarded | send | send_overdraft | send_fault
    sender: int
    receiver: int
    amount: int

    @property
    def fname(self) -> str:
        return "mint" if self.kind.startswith("mint") else "send"


class CoinHistory:
    name = "coin_history"
    # exact share of each op kind in an episode; sends of the three kinds
    # pick a sender that can pay, cannot pay, or can pay and is then faulted
    MIX = (("mint_guarded", 0.10), ("send", 0.35), ("send_overdraft", 0.15),
           ("send_fault", 0.05))

    def __init__(self, ops: int = 1000, accounts: int = 200,
                 setup_reps: int = 100):
        self.n_ops = ops
        self.n_accounts = accounts
        self.setup_reps = setup_reps

    def sizes(self) -> dict:
        return {"ops_per_episode": self.n_ops, "accounts": self.n_accounts,
                "mix": dict(self.MIX), "setup_reps": self.setup_reps}

    def inputs(self, seed: int) -> dict:
        rng = random.Random(f"{self.name}:{seed}")
        minter, *accounts = _distinct_addresses(rng, self.n_accounts + 1)
        kinds = []
        for kind, share in self.MIX:
            kinds += [kind] * round(share * self.n_ops)
        kinds += ["mint"] * (self.n_ops - len(kinds))
        rng.shuffle(kinds)
        kinds.insert(0, kinds.pop(kinds.index("mint")))  # fund someone first
        bal: dict = defaultdict(int)
        ops = []
        for kind in kinds:
            receiver = rng.choice(accounts)
            if kind == "mint":
                op = CoinOp(kind, minter, receiver, rng.randint(1, 1000))
                bal[receiver] += op.amount
            elif kind == "mint_guarded":
                op = CoinOp(kind, rng.choice(accounts), receiver,
                            rng.randint(1, 1000))
            elif kind == "send_overdraft":
                sender = rng.choice(accounts)
                op = CoinOp(kind, sender, receiver,
                            bal[sender] + rng.randint(1, 1000))
            else:
                sender = rng.choice([a for a in accounts if bal[a] > 0])
                op = CoinOp(kind, sender, receiver, rng.randint(1, bal[sender]))
                if kind == "send":
                    bal[sender] -= op.amount
                    bal[receiver] += op.amount
            ops.append(op)
        return {"source": (CONTRACTS / "coin.sol").read_text(),
                "minter": minter, "ops": ops,
                "expected": dict(bal)}  # final balances by the dict model

    def setup(self, inputs) -> State:
        world = World()
        world.register(solsem.parse(inputs["source"], filename="coin.sol"))
        ex = Executor(world)
        coin = ex.deploy("Coin", sender=inputs["minter"])
        return State(worlds=[world], executors=[ex], handles={"coin": coin})

    def before_op(self, state: State, op: CoinOp):
        return state.worlds[0].storage_fingerprint() \
            if op.kind == "send_fault" else None

    def run_op(self, state: State, op: CoinOp):
        world, ex = state.worlds[0], state.executors[0]
        tx = Tx(sender=op.sender, to=state.handles["coin"], fname=op.fname,
                args=(op.receiver, op.amount))
        if op.kind != "send_fault":
            return ex.run_transaction(tx)
        world.options.step_hook = _fault_after_first_write
        try:
            return ex.run_transaction(tx)
        finally:
            world.options.step_hook = None

    def check_op(self, state: State, op: CoinOp, pre, res) -> int:
        state.steps += res.steps
        if op.kind != "send_fault":
            return int(not res.ok)
        state.aborts += not res.ok
        return int(res.ok or state.worlds[0].storage_fingerprint() != pre)

    def check_final(self, state: State, inputs, reports) -> int:
        """Balances read back from storage against the dict model."""
        rep = solsem.dump_layout(state.worlds[0], state.handles["coin"])
        minter = {v.name: v.value for v in rep.vars}.get("minter")
        bad = int(minter != inputs["minter"])
        stored = {int(r["key"]): int(r["value"]) for r in rep.hashed_regions
                  if r["kind"] == "mapping"}
        expected = inputs["expected"]
        for account in set(stored) | set(expected):
            bad += stored.get(account, 0) != expected.get(account, 0)
        return bad


# ---------------------------------------------------------------------------
# dao_drain
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DaoRound:
    bank_owner: int
    attacker: int
    value: int  # the bank's balance at deploy


class DaoDrain:
    name = "dao_drain"
    ATTACK_DEPOSIT = 2  # Attack.addToBalance deposits 2 and withdraws 2 a level

    def __init__(self, rounds: int = 10, value: int = 100, setup_reps: int = 100):
        # value 100 nests 51 withdraw levels, well short of the Python
        # recursion limit (about 70 levels), also with the span wrappers on
        self.rounds = rounds
        self.value = value
        self.setup_reps = setup_reps

    def sizes(self) -> dict:
        return {"rounds_per_episode": self.rounds, "bank_value": self.value,
                "levels_per_round": (self.value + self.ATTACK_DEPOSIT)
                // self.ATTACK_DEPOSIT, "setup_reps": self.setup_reps}

    def inputs(self, seed: int) -> dict:
        rng = random.Random(f"{self.name}:{seed}")
        addrs = _distinct_addresses(rng, 2 * self.rounds)
        return {"source": (CONTRACTS / "dao.sol").read_text(),
                "ops": [DaoRound(addrs[2 * i], addrs[2 * i + 1], self.value)
                        for i in range(self.rounds)]}

    def setup(self, inputs) -> State:
        world = World()
        world.register(solsem.parse(inputs["source"], filename="dao.sol"))
        return State(worlds=[world], executors=[Executor(world)],
                     handles={"rounds": []})

    def before_op(self, state: State, op: DaoRound):
        return None

    def run_op(self, state: State, op: DaoRound):
        world, ex = state.worlds[0], state.executors[0]
        try:
            bank = ex.deploy("Bank", sender=op.bank_owner, value=op.value)
            steps = world.stmt_steps
            attack = ex.deploy("Attack", args=(bank,), sender=op.attacker,
                               value=self.ATTACK_DEPOSIT)
            steps += world.stmt_steps
        except SolsemError as err:
            return err
        deposit = ex.run_transaction(Tx(sender=op.attacker, to=attack,
                                        fname="addToBalance"))
        drain = ex.run_transaction(Tx(sender=op.attacker, to=attack,
                                      fname="withdrawBalance"))
        return bank, attack, steps, deposit, drain

    def check_op(self, state: State, op: DaoRound, pre, out) -> int:
        """The bank ends at 0, the attacker at the bank's value plus its own
        deposit."""
        if isinstance(out, SolsemError):
            state.aborts += 1
            return 1
        bank, attack, steps, deposit, drain = out
        state.handles["rounds"].append((bank, attack))
        state.steps += steps + deposit.steps + drain.steps
        state.aborts += (not deposit.ok) + (not drain.ok)
        world = state.worlds[0]
        return int(not (deposit.ok and drain.ok
                        and world.instance(bank).balance == 0
                        and world.instance(attack).balance
                        == op.value + self.ATTACK_DEPOSIT))

    def check_final(self, state: State, inputs, reports) -> int:
        """Findings name every bank's withdraw and nothing else; every
        attacker still targets its own bank."""
        world = state.worlds[0]
        rounds = state.handles["rounds"]
        findings = reports[0].findings
        bad = int({f.victim for f in findings} != {b for b, _ in rounds})
        bad += sum(f.fn != "withdraw" for f in findings)
        for bank, attack in rounds:
            rep = solsem.dump_layout(world, attack)
            bad += {v.name: v.value for v in rep.vars}.get("target") != bank
        return bad


# ---------------------------------------------------------------------------
# compile_layout
# ---------------------------------------------------------------------------

SLOT = 32

# (source name, byte size) of the primitives the generator draws from
PRIMS = (("uint8", 1), ("uint16", 2), ("uint32", 4), ("uint64", 8),
         ("uint128", 16), ("uint256", 32), ("bool", 1), ("address", 20))
NUMERIC = PRIMS[:6]


def _ceil_slot(n: int) -> int:
    return -(-n // SLOT) * SLOT


def _place(sizes_and_kinds) -> tuple:
    """Byte-stepping placement (the method of the test suite's packing
    oracle): a primitive moves up one byte at a time until it does not
    straddle a slot boundary, anything else until it starts one.
    Returns (addresses, extent)."""
    cursor, addrs = 0, []
    for size, primitive in sizes_and_kinds:
        if primitive:
            while cursor // SLOT != (cursor + size - 1) // SLOT:
                cursor += 1
        else:
            while cursor % SLOT:
                cursor += 1
        addrs.append(cursor)
        cursor += size
    return addrs, cursor


@dataclass
class GenVar:
    name: str
    kind: str  # prim | array | struct | mapping | dyn
    src: str  # type as written in the source
    size: int
    prim: tuple = ()  # (name, size) of the primitive / element / value
    length: int = 0  # static array length


@dataclass
class GenContract:
    name: str
    source: str
    functions: list
    expected: list  # [(var name, byte address)] in declaration order
    lam: int


def _literal(rng, prim) -> str:
    name, size = prim
    if name == "bool":
        return rng.choice(("true", "false"))
    if name == "address":
        return "msg.sender"
    return str(rng.randint(0, min(255, (1 << (8 * size)) - 1)))


class _ContractGen:
    """One synthetic contract: state vars of every storage kind in seeded
    order, and functions of assignments and if/else over them."""

    N_PRIMS, N_ARRAYS, N_FUNCTIONS = 6, 2, 4

    def __init__(self, rng: random.Random, k: int):
        self.rng = rng
        self.name, self.struct_name = f"Gen{k}", f"S{k}"
        # struct fields are (name, primitive, static array length or 0)
        struct_fields = [(f"f{j}", rng.choice(PRIMS), 0) for j in range(3)]
        struct_fields.insert(rng.randrange(4), ("lane", ("uint8", 1),
                                                rng.randint(2, 5)))
        self.struct_fields = struct_fields
        fsizes = [(_ceil_slot(n * p[1]) if n else p[1], not n)
                  for _, p, n in struct_fields]
        struct_size = _ceil_slot(_place(fsizes)[1])

        prims = [rng.choice(NUMERIC)]  # the if/else conditions need one
        prims += [rng.choice(PRIMS) for _ in range(self.N_PRIMS - 1)]
        vars_ = [GenVar(f"p{i}", "prim", p[0], p[1], prim=p)
                 for i, p in enumerate(prims)]
        for i in range(self.N_ARRAYS):
            p, n = rng.choice(PRIMS), rng.randint(2, 4)
            vars_.append(GenVar(f"a{i}", "array", f"{p[0]}[{n}]",
                                _ceil_slot(n * p[1]), prim=p, length=n))
        vars_.append(GenVar("s0", "struct", self.struct_name, struct_size))
        vp = rng.choice(NUMERIC)
        vars_.append(GenVar("m0", "mapping", f"mapping(uint256 => {vp[0]})",
                            SLOT, prim=vp))
        dp = rng.choice(NUMERIC)
        vars_.append(GenVar("d0", "dyn", f"{dp[0]}[]", SLOT, prim=dp))
        rng.shuffle(vars_)
        self.vars = vars_

    def _of(self, kind, numeric=False):
        return self.rng.choice([v for v in self.vars if v.kind == kind
                                and (not numeric or v.prim in NUMERIC)])

    def _prim_stmt(self) -> str:
        rng = self.rng
        v = self._of("prim")
        if v.prim in NUMERIC and rng.random() < 0.5:
            return f"{v.name} = {v.name} % 100 + {rng.randint(0, 100)};"
        if v.prim[0] == "bool" and rng.random() < 0.5:
            return f"{v.name} = !{v.name};"
        return f"{v.name} = {_literal(rng, v.prim)};"

    def _stmt(self, kind: str) -> str:
        rng = self.rng
        if kind == "prim":
            return self._prim_stmt()
        if kind == "array":
            v = self._of("array")
            return f"{v.name}[{rng.randrange(v.length)}] = " \
                   f"{_literal(rng, v.prim)};"
        if kind == "struct":
            name, p, n = rng.choice(self.struct_fields)
            at = f"s0.{name}[{rng.randrange(n)}]" if n else f"s0.{name}"
            return f"{at} = {_literal(rng, p)};"
        if kind == "mapping":
            return f"m0[{rng.randint(0, 50)}] = {rng.randint(0, 100)};"
        if kind == "dyn":
            return f"d0.push({rng.randint(0, 100)});"
        # if/else on a numeric primitive, one assignment per branch
        v = self._of("prim", numeric=True)
        return f"if ({v.name} < {rng.randint(0, 120)}) " \
               f"{{ {self._prim_stmt()} }} else {{ {self._prim_stmt()} }}"

    def build(self) -> GenContract:
        rng = self.rng
        first_numeric = next(v for v in self.vars if v.kind == "prim"
                             and v.prim in NUMERIC)
        lines = [f"contract {self.name} {{", f"   struct {self.struct_name} {{"]
        for name, p, n in self.struct_fields:
            lines.append(f"      {p[0]}{f'[{n}]' if n else ''} {name};")
        lines.append("   }")
        for v in self.vars:
            init = f" = {rng.randint(1, 100)}" if v is first_numeric else ""
            lines.append(f"   {v.src} {v.name}{init};")
        functions = []
        for i in range(self.N_FUNCTIONS):
            # one hashed slot per contract: this workload is about the front
            # end and packing, with almost no Keccak or snapshot work
            kinds = ["prim", "array", "struct", "ifelse",
                     rng.choice(("mapping", "dyn")) if i == 0 else "prim"]
            rng.shuffle(kinds)
            lines.append(f"   function f{i}() public {{")
            lines += [f"      {self._stmt(kind)}" for kind in kinds]
            lines.append("   }")
            functions.append(f"f{i}")
        lines.append("}")
        addrs, lam = _place([(v.size, v.kind == "prim") for v in self.vars])
        return GenContract(name=self.name, source="\n".join(lines) + "\n",
                           functions=functions,
                           expected=[(v.name, a) for v, a in zip(self.vars, addrs)],
                           lam=lam)


class CompileLayout:
    """Many seeded synthetic contracts: lexer, parser, register and typesys
    packing dominate, with almost no snapshot or Keccak work. Runnable, but
    not in BENCHMARK.json, so no bound is kept on it."""
    name = "compile_layout"

    def __init__(self, contracts: int = 40, setup_reps: int = 3):
        self.n_contracts = contracts
        self.setup_reps = setup_reps

    def sizes(self) -> dict:
        return {"contracts_per_episode": self.n_contracts,
                "state_vars_per_contract": _ContractGen.N_PRIMS
                + _ContractGen.N_ARRAYS + 3,
                "functions_per_contract": _ContractGen.N_FUNCTIONS,
                "setup_reps": self.setup_reps}

    def inputs(self, seed: int) -> dict:
        rng = random.Random(f"{self.name}:{seed}")
        deployer = _address(rng)
        contracts = [_ContractGen(rng, k).build()
                     for k in range(self.n_contracts)]
        return {"deployer": deployer, "contracts": contracts,
                "ops": list(range(self.n_contracts))}

    def setup(self, inputs) -> State:
        worlds = []
        for c in inputs["contracts"]:
            world = World()
            world.register(solsem.parse(c.source, filename=f"{c.name}.sol"))
            worlds.append(world)
        return State(worlds=worlds, executors=[Executor(w) for w in worlds],
                     handles={"deployer": inputs["deployer"],
                              "contracts": inputs["contracts"]})

    def before_op(self, state: State, op: int):
        return None

    def run_op(self, state: State, op: int):
        world, ex = state.worlds[op], state.executors[op]
        c = state.handles["contracts"][op]
        sender = state.handles["deployer"]
        try:
            address = ex.deploy(c.name, sender=sender)
        except SolsemError as err:
            return err
        steps = world.stmt_steps
        results = [ex.run_transaction(Tx(sender=sender, to=address, fname=f))
                   for f in c.functions]
        return steps, results, solsem.dump_layout(world, address)

    def check_op(self, state: State, op: int, pre, out) -> int:
        """Every call is ok; every var sits where byte stepping puts it."""
        if isinstance(out, SolsemError):
            state.aborts += 1
            return 1
        steps, results, rep = out
        c = state.handles["contracts"][op]
        state.steps += steps + sum(r.steps for r in results)
        state.aborts += sum(not r.ok for r in results)
        placed = [(v.name, v.byte_addr) for v in rep.vars]
        return int(not all(r.ok for r in results)
                   or placed != c.expected or rep.lam != c.lam)

    def check_final(self, state: State, inputs, reports) -> int:
        return sum(len(r.findings) for r in reports)


WORKLOADS = {w.name: w for w in (CoinHistory, DaoDrain, CompileLayout)}
