import gc
import sys
from pathlib import Path

import pytest

from solsem import Executor, World, parse
from solsem.evaluator import Evaluator, LValue, _Compiler
from solsem.harness import eval_readonly
from solsem.parser import parse_expression
from solsem.trace import Trace

REPO = Path(__file__).resolve().parent.parent
CONTRACTS = REPO / "contracts"
SCENARIOS = REPO / "scenarios"

sys.path.insert(0, str(Path(__file__).resolve().parent))

FIXTURE_CONTRACTS = sorted(p.name for p in CONTRACTS.glob("*.sol"))
FIXTURE_SCENARIOS = sorted(p.name for p in SCENARIOS.glob("*.scn"))
# the CLI's fixture runs: (contract, scenario), None for the Main mode
CLI_RUNS = (("dao.sol", "dao.scn"), ("dao_fixed.sol", "dao_fixed.scn"),
            ("coin.sol", "coin.scn"), ("coin.sol", "empty.scn"),
            ("coverage.sol", None))


def contract_source(name: str) -> str:
    return (CONTRACTS / name).read_text()


def scenario_source(name: str) -> str:
    return (SCENARIOS / name).read_text()


class BoundEvaluator(Evaluator):
    """An Evaluator whose expressions also read the locals a test binds, in
    a frame of its own: the instance's base frame is left untouched."""

    def __init__(self, ev):
        super().__init__(ev.executor, ev.address, ev.config, [])
        self.names = {}  # name -> (index, Located)

    def type_of(self, e):
        return _compile(self, e)[1]


def bind_local(ev, name: str, located, addr: int) -> BoundEvaluator:
    """`ev` (as a BoundEvaluator) with local `name` bound at addr: a slot
    appended to its frame, and the name."""
    if not isinstance(ev, BoundEvaluator):
        ev = BoundEvaluator(ev)
    ev.names[name] = (len(ev.locals), located)
    ev.locals.append(addr)
    return ev


def _compile(ev, e, lvalue=False):
    """`e` compiled against the evaluator's instance and bound locals, as
    `compile_expression` compiles it with none: run(ev) returns its value,
    or with `lvalue` its address."""
    world = ev.world
    info = world.registry[world.instance(ev.address).contract_name]
    c = _Compiler(world.registry, Trace(), info, getattr(ev, "names", {}))
    return c.lvalue(e) if lvalue else c.typed(e)


def eval_lvalue(ev, e) -> LValue:
    """The address and type of `e`, compiled against the evaluator."""
    run, located = _compile(ev, e, lvalue=True)
    return LValue(run(ev), located)


def eval_typed(ev, e) -> tuple:
    """(value, SemType) of `e`, compiled against the evaluator."""
    run, located = _compile(ev, e)
    return run(ev), located.sem


def read(world: World, address: int, text: str):
    """The value of expression `text` of the instance at `address`, read as
    a scenario assert reads it: the world's state and trace stay as they
    are."""
    return eval_readonly(world, address, parse_expression(text))


def python_calls(run) -> int:
    """The Python `call` events that sys.setprofile reports during run(),
    with the cycle collector off, so no finalizer runs in between."""
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        calls += event == "call"
    gc.collect()
    gc.disable()
    sys.setprofile(count)
    try:
        run()
    finally:
        sys.setprofile(None)
        gc.enable()
    return calls


def python_bytecodes(run) -> int:
    """The opcode events that sys.settrace reports during run(), with the
    cycle collector off. The tracer in place before (tests/reach.py's) is
    put back afterwards."""
    count = 0

    def opcodes(frame, event, arg):
        nonlocal count
        if event == "call":
            frame.f_trace_lines, frame.f_trace_opcodes = False, True
        else:
            count += event == "opcode"
        return opcodes
    previous = sys.gettrace()
    gc.collect()
    gc.disable()
    sys.settrace(opcodes)
    try:
        run()
    finally:
        sys.settrace(previous)
        gc.enable()
    return count


def make_world(*contract_files: str, options=None) -> World:
    world = World(options=options)
    for name in contract_files:
        world.register(parse(contract_source(name), filename=name))
    return world


def world_from_source(source: str, options=None) -> World:
    world = World(options=options)
    world.register(parse(source))
    return world


@pytest.fixture
def coin_world():
    return make_world("coin.sol")


@pytest.fixture
def dao_world():
    return make_world("dao.sol")


def deploy(world: World, name: str, args=(), sender: int = 0xD0, value: int = 0):
    return Executor(world).deploy(name, args=args, sender=sender, value=value)
