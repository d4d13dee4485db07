"""Every fixture run, pinned byte for byte.

`solsem run --detect-reentrancy --json --trace <file>` over each
`contracts/*.sol`, alone and with each `scenarios/*.scn`: the sha256 of its
standard output, standard error and NDJSON trace, and its exit code, must
equal the table in `golden_runs.json`. A change to the engine that is meant
to keep behaviour must keep every row; one that changes behaviour on
purpose regenerates the table and says why:

    PYTHONPATH=src python tests/test_golden.py --write
"""

import ast as pyast
import contextlib
import functools
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

from solsem import evaluator, typesys
from solsem.cli import main
from solsem.trace import RULE_LABELS

REPO = Path(__file__).resolve().parent.parent
TABLE = Path(__file__).resolve().parent / "golden_runs.json"


def _runs():
    """(key, argv) of every run, paths relative to the repo root."""
    contracts = sorted(p.name for p in (REPO / "contracts").glob("*.sol"))
    scenarios = sorted(p.name for p in (REPO / "scenarios").glob("*.scn"))
    for contract in contracts:
        for scenario in [None] + scenarios:
            argv = [f"contracts/{contract}"]
            if scenario is not None:
                argv += ["--scenario", f"scenarios/{scenario}"]
            yield f"{contract} {scenario or '-'}", argv


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _each_run():
    """(key, exit code, stdout, stderr, NDJSON trace or None) of every run,
    made from the repo root."""
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(REPO)
        try:
            for i, (key, argv) in enumerate(_runs()):
                trace = Path(tmp) / f"{i}.ndjson"
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), \
                        contextlib.redirect_stderr(err):
                    code = main(["run", *argv, "--detect-reentrancy", "--json",
                                 "--trace", str(trace)])
                yield key, code, out.getvalue(), err.getvalue(), \
                    trace.read_bytes() if trace.exists() else None
        finally:
            os.chdir(cwd)


def run_all() -> dict:
    """The table row of every run."""
    return {key: {"exit": code, "stdout": _sha(out.encode()),
                  "stderr": _sha(err.encode()),
                  "trace": None if trace is None else _sha(trace)}
            for key, code, out, err, trace in _each_run()}


def test_every_fixture_run_matches_its_pinned_digests():
    want = json.loads(TABLE.read_text())
    got = run_all()
    assert len(got) == 50
    assert sorted(got) == sorted(want)
    assert {k: v for k, v in got.items() if v != want[k]} == {}


@functools.cache
def _fixture_labels() -> frozenset:
    """Every rule label in the fixture runs' traces."""
    return frozenset(json.loads(line)["rule"] for *_, trace in _each_run()
                     if trace is not None for line in trace.splitlines())


def test_every_rule_label_in_the_fixture_traces_is_known():
    labels = _fixture_labels()
    assert {"Size1", "SR1", "Type3", "E-RV", "VD1"} <= labels
    assert labels - RULE_LABELS == set()


def _strings(node) -> set:
    return {n.value for n in pyast.walk(node)
            if isinstance(n, pyast.Constant) and isinstance(n.value, str)}


def _names(nodes) -> set:
    return {n.id for node in nodes for n in pyast.walk(node)
            if isinstance(n, pyast.Name)}


def _targets(node) -> list:
    """What an assignment assigns to; nothing for any other node."""
    if isinstance(node, pyast.Assign):
        return node.targets
    return [node.target] if isinstance(node, pyast.AugAssign) else []


def _functions():
    """(function, its nodes, its `emit(...)`, `rules(...)`, `enter(...)` and
    `leave(...)` calls) of each function in `src/solsem`."""
    for path in sorted((REPO / "src" / "solsem").glob("*.py")):
        for fn in pyast.walk(pyast.parse(path.read_text())):
            if isinstance(fn, pyast.FunctionDef):
                nodes = list(pyast.walk(fn))
                yield fn, nodes, [
                    n for n in nodes if isinstance(n, pyast.Call) and n.args
                    and getattr(n.func, "attr", getattr(n.func, "id", None))
                    in ("emit", "rules", "enter", "leave")]


def _source_labels() -> set:
    """The string constants of `src/solsem` that can reach a trace as rule
    labels: in the first argument of each `emit(...)`, `rules(...)`,
    `enter(...)` or `leave(...)` call (both branches of a conditional label
    too), in what a function assigns to a name it passes there, and in the
    label tuples `_access`, `typesys.sized` and `typesys.packed` build."""
    labels: set = set()
    for fn, nodes, calls in _functions():
        firsts = [call.args[0] for call in calls]
        sinks = _names(firsts)
        for node in firsts:
            labels |= _strings(node)
        for node in nodes:
            if sinks & _names(_targets(node)):
                labels |= _strings(node.value)
            elif fn.name in ("_access", "sized", "packed") \
                    and isinstance(node, pyast.Tuple):
                labels |= _strings(node)
    return labels


def _flat(x) -> set:
    """The strings of a string or of nested tuples of them."""
    return {x} if isinstance(x, str) else {s for y in x for s in _flat(y)}


def test_every_rule_label_in_the_source_is_known():
    # nothing checks a label as it is recorded, so each literal is checked here
    labels = _source_labels() | _flat([
        *evaluator._ACCESS_RULES.values(), *evaluator._LENGTH_RULES.values(),
        *(labels for _, labels in typesys._FIXED_SIZES.values())])
    assert labels - RULE_LABELS == set()
    # the scan finds every label a fixture run records
    assert _fixture_labels() <= labels


def test_every_warn_in_the_source_passes_a_note():
    # text mode prints a committed WARN as `warning: <note>`; a set, as a
    # call in a nested function is a node of its enclosing one too
    warns = {call for *_, calls in _functions() for call in calls
             if _strings(call.args[0]) == {"WARN"}}
    assert len(warns) == 3  # the three hazard sites
    assert all("note" in {k.arg for k in call.keywords} for call in warns)


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_golden.py --write")
    TABLE.write_text(json.dumps(run_all(), indent=1, sort_keys=True) + "\n")
