"""Every fixture run, pinned byte for byte.

`solsem run --detect-reentrancy --json --trace <file>` over each
`contracts/*.sol`, alone and with each `scenarios/*.scn`: the sha256 of its
standard output, standard error and NDJSON trace, and its exit code, must
equal the table in `golden_runs.json`. A change to the engine that is meant
to keep behaviour must keep every row; one that changes behaviour on
purpose regenerates the table and says why:

    PYTHONPATH=src python tests/test_golden.py --write
"""

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

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


def test_every_rule_label_in_the_fixture_traces_is_known():
    # `emit` checks its label; pure labels reach the trace through
    # `Trace.rules`, which checks none
    labels = {json.loads(line)["rule"] for *_, trace in _each_run()
              if trace is not None for line in trace.splitlines()}
    assert {"Size1", "SR1", "Type3", "E-RV", "VD1"} <= labels
    assert labels - RULE_LABELS == set()


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_golden.py --write")
    TABLE.write_text(json.dumps(run_all(), indent=1, sort_keys=True) + "\n")
