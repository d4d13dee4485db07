"""Line reach of the tier-1 suite: the lines of each `src/solsem` module that
no test runs.

Run from the repository root (extra arguments go to pytest):

    PYTHONPATH=src python tests/reach.py [pytest args]

It runs the suite in this process under `sys.settrace`, then prints, per
module, the lines that the compiler gives code to (`co_lines`) and that
never ran, as ranges; the exit status is pytest's. Pytest does not collect
this file (its name is not `test_*.py`). A tracer is dropped for good when
it raises, so it is armed again around every test by a plugin hook.

Blind spots:

- a test that hits the interpreter's stack limit raises RecursionError in
  the tracer too, which turns tracing off for the rest of that test: the
  RecursionError bracket of `Executor._transact` reads as never run even
  though the CLI and executor tests reach it;
- a test that fails only under tracing: the tracer allocates, so
  `bench/tests/test_bench.py::test_probe_starts_no_collection` (no garbage
  collection during the host-speed probe) fails here and passes in tier-1.
  Its lines are still counted.
"""

import os
import sys
import types
from collections import defaultdict
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "solsem"


def _executable(path: Path) -> list:
    """The sorted lines of `path` that its compiled code runs."""
    lines, todo = set(), [compile(path.read_text(), str(path), "exec")]
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        todo += [c for c in code.co_consts if isinstance(c, types.CodeType)]
    return sorted(lines)


def _ranges(lines: list, missed: set) -> list:
    """`missed` as runs of consecutive executable `lines`: "a-b" or "a"."""
    runs, run = [], []
    for line in lines + [None]:
        if line in missed:
            run.append(line)
        elif run:
            runs.append(f"{run[0]}-{run[-1]}" if len(run) > 1 else
                        f"{run[0]}")
            run = []
    return runs


class Reach:
    """The pytest plugin: records each line run in a `src/solsem` file."""

    def __init__(self):
        self.hits = defaultdict(set)  # file name -> lines run
        self.ours = {}  # code file name -> whether it is under SRC

    def trace(self, frame, event, arg):
        name = frame.f_code.co_filename
        ours = self.ours.get(name)
        if ours is None:
            ours = self.ours[name] = \
                Path(name).resolve().parent == SRC
        if not ours:
            return None
        hits = self.hits[name]

        def line(frame, event, arg):
            if event == "line":
                hits.add(frame.f_lineno)
            return line
        return line

    @pytest.hookimpl(hookwrapper=True)
    def pytest_runtest_protocol(self, item, nextitem):
        sys.settrace(self.trace)
        yield

    def report(self) -> None:
        hits = defaultdict(set)
        for name, lines in self.hits.items():
            hits[Path(name).resolve()] |= lines
        for path in sorted(SRC.glob("*.py")):
            lines = _executable(path)
            missed = set(lines) - hits[path]
            where = os.path.relpath(path)
            if missed:
                print(f"{where}: {len(missed)} of {len(lines)} lines never "
                      f"ran: {', '.join(_ranges(lines, missed))}")
            else:
                print(f"{where}: every line ran")


def main(argv: list) -> int:
    plugin = Reach()
    sys.settrace(plugin.trace)  # imports during collection count too
    try:
        code = pytest.main(["-q", "--continue-on-collection-errors",
                            "-p", "no:cacheprovider", *argv],
                           plugins=[plugin])
    finally:
        sys.settrace(None)
    plugin.report()
    return int(code)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
