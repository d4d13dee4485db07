"""Command-line entry point.

    solsem run contracts.sol ... [--scenario run.scn] [--detect-reentrancy]
    solsem layout contracts.sol --contract Name [--json]

Exit codes: 0 on success with all assertions passing and no findings;
1 when an assertion fails or reentrancy findings exist; 2 on a usage error
(an unknown flag, or a --max-steps, --max-call-depth or SOLSEM_MAX_STEPS
that is not a non-negative integer; nothing runs), on parse or semantic
errors (diagnostics go to standard error as file:line:col, a scenario's
as scenario-file: line N), on a run halted by an aborted deploy or
transaction, and on an engine fault; a halt or a fault is reported in one
line on standard error.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys

from .errors import SolsemError
from .harness import (
    DEFAULT_SENDER, _render_value, detect_reentrancy, dump_layout,
    parse_scenario, run_main_contract, run_scenario,
)
from .executor import Executor
from .parser import parse
from .state import EngineOptions, World
from .trace import committed


def _build_arg_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="solsem",
        description="Executable semantics for a Solidity subset")
    sub = ap.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="deploy and execute contracts")
    run.add_argument("files", nargs="+", help=".sol source files")
    run.add_argument("--scenario", help="scenario script; otherwise a "
                                        "contract named Main drives the run")
    run.add_argument("--trace", help="write the ND-JSON trace here ('-' = stdout)")
    run.add_argument("--detect-reentrancy", action="store_true")
    run.add_argument("--emit-layout", action="store_true",
                     help="include storage layouts of deployed instances")
    run.add_argument("--json", action="store_true", help="machine output")
    _engine_flags(run)

    layout = sub.add_parser("layout", help="deploy one contract and dump its "
                                           "storage layout")
    layout.add_argument("file", help=".sol source file")
    layout.add_argument("--contract", required=True)
    layout.add_argument("--json", action="store_true")
    _engine_flags(layout)
    return ap


def _non_negative_int(text: str) -> int:
    try:
        value = int(text)
        if value >= 0:
            return value
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(
        f"expected a non-negative integer, got {text!r}")


def _engine_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--evm-hash-order", action="store_true",
                   help="hash key||slot (real-chain order) instead of slot||key")
    # argparse runs a string default through `type` too, so a malformed
    # SOLSEM_MAX_STEPS is a usage error like a malformed --max-steps
    p.add_argument("--max-steps", type=_non_negative_int,
                   default=os.environ.get("SOLSEM_MAX_STEPS") or None,
                   help="per-transaction statement budget "
                        "(env SOLSEM_MAX_STEPS)")
    p.add_argument("--max-call-depth", type=_non_negative_int, default=1024)


def _options(args) -> EngineOptions:
    return EngineOptions(evm_hash_order=args.evm_hash_order,
                         max_steps=args.max_steps,
                         max_call_depth=args.max_call_depth)


def _load_world(paths, options) -> World:
    world = World(options=options)
    for path in paths:
        with open(path, "r", encoding="utf-8") as fh:
            source = fh.read()
        try:
            unit = parse(source, filename=path)
            world.register(unit)
        except SolsemError as err:
            print(err.diagnostic(path), file=sys.stderr)
            raise _CliExit(2)
    return world


class _CliExit(Exception):
    def __init__(self, code: int):
        self.code = code


def _cmd_run(args) -> int:
    world = _load_world(args.files, _options(args))
    try:
        if args.scenario:
            with open(args.scenario, "r", encoding="utf-8") as fh:
                scenario = parse_scenario(fh.read())
            outcome = run_scenario(world, scenario)
        else:
            if "Main" not in world.registry:
                print("error: no --scenario and no contract named Main",
                      file=sys.stderr)
                return 2
            outcome = run_main_contract(world)
    except SolsemError as err:
        print(err.diagnostic(args.scenario or "<run>"), file=sys.stderr)
        return 2

    findings = detect_reentrancy(world.trace.events) \
        if args.detect_reentrancy else []
    layouts = []
    if args.emit_layout:
        for handle, address in outcome.handles.items():
            layouts.append((handle, dump_layout(world, address)))

    if args.trace:
        ndjson = world.trace.to_ndjson()
        if args.trace == "-":
            sys.stdout.write(ndjson)
        else:
            with open(args.trace, "w", encoding="utf-8") as fh:
                fh.write(ndjson)

    # stdout holds nothing but a trace written there: the report goes to stderr
    with contextlib.redirect_stdout(sys.stderr if args.trace == "-"
                                    else sys.stdout):
        if args.json:
            doc = {
                "transactions": world.tx_count,
                "halted": outcome.halted,
                "actions": [{"description": r.description, "ok": r.ok,
                             "detail": r.detail} for r in outcome.results],
                "findings": [f.to_json() for f in findings],
                "events": len(world.trace),
            }
            if layouts:
                doc["layouts"] = {h: rep.to_json() for h, rep in layouts}
            print(json.dumps(doc, indent=2, sort_keys=True))
        else:
            for r in outcome.results:
                mark = "ok" if r.ok else "FAIL"
                detail = f"  ({r.detail})" if r.detail else ""
                print(f"[{mark}] {r.description}{detail}")
            for ev in committed(world.trace.events):
                if ev.rule == "WARN":
                    print(f"warning: {ev.note}", file=sys.stderr)
            for f in findings:
                path = " -> ".join(f"{a:#x}.{fn}" for a, fn in f.path)
                print(f"REENTRANCY {f.victim:#x}.{f.fn}: reentered at event "
                      f"{f.reentrant_seq} (outer frame from event "
                      f"{f.outer_seq}); {len(f.writes_after)} storage write(s) "
                      f"after reentry; path {path}")
            if layouts:
                for handle, rep in layouts:
                    _print_layout(rep, handle)

    if outcome.halted:
        failed = outcome.results[-1]
        print(f"error: {failed.description}: {failed.detail}", file=sys.stderr)
        return 2
    if not outcome.assertions_ok or findings:
        return 1
    return 0


def _print_layout(rep, handle=None) -> None:
    title = f"{rep.contract}" + (f" ({handle})" if handle else "")
    print(f"layout of {title} at {rep.address:#x}   lambda={rep.lam}")
    print(f"  {'name':<16} {'type':<24} {'addr':>6} {'slot':>5} "
          f"{'off':>4} {'size':>5}  value")
    for v in rep.vars:
        print(f"  {v.name:<16} {v.type_str:<24} {v.byte_addr:>6} {v.slot:>5} "
              f"{v.offset:>4} {v.size:>5}  {_render_value(v.value)}")
    for region in rep.hashed_regions:
        key = region.get("key", region.get("index"))
        print(f"  [{region['kind']} base slot {region['baseSlot']} "
              f"key {key}] slot {region['slot']}"
              + (f" = {region['value']}" if region.get("value") is not None
                 else ""))


def _cmd_layout(args) -> int:
    world = _load_world([args.file], _options(args))
    if args.contract not in world.registry:
        print(f"error: contract {args.contract} not found in {args.file}",
              file=sys.stderr)
        return 2
    ex = Executor(world)
    try:
        address = ex.deploy(args.contract, sender=DEFAULT_SENDER)
    except SolsemError as err:
        print(err.diagnostic(args.file), file=sys.stderr)
        return 2
    rep = dump_layout(world, address)
    if args.json:
        print(json.dumps(rep.to_json(), indent=2, sort_keys=True))
    else:
        _print_layout(rep)
    return 0


def main(argv=None) -> int:
    args = _build_arg_parser().parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "layout":
            return _cmd_layout(args)
    except _CliExit as e:
        return e.code
    except SolsemError as err:
        print(err.diagnostic("<cli>"), file=sys.stderr)
        return 2
    except Exception as err:  # an engine fault: one line, not a traceback
        print(f"error: engine fault: {type(err).__name__}: {err}",
              file=sys.stderr)
        return 2
    return 2


if __name__ == "__main__":
    sys.exit(main())
