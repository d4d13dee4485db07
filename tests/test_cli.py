"""CLI behaviour: exit codes, output formats, and schema validation."""

import dataclasses
import json

import jsonschema
import pytest

from solsem import cli
from solsem.cli import main
from solsem.executor import Executor

from conftest import CLI_RUNS, CONTRACTS, SCENARIOS

TRACE_EVENT_SCHEMA = {
    "type": "object",
    "required": ["seq", "rule", "addr", "fn", "writes"],
    "properties": {
        "seq": {"type": "integer", "minimum": 1},
        "rule": {"type": "string"},
        "addr": {"type": ["string", "null"], "pattern": "^0x[0-9a-f]+$"},
        "fn": {"type": ["string", "null"]},
        "writes": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["space", "at", "bytes"],
                "properties": {
                    "space": {"enum": ["storage", "memory"]},
                    "at": {"type": "string", "pattern": "^0x[0-9a-f]+$"},
                    "bytes": {"type": "string", "pattern": "^0x[0-9a-f]*$"},
                },
            },
        },
        "call": {"type": "object"},
        "value": {"type": "integer"},
    },
}


def _validator(schema):
    """A validator built once, after one check of the schema itself:
    `jsonschema.validate` checks the schema again on every call, which
    costs far more than checking one trace line."""
    cls = jsonschema.validators.validator_for(schema)
    cls.check_schema(schema)
    return cls(schema)


TRACE_EVENT_VALIDATOR = _validator(TRACE_EVENT_SCHEMA)

LAYOUT_SCHEMA = {
    "type": "object",
    "required": ["contract", "lambda", "vars", "hashedRegions"],
    "properties": {
        "contract": {"type": "string"},
        "lambda": {"type": "integer", "minimum": 0},
        "vars": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["name", "type", "byteAddr", "slot", "offset",
                             "size", "value"],
                "properties": {
                    "name": {"type": "string"},
                    "type": {"type": "string"},
                    "byteAddr": {"type": "integer", "minimum": 0},
                    "slot": {"type": "integer", "minimum": 0},
                    "offset": {"type": "integer", "minimum": 0, "maximum": 31},
                    "size": {"type": "integer", "minimum": 1},
                    "value": {"type": ["string", "null"]},
                },
            },
        },
        "hashedRegions": {"type": "array"},
    },
}


def _path(kind, name):
    return str((CONTRACTS if kind == "c" else SCENARIOS) / name)


def test_dao_run_exits_one_and_prints_finding(capsys):
    code = main(["run", _path("c", "dao.sol"),
                 "--scenario", _path("s", "dao.scn"), "--detect-reentrancy"])
    out = capsys.readouterr().out
    assert code == 1
    assert "REENTRANCY" in out
    assert "withdraw" in out


def test_fixed_dao_run_exits_zero(capsys):
    code = main(["run", _path("c", "dao_fixed.sol"),
                 "--scenario", _path("s", "dao_fixed.scn"),
                 "--detect-reentrancy"])
    assert code == 0
    assert "REENTRANCY" not in capsys.readouterr().out


def test_a_committed_warning_prints_its_note_and_keeps_exit_zero(tmp_path,
                                                                  capsys):
    scn = tmp_path / "foo2.scn"
    scn.write_text("deploy t Test2 () from 0xA\ntx t.foo2() from 0xA\n")
    code = main(["run", _path("c", "test2.sol"), "--scenario", str(scn)])
    assert code == 0
    assert capsys.readouterr().err.splitlines() == [
        "warning: uninitialized storage pointer d references storage slot 0"]


def test_an_unfunded_low_level_call_prints_the_trace_note(capsys):
    code = main(["run", _path("c", "dao.sol"),
                 "--scenario", _path("s", "dao.scn")])
    assert code == 0
    assert capsys.readouterr().err.splitlines() == [
        "warning: low-level call failed: 0x1000 holds 0 wei, needs 2"]


def test_a_warning_of_an_aborted_transaction_is_not_printed(tmp_path, capsys):
    sol = tmp_path / "w.sol"
    sol.write_text("contract W { uint a;\n"
                   "  function f(uint d) public { uint[2] p; a = 1 / d; } }\n")
    scn = tmp_path / "w.scn"
    scn.write_text("deploy w W () from 0xA\ntx w.f(0) from 0xA\n")
    trace = tmp_path / "w.ndjson"
    code = main(["run", str(sol), "--scenario", str(scn),
                 "--trace", str(trace)])
    rules = [json.loads(line)["rule"] for line in trace.read_text()
             .splitlines()]
    assert rules.count("WARN") == 1 and rules[-1] == "TX-ABORT"
    assert code == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: tx w.f: ")


def test_empty_scenario_exits_zero(capsys):
    code = main(["run", _path("c", "coin.sol"),
                 "--scenario", _path("s", "empty.scn")])
    assert code == 0


def test_assert_failure_exits_one(tmp_path, capsys):
    scn = tmp_path / "bad.scn"
    scn.write_text("deploy coin Coin () from 0xA\n"
                   "assert coin.balances[0xB] == 7\n")
    code = main(["run", _path("c", "coin.sol"), "--scenario", str(scn)])
    assert code == 1
    assert "FAIL" in capsys.readouterr().out


@pytest.mark.parametrize("body,message", [
    ("  function f() public { assembly { } }", "2:25: unsupported feature: "
                                                "assembly"),
    ("  uint24 a;", "2:3: unsupported feature: uint24"),
])
def test_parse_error_exits_two_with_position(tmp_path, capsys, body, message):
    bad = tmp_path / "bad.sol"
    bad.write_text(f"contract X {{\n{body}\n}}\n")
    code = main(["run", str(bad)])
    err = capsys.readouterr().err
    assert code == 2
    assert err == f"{bad}:{message}\n"


def test_ill_typed_contract_exits_two_before_any_deploy(tmp_path, capsys,
                                                       monkeypatch):
    bad = tmp_path / "bad.sol"
    bad.write_text("contract Main {\n  uint a; bool b;\n"
                   "  function main() public {\n    a = 1;\n"
                   "    if (false) { a = b + 1; }\n  }\n}\n")
    trace = tmp_path / "trace.ndjson"
    deployed = []
    monkeypatch.setattr(Executor, "deploy",
                        lambda *args, **kw: deployed.append(args))
    code = main(["run", str(bad), "--trace", str(trace)])
    out, err = capsys.readouterr()
    assert code == 2
    assert (out, err) == ("", f"{bad}:5:24: arithmetic on non-numeric "
                              f"types bool/uint256\n")
    assert not trace.exists() and deployed == []


def test_unpackable_struct_field_exits_two_with_position(tmp_path, capsys):
    # checked where the struct is declared, not when a layout sizes it
    bad = tmp_path / "bad.sol"
    bad.write_text("contract Main {\n  struct S { string n; uint x; }\n"
                   "  S s;\n  function main() public { }\n}\n")
    code = main(["run", str(bad)])
    out, err = capsys.readouterr()
    assert code == 2
    assert (out, err) == ("", f"{bad}:2:14: string cannot be packed inside "
                              f"a struct\n")


def test_a_placeholder_outside_a_modifier_exits_two_with_position(tmp_path,
                                                                   capsys):
    # it parses; registration rejects it, before anything deploys
    bad = tmp_path / "bad.sol"
    bad.write_text("contract X { function f() public { _; } }\n")
    code = main(["run", str(bad)])
    assert code == 2
    assert capsys.readouterr() == ("", f"{bad}:1:36: placeholder `_;` is "
                                       f"only valid inside a modifier body\n")


def test_missing_main_exits_two(capsys):
    code = main(["run", _path("c", "coin.sol")])
    assert code == 2
    assert "Main" in capsys.readouterr().err


def test_main_mode_runs_coverage(capsys):
    code = main(["run", _path("c", "coverage.sol")])
    assert code == 0
    out = capsys.readouterr().out
    assert "tx main.main" in out


def test_trace_ndjson_validates(tmp_path):
    rules = set()
    for contract_file, scn_file in CLI_RUNS:
        trace_path = tmp_path / f"{contract_file}.{scn_file}.ndjson"
        scenario = ["--scenario", _path("s", scn_file)] if scn_file else []
        code = main(["run", _path("c", contract_file), *scenario,
                     "--trace", str(trace_path)])
        assert code == 0
        lines = trace_path.read_text().splitlines()
        assert bool(lines) == (scn_file != "empty.scn")
        seqs = []
        for line in lines:
            doc = json.loads(line)
            TRACE_EVENT_VALIDATOR.validate(doc)
            # each line is the sorted-key json.dumps of its own event
            assert json.dumps(doc, sort_keys=True) == line
            seqs.append(doc["seq"])
            rules.add(doc["rule"])
        assert seqs == sorted(seqs)  # strictly increasing emission order
    assert "E-FUN1" in rules and "E-FUN2" in rules  # greppable labels


def test_trace_to_stdout_sends_the_report_to_stderr(tmp_path, capsys):
    argv = ["run", _path("c", "dao.sol"), "--scenario", _path("s", "dao.scn"),
            "--detect-reentrancy", "--json"]
    assert main(argv + ["--trace", "-"]) == 1
    streamed = capsys.readouterr()
    for line in streamed.out.splitlines():
        TRACE_EVENT_VALIDATOR.validate(json.loads(line))
    trace_path = tmp_path / "dao.ndjson"
    assert main(argv + ["--trace", str(trace_path)]) == 1
    assert streamed.out == trace_path.read_text()
    doc = json.loads(streamed.err)
    assert doc["findings"]
    assert {f["fn"] for f in doc["findings"]} == {"withdraw"}
    assert doc["events"] == len(streamed.out.splitlines())


def test_layout_json_validates(capsys):
    code = main(["layout", _path("c", "test2.sol"), "--contract", "Test2",
                 "--json"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    jsonschema.validate(doc, LAYOUT_SCHEMA)
    assert doc["lambda"] == 160
    byname = {v["name"]: v for v in doc["vars"]}
    assert byname["b"]["slot"] == 1 and byname["b"]["size"] == 128
    assert byname["a"]["value"] == "9"


def test_layout_unknown_contract_exits_two(capsys):
    code = main(["layout", _path("c", "test2.sol"), "--contract", "Nope"])
    assert code == 2


def test_layout_of_an_aborting_constructor_exits_two_with_one_line(tmp_path,
                                                                  capsys):
    bad = tmp_path / "bad.sol"
    bad.write_text("contract C { uint x; function C() { x = 1 / x; } }\n")
    code = main(["layout", str(bad), "--contract", "C"])
    assert code == 2
    assert capsys.readouterr() == \
        ("", f"{bad}: transaction aborted: / by zero\n")


def test_run_json_document(capsys):
    code = main(["run", _path("c", "dao.sol"),
                 "--scenario", _path("s", "dao.scn"),
                 "--detect-reentrancy", "--json"])
    assert code == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["findings"]
    f = doc["findings"][0]
    assert set(f) >= {"victim", "fn", "outerSeq", "reentrantSeq", "path",
                      "writesAfterReentry"}
    assert all(a["ok"] for a in doc["actions"])


def test_emit_layout_flag(capsys):
    code = main(["run", _path("c", "test4.sol"), "--scenario", "/dev/null",
                 "--emit-layout", "--json"])
    assert code == 0
    capsys.readouterr()
    # in text mode, each handle's layout follows the report, hashed regions
    # after the variables
    code = main(["run", _path("c", "coin.sol"), "--scenario",
                 _path("s", "coin.scn"), "--emit-layout"])
    lines = capsys.readouterr().out.splitlines()
    assert code == 0
    assert lines[6].startswith("layout of Coin (coin) at 0x1000")
    assert lines[-2].startswith("  [mapping base slot 1 key 2827] slot 0x")
    assert lines[-2].endswith(" = 2")


def test_stdout_is_deterministic(capsys):
    argv = ["run", _path("c", "dao.sol"), "--scenario", _path("s", "dao.scn"),
            "--detect-reentrancy", "--json"]
    main(argv)
    first = capsys.readouterr().out
    main(argv)
    second = capsys.readouterr().out
    assert first == second


def test_max_steps_env_var(tmp_path, monkeypatch, capsys):
    src = tmp_path / "spin.sol"
    src.write_text("contract Main { uint x;\n"
                   "  function main() public { while (true) { x = x + 1; } }\n"
                   "}\n")
    monkeypatch.setenv("SOLSEM_MAX_STEPS", "50")
    code = main(["run", str(src)])
    assert code == 2  # the transaction aborts, halting the implicit scenario
    assert "max steps" in capsys.readouterr().out


@pytest.mark.parametrize("flags, env, error", [
    ([], "lots", "argument --max-steps: expected a non-negative integer, "
                 "got 'lots'"),
    (["--max-steps", "-5"], None,
     "argument --max-steps: expected a non-negative integer, got '-5'"),
    (["--max-call-depth", "-1"], None,
     "argument --max-call-depth: expected a non-negative integer, got '-1'"),
], ids=["env-max-steps", "max-steps", "max-call-depth"])
def test_malformed_engine_limit_is_a_usage_error(monkeypatch, capsys, flags,
                                                 env, error):
    if env is None:
        monkeypatch.delenv("SOLSEM_MAX_STEPS", raising=False)
    else:
        monkeypatch.setenv("SOLSEM_MAX_STEPS", env)
    deploys = []
    monkeypatch.setattr(Executor, "deploy",
                        lambda self, *a, **k: deploys.append(a))
    with pytest.raises(SystemExit) as exc:
        main(["run", _path("c", "coin.sol"),
              "--scenario", _path("s", "coin.scn"), *flags])
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert deploys == [] and captured.out == ""
    assert captured.err.splitlines()[-1] == f"solsem run: error: {error}"


@pytest.mark.parametrize("line, field", [
    ("deploy d Coin () from 0xA value 1x", "1x"),
    ("tx c.mint(0xB, 5) from 0xA gas 0x", "0x"),
    ("tx c.mint(0xB, 5) from 0xA value -3", "-3"),
], ids=["value", "gas", "negative-value"])
def test_malformed_scenario_integer_is_a_scenario_error(tmp_path, capsys,
                                                        line, field):
    scn = tmp_path / "bad.scn"
    scn.write_text(f"deploy c Coin () from 0xA\n{line}\n")
    code = main(["run", _path("c", "coin.sol"), "--scenario", str(scn)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""  # rejected before anything deploys
    assert captured.err.splitlines() == [
        f"{scn}: line 2: expected a non-negative integer, got {field!r}"]


def test_malformed_assert_expression_names_its_scenario_line(tmp_path, capsys):
    scn = tmp_path / "bad.scn"
    scn.write_text("deploy c Coin () from 0xA\nassert c.nosuch( == 1\n")
    code = main(["run", _path("c", "coin.sol"), "--scenario", str(scn)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.splitlines() == [
        f"{scn}: line 2: unexpected token 'eof'"]


def test_unknown_handle_in_tx_arguments_halts_that_action(tmp_path, capsys):
    scn = tmp_path / "h.scn"
    scn.write_text("deploy c Coin () from 0xA\n"
                   "tx c.mint(nosuch, 5) from 0xA\n"
                   "assert c.minter == 0xA\n")
    code = main(["run", _path("c", "coin.sol"), "--scenario", str(scn)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out.splitlines() == [
        "[ok] deploy c = Coin  (at 0x1000)",
        "[FAIL] tx c.mint  (unknown handle nosuch)"]
    assert captured.err.splitlines() == [
        "error: tx c.mint: unknown handle nosuch"]


def test_a_bool_argument_to_an_address_parameter_halts_the_run(tmp_path,
                                                               capsys):
    scn = tmp_path / "b.scn"
    scn.write_text("deploy c Coin () from 0xA\n"
                   "tx c.mint(true, 5) from 0xA\n"
                   "assert c.balances[1] == 0\n")
    code = main(["run", _path("c", "coin.sol"), "--scenario", str(scn)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out.splitlines()[1:] == [
        "[FAIL] tx c.mint  (transaction aborted: True is not a value of "
        "type address)"]
    assert captured.err.splitlines() == [
        "error: tx c.mint: transaction aborted: True is not a value of type "
        "address"]


def test_unknown_handle_as_expected_value_fails_that_assert(tmp_path, capsys):
    scn = tmp_path / "h.scn"
    scn.write_text("deploy c Coin () from 0xA\n"
                   "assert c.balances[0xB] == nosuch\n"
                   "assert c.minter == 0xA\n")
    code = main(["run", _path("c", "coin.sol"), "--scenario", str(scn)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out.splitlines() == [
        "[ok] deploy c = Coin  (at 0x1000)",
        "[FAIL] assert c.balances[0xB]  (unknown handle nosuch)",
        "[ok] assert c.minter"]
    assert captured.err == ""


def test_evm_hash_order_flag_changes_layout(capsys):
    main(["layout", _path("c", "test4.sol"), "--contract", "Test4", "--json"])
    capsys.readouterr()
    # run foo4 under both orders via scenarios and compare hashed slots
    import tempfile, os
    with tempfile.TemporaryDirectory() as d:
        scn = os.path.join(d, "s.scn")
        with open(scn, "w") as fh:
            fh.write("deploy t Test4 () from 0xA\ntx t.foo4() from 0xA\n")
        main(["run", _path("c", "test4.sol"), "--scenario", scn,
              "--emit-layout", "--json"])
        default = json.loads(capsys.readouterr().out)
        main(["run", _path("c", "test4.sol"), "--scenario", scn,
              "--emit-layout", "--json", "--evm-hash-order"])
        flipped = json.loads(capsys.readouterr().out)
    slots_default = {r["slot"] for r in default["layouts"]["t"]["hashedRegions"]}
    slots_flipped = {r["slot"] for r in flipped["layouts"]["t"]["hashedRegions"]}
    assert slots_default and slots_flipped
    assert slots_default.isdisjoint(slots_flipped)


def test_duplicate_contract_across_files_exits_two(capsys):
    code = main(["run", _path("c", "dao.sol"), _path("c", "dao_fixed.sol"),
                 "--scenario", _path("s", "empty.scn")])
    assert code == 2
    assert "already registered" in capsys.readouterr().err


def test_layout_human_output(capsys):
    code = main(["layout", _path("c", "test.sol"), "--contract", "Test"])
    assert code == 0
    out = capsys.readouterr().out
    assert "lambda=64" in out
    assert "uint128" in out and "uint256" in out


def test_stack_exhaustion_exits_two_with_one_line(tmp_path, capsys):
    # at bank value 400 the drain nests past the Python stack
    scn = tmp_path / "dao400.scn"
    scn.write_text("deploy bank Bank () from 0xA11CE value 400\n"
                   "deploy attack Attack (bank) from 0xBADD1E value 2\n"
                   "tx attack.addToBalance() from 0xBADD1E\n"
                   "tx attack.withdrawBalance() from 0xBADD1E\n")
    code = main(["run", _path("c", "dao.sol"), "--scenario", str(scn)])
    err = capsys.readouterr().err
    assert code == 2
    assert len(err.splitlines()) == 1
    assert "stack limit" in err


def test_engine_fault_exits_two_with_one_line(monkeypatch, capsys):
    def fault(world, step):
        raise RuntimeError("boom")

    options = cli._options
    monkeypatch.setattr(cli, "_options", lambda args: dataclasses.replace(
        options(args), step_hook=fault))
    code = main(["run", _path("c", "coin.sol"),
                 "--scenario", _path("s", "coin.scn")])
    assert code == 2
    assert capsys.readouterr().err.splitlines() == \
        ["error: engine fault: RuntimeError: boom"]
