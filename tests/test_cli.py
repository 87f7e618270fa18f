"""``hmlbn`` sub-commands end to end through ``cli.main``: what each writes
or prints, and its exit code on success, on bad input and on a mismatch."""

import json
from pathlib import Path

import pytest

from hmlbn import cli
from hmlbn.analysis import penalty_table, penalty_table_csv
from hmlbn.scenario import load_scenario
from hmlbn.simulator import run_scenario

from helpers import with_token

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"
STARTUP = str(SCENARIO_DIR / "startup.json")
# each bundled pattern and the scenario that produces it
PATTERNS = {"startup": "startup", "intra_area": "intra_area_handoff",
            "inter_area": "inter_area_handoff"}


@pytest.fixture(scope="module")
def startup_sim():
    return run_scenario(load_scenario(STARTUP))


def _pattern(name):
    return str(SCENARIO_DIR / "patterns" / f"{name}.json")


def test_run_writes_the_simulations_outputs(tmp_path, startup_sim, capsys):
    assert cli.main(["run", "--scenario", STARTUP,
                     "--out", str(tmp_path)]) == cli.EXIT_OK
    assert (tmp_path / "trace.jsonl").read_bytes() \
        == startup_sim.trace_jsonl().encode("utf-8")
    assert (tmp_path / "metrics.csv").read_bytes() \
        == startup_sim.metrics.to_csv().encode("utf-8")
    assert "delivered" in capsys.readouterr().out


@pytest.mark.parametrize("command", ["run", "dump", "check-sequence"])
def test_missing_scenario_file_is_a_validation_failure(tmp_path, command,
                                                       capsys):
    extra = {"run": ["--out", str(tmp_path / "out")], "dump": [],
             "check-sequence": ["--pattern", _pattern("startup")]}[command]
    assert cli.main([command, "--scenario", str(tmp_path / "missing.json")]
                    + extra) == cli.EXIT_VALIDATION
    problems = json.loads(capsys.readouterr().err)
    assert [p["path"] for p in problems] == ["$"]
    assert not (tmp_path / "out").exists()


def test_missing_pattern_file_is_a_validation_failure(tmp_path, capsys):
    assert cli.main(["check-sequence", "--scenario", STARTUP, "--pattern",
                     str(tmp_path / "missing.json")]) == cli.EXIT_VALIDATION
    assert "missing.json" in capsys.readouterr().err


@pytest.mark.parametrize("pattern", [
    {"name": "x"}, {"items": {"event": "ctl_send"}}, "items",
    [{"event": "ctl_send"}, "ctl_recv"]])
def test_malformed_pattern_is_a_validation_failure(tmp_path, pattern, capsys):
    path = tmp_path / "pattern.json"
    path.write_text(json.dumps(pattern), encoding="utf-8")
    assert cli.main(["check-sequence", "--scenario", STARTUP, "--pattern",
                     str(path)]) == cli.EXIT_VALIDATION
    captured = capsys.readouterr()
    assert "pattern.json" in captured.err and captured.out == ""


def test_validate_accepts_a_valid_file_and_rejects_a_bad_one(tmp_path,
                                                              capsys):
    assert cli.main(["validate", "--scenario", STARTUP]) == cli.EXIT_OK
    assert capsys.readouterr().out.endswith(": valid\n")
    doc = json.loads(Path(STARTUP).read_text(encoding="utf-8"))
    del doc["duration_s"]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc), encoding="utf-8")
    assert cli.main(["validate", "--scenario", str(bad)]) \
        == cli.EXIT_VALIDATION
    problems = json.loads(capsys.readouterr().err)
    assert {"path": "duration_s", "message": "missing"} in problems
    assert cli.main(["validate", "--scenario",
                     str(tmp_path / "missing.json")]) == cli.EXIT_VALIDATION
    problems = json.loads(capsys.readouterr().err)
    assert [p["path"] for p in problems] == ["$"]


@pytest.mark.parametrize("command", ["validate", "run"])
@pytest.mark.parametrize("path,token", [
    ("flows[0].rate_pps", "NaN"), ("flows[0].stop_s", "Infinity"),
    ("duration_s", "Infinity"), ("topology.edges[0].latency_ms", "-Infinity"),
])
def test_a_non_finite_number_is_a_validation_failure(tmp_path, command, path,
                                                      token, capsys):
    """``json.load`` reads NaN and Infinity; the run must not start."""
    doc = with_token(json.loads(Path(STARTUP).read_text(encoding="utf-8")),
                     path, token)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc), encoding="utf-8")  # writes the bare token
    extra = ["--out", str(tmp_path / "out")] if command == "run" else []
    assert cli.main([command, "--scenario", str(bad)] + extra) \
        == cli.EXIT_VALIDATION
    problems = json.loads(capsys.readouterr().err)
    assert {"path": path, "message": "must be finite"} in problems
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["validate", "run"])
@pytest.mark.parametrize("key,value", [("stop_s", 1e308), ("rate_pps", 1e300)])
def test_a_flow_whose_packets_cannot_be_counted_is_a_validation_failure(
        tmp_path, command, key, value, capsys):
    """Set-up raised ``OverflowError`` on the first and never ended on the
    second; now the run does not start."""
    doc = json.loads(Path(STARTUP).read_text(encoding="utf-8"))
    doc["flows"][0][key] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc), encoding="utf-8")
    extra = ["--out", str(tmp_path / "out")] if command == "run" else []
    assert cli.main([command, "--scenario", str(bad)] + extra) \
        == cli.EXIT_VALIDATION
    assert json.loads(capsys.readouterr().err) == [{
        "path": "flows[0]",
        "message": "(stop_s - start_s) * rate_pps must be below 2**53"}]
    assert not (tmp_path / "out").exists()


def test_analyze_prints_the_penalty_table(tmp_path, capsys):
    argv = ["analyze", "--k-max", "4", "--trials", "200", "--seed", "3"]
    expected = penalty_table_csv(penalty_table(1, 4, trials=200, seed=3))
    assert cli.main(argv) == cli.EXIT_OK
    assert capsys.readouterr().out == expected
    assert cli.main(argv + ["--out", str(tmp_path)]) == cli.EXIT_OK
    assert (tmp_path / "penalty.csv").read_text(encoding="utf-8") == expected


@pytest.mark.parametrize("args,flag", [
    (["--trials", "-3"], "--trials"),
    (["--ploss", "1.5"], "--ploss"),
    (["--ploss", "-0.1"], "--ploss"),
    (["--ploss", "nan"], "--ploss"),
    (["--k-min", "5", "--k-max", "2"], "--k-max"),
    (["--k-min", "0"], "--k-min"),
    (["--alpha", "-1"], "--alpha"),
    (["--zeta", "inf"], "--zeta"),
])
def test_analyze_refuses_bad_arguments(args, flag, tmp_path, capsys):
    """No traceback, no table and no file: one line on stderr, exit 1."""
    assert cli.main(["analyze", "--out", str(tmp_path / "out")] + args) \
        == cli.EXIT_VALIDATION
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and flag in captured.err
    assert captured.err.count("\n") == 1
    assert not (tmp_path / "out").exists()


def test_analyze_with_zero_trials_is_analytic_only(capsys):
    assert cli.main(["analyze", "--k-max", "3", "--trials", "0"]) == cli.EXIT_OK
    assert capsys.readouterr().out == penalty_table_csv(penalty_table(1, 3))


@pytest.mark.parametrize("pattern,scenario", sorted(PATTERNS.items()))
def test_check_sequence_passes_on_each_bundled_pattern(pattern, scenario,
                                                       capsys):
    assert cli.main(["check-sequence",
                     "--scenario", str(SCENARIO_DIR / f"{scenario}.json"),
                     "--pattern", _pattern(pattern)]) == cli.EXIT_OK
    assert capsys.readouterr().out.startswith("sequence ok:")


def test_check_sequence_mismatch_is_a_runtime_failure(capsys):
    assert cli.main(["check-sequence", "--scenario", STARTUP,
                     "--pattern", _pattern("inter_area")]) == cli.EXIT_RUNTIME
    assert "sequence mismatch" in capsys.readouterr().err


def test_dump_prints_aler_and_amrr_state(startup_sim, capsys):
    graph = startup_sim.graph
    assert cli.main(["dump", "--scenario", STARTUP]) == cli.EXIT_OK
    out = capsys.readouterr().out.splitlines()
    expected = []
    for title, role in (("FIB", "ALER"), ("BINDINGS", "AMRR")):
        for rid in graph.by_role(cli.NodeRole(role)):
            expected.append(f"# {title} {graph.name_of(rid)} ({rid})")
            expected += startup_sim.nodes[rid].dump(graph.name_of)
    assert out == expected


@pytest.mark.parametrize("node,title", [
    ("ALER1", "# FIB ALER1"), ("AMRR2", "# BINDINGS AMRR2"), ("P0", "# P0")])
def test_dump_of_one_node(node, title, startup_sim, capsys):
    graph = startup_sim.graph
    rid = graph.rid_of(node)
    assert cli.main(["dump", "--scenario", STARTUP, "--node", node]) \
        == cli.EXIT_OK
    if node == "P0":  # an LSR
        expected = [f"{title} ({rid}): no dumpable state"]
    else:
        expected = [f"{title} ({rid})",
                    *startup_sim.nodes[rid].dump(graph.name_of)]
    assert capsys.readouterr().out.splitlines() == expected


def test_dump_of_an_unknown_node_is_a_runtime_failure(capsys, monkeypatch):
    def no_run(*args, **kwargs):
        raise AssertionError("the node is checked before the run")
    monkeypatch.setattr(cli, "run_scenario", no_run)
    assert cli.main(["dump", "--scenario", STARTUP, "--node", "NOPE"]) \
        == cli.EXIT_RUNTIME
    assert "NOPE" in capsys.readouterr().err
