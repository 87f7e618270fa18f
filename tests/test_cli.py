"""``hmlbn`` sub-commands end to end through ``cli.main``: what each writes
or prints, and its exit code on success, on bad input and on a mismatch."""

import csv
import hashlib
import io
import json
from pathlib import Path

import pytest

from hmlbn import cli
from hmlbn.analysis import penalty_table, penalty_table_csv
from hmlbn.scenario import load_scenario
from hmlbn.scenarios import BUNDLED_SCENARIOS
from hmlbn.simulator import run_scenario

from helpers import golden, with_token

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"
STARTUP = str(SCENARIO_DIR / "startup.json")
# each bundled pattern and the scenario that produces it
PATTERNS = {"startup": "startup", "intra_area": "intra_area_handoff",
            "inter_area": "inter_area_handoff"}
# scenario name -> sha256 of what `hmlbn dump` prints for it at its own seed,
# whose text is tests/golden/<name>.dump.txt; a change that alters the dump on
# purpose updates both and says why
PINNED_DUMPS = {
    "ha_failover":
        "471d1ad4520d1d40b1140f176901930c9d3753303e0298af00b8898073e5bfc8",
    "inter_area_handoff":
        "8efc19ef32eada8a5b21a1441a0e21151f2f949f8937e14485b500a0a74094a9",
    "intra_area_handoff":
        "68affbe93760487ad2caa3744b30e62efb8b70c2f80ad920d38affd8a7cd681b",
    "local_handoff":
        "a428345c2d1acf9f3eb9213d758b0f3a1f0985219c07e11f2b11b93c9d0e5388",
    "penalty_probe":
        "a428345c2d1acf9f3eb9213d758b0f3a1f0985219c07e11f2b11b93c9d0e5388",
    "random_walk":
        "69310cc0fa80f8d0cfe0dc2dde1ff3932a7715961c39e386f0f66d4229642724",
    "startup":
        "a428345c2d1acf9f3eb9213d758b0f3a1f0985219c07e11f2b11b93c9d0e5388",
    "withdrawal":
        "d9843d35cf9b6b1217eaeee8f606023f6860d762d648520889688d82925a9108",
}


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


@pytest.mark.parametrize("argv", [["run", "--scenario", STARTUP],
                                  ["analyze", "--k-max", "3"]],
                         ids=["run", "analyze"])
def test_an_out_path_naming_a_file_is_refused_before_the_run(
        argv, tmp_path, capsys, monkeypatch):
    """One line on stderr, exit 1, the file kept; ``run`` simulates
    nothing."""
    taken = tmp_path / "taken"
    taken.write_text("kept", encoding="utf-8")
    monkeypatch.setattr(cli, "run_scenario",
                        lambda *args, **kwargs: pytest.fail("the run started"))
    assert cli.main(argv + ["--out", str(taken)]) == cli.EXIT_VALIDATION
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and str(taken) in captured.err
    assert captured.err.count("\n") == 1
    assert taken.read_text(encoding="utf-8") == "kept"

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


@pytest.mark.parametrize("command", ["validate", "run"])
def test_a_flow_that_outlasts_the_run_is_a_validation_failure(
        tmp_path, command, capsys):
    """The run went on sending the flow's packets long after
    ``duration_s``; now it does not start."""
    doc = json.loads(Path(STARTUP).read_text(encoding="utf-8"))
    doc["flows"][0]["stop_s"] = 1e6
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc), encoding="utf-8")
    extra = ["--out", str(tmp_path / "out")] if command == "run" else []
    assert cli.main([command, "--scenario", str(bad)] + extra) \
        == cli.EXIT_VALIDATION
    assert json.loads(capsys.readouterr().err) == [{
        "path": "flows[0].stop_s", "message": "must be <= duration_s"}]
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["validate", "run"])
def test_an_event_after_the_run_is_a_validation_failure(tmp_path, command,
                                                        capsys):
    """An attach at t = 500 of a run of 0.15 s fired, and the run wrote
    records up to t = 500.004; now it does not start."""
    doc = json.loads(Path(STARTUP).read_text(encoding="utf-8"))
    doc["mobility"]["attach"].append(
        {"t": 500, "prefix": "10.2.2.1/32", "region": "MR21"})
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc), encoding="utf-8")
    extra = ["--out", str(tmp_path / "out")] if command == "run" else []
    assert cli.main([command, "--scenario", str(bad)] + extra) \
        == cli.EXIT_VALIDATION
    assert json.loads(capsys.readouterr().err) == [{
        "path": "mobility.attach[2].t", "message": "must be <= duration_s"}]
    assert not (tmp_path / "out").exists()


def test_analyze_prints_the_penalty_table(tmp_path, capsys):
    argv = ["analyze", "--k-max", "4", "--trials", "200", "--seed", "3"]
    expected = penalty_table_csv(penalty_table(1, 4, trials=200, seed=3))
    assert cli.main(argv) == cli.EXIT_OK
    assert capsys.readouterr().out == expected
    assert cli.main(argv + ["--out", str(tmp_path)]) == cli.EXIT_OK
    assert (tmp_path / "penalty.csv").read_text(encoding="utf-8") == expected


def _analyze_rows(capsys, *args) -> list[dict]:
    argv = ["analyze", "--trials", "200", "--seed", "3", *args]
    assert cli.main(argv) == cli.EXIT_OK
    return list(csv.DictReader(io.StringIO(capsys.readouterr().out)))


def test_analyze_keeps_the_monte_carlo_columns_when_k_starts_at_one(capsys):
    """The k=1 fixedToMobile chain has one state, so no Monte Carlo run:
    its two cells are empty, and every other row keeps its own."""
    mc = ("mc_mean", "mc_max_bin_err")
    from_one = _analyze_rows(capsys, "--k-max", "2")
    from_two = _analyze_rows(capsys, "--k-min", "2", "--k-max", "2")
    assert (from_one[0]["dm_upper"], *map(from_one[0].get, mc)) == ("0", "", "")
    assert all(row[col] for row in from_one[1:] for col in mc)
    assert [[row[col] for col in mc] for row in from_one[2:]] \
        == [[row[col] for col in mc] for row in from_two]


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
            expected += startup_sim.nodes[rid].dump(graph)
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
                    *startup_sim.nodes[rid].dump(graph)]
    assert capsys.readouterr().out.splitlines() == expected


def test_every_bundled_scenario_has_a_pinned_dump():
    assert set(PINNED_DUMPS) == set(BUNDLED_SCENARIOS)


@pytest.mark.parametrize("name", sorted(PINNED_DUMPS))
def test_dump_matches_pinned_hash(name, capsys):
    """The whole dump, byte for byte: the tests above compare it only with
    the nodes' own ``dump``, which a table change would carry along."""
    assert cli.main(["dump", "--scenario",
                     str(SCENARIO_DIR / f"{name}.json")]) == cli.EXIT_OK
    out = capsys.readouterr().out
    assert out == golden(f"{name}.dump.txt")
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == PINNED_DUMPS[name]


def test_dump_of_an_unknown_node_is_a_runtime_failure(capsys, monkeypatch):
    def no_run(*args, **kwargs):
        raise AssertionError("the node is checked before the run")
    monkeypatch.setattr(cli, "run_scenario", no_run)
    assert cli.main(["dump", "--scenario", STARTUP, "--node", "NOPE"]) \
        == cli.EXIT_RUNTIME
    assert "NOPE" in capsys.readouterr().err
