"""``scripts/bench_pairs.py`` summarises canned result lines as it would
live ones, and refuses checkouts whose paths differ in length."""

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)

DECLARED = [{"name": "loop_s", "unit": "s", "better": "lower"},
            {"name": "delivery_ratio", "unit": "ratio", "better": "higher"},
            {"name": "not_reported", "unit": "s", "better": "lower"}]
DIGEST = "sha256 trace.jsonl aa metrics.csv bb"


def _run(pair, side, loop_s, ratio=1.0, failed=0, digest=DIGEST):
    metrics = {"loop_s": {"value": loop_s, "unit": "s"},
               "delivery_ratio": {"value": ratio, "unit": "ratio"}}
    return {"pair": pair, "side": side, "digest": digest,
            "result": {"correct": not failed, "attempted": 4,
                       "failed": failed, "metrics": metrics}}


def test_summary_counts_wins_ties_and_the_parents_spread():
    parent = [0.10, 0.12, 0.11, 0.13, 0.10]
    change = [0.09, 0.12, 0.12, 0.12, 0.095]  # a win, a tie, a loss, two wins
    runs = []
    for pair, (p, c) in enumerate(zip(parent, change)):
        sides = [("parent", p), ("change", c)]
        runs += [_run(pair, side, v) for side, v in sides[::1 - 2 * (pair % 2)]]
    runs.append(_run(5, "parent", 0.5))  # a pair cut short counts for nothing
    rows, problems = bench_pairs.summarize(runs, DECLARED)
    assert problems == []
    (name, p_med, c_med, won, n, spread), ratio = rows
    assert (name, p_med, c_med, won, n) == ("loop_s", 0.11, 0.12, 3, 5)
    assert spread == pytest.approx(0.12 - 0.10)
    assert ratio == ("delivery_ratio", 1.0, 1.0, 0, 5, 0.0)  # ties: no wins
    text = bench_pairs.render(rows, problems)
    assert "loop_s" in text and "3/5" in text and "not_reported" not in text


def test_summary_names_failed_runs_and_differing_outputs():
    runs = [_run(0, "parent", 0.1), _run(0, "change", 0.1, failed=2,
                                         digest="sha256 trace.jsonl cc")]
    rows, problems = bench_pairs.summarize(runs, DECLARED)
    assert [row[0] for row in rows] == ["loop_s", "delivery_ratio"]
    assert problems == ["pair 0 change: 2 failed runs",
                        "2 different sha256 lines"]


def test_checkouts_at_paths_of_different_length_are_refused(tmp_path, capsys):
    with pytest.raises(SystemExit) as exit_info:
        bench_pairs.main([str(tmp_path / "a"), str(tmp_path / "bb"),
                          "--workload", "steady_flows"])
    assert exit_info.value.code == 2
    assert "differ in length" in capsys.readouterr().err
