"""Tests of the benchmark itself: generator, span arithmetic, smoke runs.

    python3 -m pytest -q bench/tests
"""

import json

import pytest

import run
from hmlbn.scenario import validate_scenario
from spans import Tracer, self_times
from workloads import WORKLOADS, Workload

TINY = Workload("tiny", "smoke test", areas=2, lers=2, mobiles=4, flows=2,
                rate_pps=10.0, duration_s=2.0, movers=4, mu=1.0, p=0.5)


def _ids_and_names(doc):
    nodes = doc["topology"]["nodes"]
    return [n["id"] for n in nodes], [n["name"] for n in nodes]


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_generated_scenarios_are_valid_with_unique_ids(workload):
    doc = WORKLOADS[workload].document(seed=5)
    ids, names = _ids_and_names(doc)
    assert len(set(ids)) == len(ids)
    assert len(set(names)) == len(names)
    assert validate_scenario(doc) == []


def test_ids_stay_unique_where_the_bundled_generator_collides():
    # the bundled base_topology repeats ids from 11 LERs per area or 26 areas
    big = Workload("big", "", areas=30, lers=30, mobiles=10, flows=2,
                   rate_pps=1.0, duration_s=2.0)
    ids, names = _ids_and_names(big.document(seed=1))
    assert len(ids) == 30 * 30 + 3 * 30 + 1
    assert len(set(ids)) == len(ids)
    assert len(set(names)) == len(names)


def test_seed_fixes_the_document():
    w = WORKLOADS["roaming"]
    assert w.document(3) == w.document(3)
    assert w.document(3) != w.document(4)
    assert w.document(3)["seed"] == 3


def test_self_time_of_a_hand_built_span_tree():
    # a [0,10] holds b [1,4] (which holds c [2,3]) and d [5,9]; e [10,12]
    names = ["a", "b", "c", "d", "e"]
    parents = [-1, 0, 1, 0, -1]
    starts = [0.0, 1.0, 2.0, 5.0, 10.0]
    ends = [10.0, 4.0, 3.0, 9.0, 12.0]
    totals, calls = self_times(names, parents, starts, ends)
    assert totals == pytest.approx({"a": 3.0, "b": 2.0, "c": 1.0, "d": 4.0,
                                    "e": 2.0})
    assert sum(totals.values()) == pytest.approx(12.0)
    assert calls == {"a": 1, "b": 1, "c": 1, "d": 1, "e": 1}


def test_times_are_scaled_by_each_runs_reference():
    nominal = run.NOMINAL_S
    runs = [{"wall_s": 1.0, "reference_s": nominal},
            {"wall_s": 3.0, "reference_s": 2 * nominal},
            {"wall_s": 0.9, "reference_s": 0.5 * nominal}]
    assert run.scaled(runs[1], 3.0) == pytest.approx(1.5)
    # scaled 1.0, 1.5 and 1.8: the median run, not the median raw time
    assert run.timed(runs, "wall_s") == pytest.approx(1.5)


class _Node:
    def outer(self, n):
        return self.inner(n) + 1

    def inner(self, n):
        return n * 2


def test_tracer_nests_spans_and_restores_originals():
    original = _Node.__dict__["outer"]
    tracer = Tracer()
    assert tracer.wrap(_Node, "outer", "node.outer")
    assert tracer.wrap(_Node, "inner", "node.inner")
    assert not tracer.wrap(_Node, "gone", "node.gone")
    assert _Node().outer(3) == 7
    tracer.restore()
    assert _Node.__dict__["outer"] is original
    assert tracer.names == ["node.outer", "node.inner"]
    assert tracer.parents == [-1, 0]
    assert tracer.missing == ["_Node.gone"]


def test_smoke_untraced_and_traced(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "WORK", tmp_path)
    plain = run.measure(TINY, seed=2, seconds=0, traced=False)
    assert plain["problems"] == [] and plain["failed"] == 0
    assert len(plain["plain"]) == run.MIN_RUNS and not plain["traced"]
    assert plain["runs"] == run.MIN_RUNS + 1  # the untimed warm-up
    values = run.end_to_end(plain)
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"] for m in spec["end_to_end"]} <= set(values)

    traced = run.measure(TINY, seed=2, seconds=0, traced=True)
    assert traced["problems"] == []
    assert traced["digest"] == plain["digest"]
    values = run.per_layer(traced)
    assert {m["name"] for m in spec["per_layer"]} <= set(values)
    for r in traced["traced"]:
        assert r["missing"] == []
        assert r["coverage"] == pytest.approx(1.0, abs=0.05)
    assert (tmp_path / "tiny-2-1" / "out" / "spans.tsv").is_file()


def test_exits_without_result_when_sources_are_missing(tmp_path, monkeypatch,
                                                       capsys):
    monkeypatch.setattr(run, "ROOT", tmp_path)
    argv = ["--workload", "steady_flows", "--seed", "1", "--seconds", "1"]
    assert run.main(argv) == 2
    assert capsys.readouterr().out == ""
