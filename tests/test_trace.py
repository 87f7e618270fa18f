"""The trace renderer: ``trace_jsonl`` against a copy of the encoder it
replaced (a list of dicts through ``JSONEncoder(sort_keys=True)``), and
``trace`` against the rendered lines on every bundled scenario."""

import json
from pathlib import Path

import pytest

from hmlbn import simulator
from hmlbn.scenario import load_scenario
from hmlbn.scenarios import BUNDLED_SCENARIOS
from hmlbn.simulator import Simulation, run_scenario
from hmlbn.topology import NodeRole

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"

ODD = 'q"b\\s\x01\x1fé\U0001F600'  # quote, backslash, controls, é, non-BMP

# (now, kind, src, dst, detail); "LER" and "AMRR" stand for real router ids
RECORDS = [
    (0.0, "node_fail", None, None, None),
    (0.1 + 0.2, "ctl_recv", "LER", "AMRR", {}),
    (1e-10, "attach", "LER", None, {"prefix": "10.0.0.1/32"}),
    (123456.123456789012, ODD, ODD, "AMRR",
     {ODD: ODD, "nested": {"b": [1, 2.5, None], "a": ODD}}),
    (2.0000000004, "data_drop", "unknown-id", ODD,
     {"yes": True, "no": False, "none": None, "int": -7, "big": 2 ** 70,
      "float": 0.1 + 0.2, "tiny": 1e-300, "neg_zero": -0.0, "list": []}),
    (3, "int_time", None, "LER", {"t": 3, "tuple": (1, "x")}),
    (4.25, "number_keys", None, None, {10: "a", 2: "b", 1.5: "c"}),
    (7.5, "odd_values", "AMRR", "AMRR",
     {"inf": float("inf"), "ninf": float("-inf"), "nan": float("nan")}),
    (float("inf"), "never", None, None, None),
]


def _reference_jsonl(sim, records) -> str:
    """What the list-of-dicts trace wrote for ``records``."""
    names = {rid: info.name for rid, info in sim.graph.nodes.items()}
    encode = json.JSONEncoder(sort_keys=True).encode
    lines = []
    for seq, (now, kind, src, dst, detail) in enumerate(records, 1):
        entry = {"t": round(now, 9), "seq": seq, "kind": kind,
                 "src": names.get(src, src), "dst": names.get(dst, dst),
                 "detail": detail or {}}
        lines.append(encode(entry) + "\n")
    return "".join(lines)


def _fresh_sim() -> Simulation:
    # nothing is traced before the run starts
    return Simulation(load_scenario(SCENARIO_DIR / "startup.json"))


def _real_ids(sim, records):
    ids = {"LER": sim.graph.by_role(NodeRole.LER)[0],
           "AMRR": sim.graph.by_role(NodeRole.AMRR)[0]}
    return [(now, kind, ids.get(src, src), ids.get(dst, dst), detail)
            for now, kind, src, dst, detail in records]


def _record_all(sim, records):
    for now, kind, src, dst, detail in records:
        sim.now = now
        sim.trace_event(kind, src=src, dst=dst, detail=detail)


def test_empty_trace_renders_empty():
    sim = _fresh_sim()
    assert sim.trace == []
    assert sim.trace_jsonl() == ""


@pytest.mark.parametrize("c_encoder", [True, False])
def test_rendering_matches_the_dict_encoder_byte_for_byte(c_encoder,
                                                          monkeypatch):
    if not c_encoder:
        monkeypatch.setattr(simulator, "c_make_encoder", None)
    sim = _fresh_sim()
    records = _real_ids(sim, RECORDS)
    _record_all(sim, records)
    text = sim.trace_jsonl()
    assert text == _reference_jsonl(sim, records)
    assert "\\u00e9" in text and "\\ud83d\\ude00" in text  # ASCII only
    assert text.count("\n") == len(RECORDS)
    # names resolved at render: the real ids appear under their names
    assert sim.trace[1]["src"] == sim.graph.nodes[records[1][2]].name
    assert sim.trace[4]["src"] == "unknown-id"


@pytest.mark.parametrize("detail,error", [
    ({"obj": object()}, TypeError),   # the encoder's default raises
    ({"set": {1}}, TypeError),
    ({(1, 2): 0}, TypeError),  # keys that are not str or a number fail
])
def test_unencodable_details_fail_as_before(detail, error):
    sim = _fresh_sim()
    sim.trace_event("bad", detail=detail)
    with pytest.raises(error):
        _reference_jsonl(sim, [(0.0, "bad", None, None, detail)])
    with pytest.raises(error):
        sim.trace_jsonl()


def test_circular_detail_is_refused_as_before():
    detail = {}
    detail["self"] = detail
    sim = _fresh_sim()
    sim.trace_event("loop", detail=detail)
    with pytest.raises(ValueError, match="Circular"):
        _reference_jsonl(sim, [(0.0, "loop", None, None, detail)])
    with pytest.raises(ValueError, match="Circular"):
        sim.trace_jsonl()


def test_trace_is_rebuilt_and_not_assignable():
    sim = _fresh_sim()
    sim.trace_event("one", detail={"a": 1})
    first = sim.trace
    first.clear()
    assert len(sim.trace) == 1
    with pytest.raises(AttributeError):
        sim.trace = []


@pytest.mark.parametrize("name", sorted(BUNDLED_SCENARIOS))
def test_trace_equals_the_parsed_jsonl(name):
    sim = run_scenario(load_scenario(SCENARIO_DIR / f"{name}.json"))
    lines = sim.trace_jsonl().splitlines()
    assert lines
    assert sim.trace == [json.loads(line) for line in lines]
