"""The trace renderer: ``trace_jsonl`` against a copy of the encoder it
replaced (a list of dicts through ``JSONEncoder(sort_keys=True)``), and
``trace``, which splits the rendered text at "\n" only, against every line
``splitlines`` finds in it on every bundled scenario.  Flat
records are checked against the dicts their kinds were once recorded as,
and for holding nothing the cyclic garbage collector has to track."""

import gc
import json
from pathlib import Path

import pytest

from hmlbn import simulator
from hmlbn.forwarding import INFRA, MOBILITY, DataPacket, Label
from hmlbn.messages import MobilePrefix
from hmlbn.scenario import load_scenario
from hmlbn.scenarios import BUNDLED_SCENARIOS
from hmlbn.simulator import Simulation, run_scenario
from hmlbn.topology import NodeRole

import helpers

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
    (5.0, "50%s%%", None, None, {"a": "%s%d"}),  # no format in a kind
]


def _reference_trace(sim, records) -> list:
    """The dicts the list-of-dicts trace kept for ``records``."""
    names = {rid: info.name for rid, info in sim.graph.nodes.items()}
    return [{"t": round(now, 9), "seq": seq, "kind": kind,
             "src": names.get(src, src), "dst": names.get(dst, dst),
             "detail": detail or {}}
            for seq, (now, kind, src, dst, detail) in enumerate(records, 1)]


def _reference_jsonl(sim, records) -> str:
    """What the list-of-dicts trace wrote for ``records``."""
    encode = json.JSONEncoder(sort_keys=True).encode
    return "".join(encode(entry) + "\n"
                   for entry in _reference_trace(sim, records))


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


def test_helpers_parse_a_trace_once_per_record_count():
    sim = run_scenario(load_scenario(SCENARIO_DIR / "startup.json"))
    parsed = helpers.parsed_trace(sim)
    assert parsed == sim.trace and helpers.parsed_trace(sim) is parsed
    assert helpers.ctl_sends(sim) \
        == [e for e in sim.trace if e["kind"] == "ctl_send"]
    assert helpers.delivered_paths(sim) == [
        (e["t"], e["detail"]["path"]) for e in sim.trace
        if e["kind"] == "data_deliver"]
    assert helpers.parsed_trace(sim) is parsed  # the filters reused it
    sim.trace_event("one", detail={"a": 1})
    assert helpers.parsed_trace(sim) == sim.trace == parsed + [
        sim.trace[-1]]


@pytest.mark.parametrize("name", sorted(BUNDLED_SCENARIOS))
def test_trace_equals_the_parsed_jsonl(name):
    sim = run_scenario(load_scenario(SCENARIO_DIR / f"{name}.json"))
    lines = sim.trace_jsonl().splitlines()
    assert lines
    assert sim.trace == [json.loads(line) for line in lines]


TOP = 2 ** 20 - 1  # the highest label value

# (now, kind, src, dst, values, detail): a record of a hot kind, once as the
# flat values its hot path passes to trace_event and once as the detail dict
# that kind was recorded with before; values None records the dict itself
HOT = [
    (0.5, "data_ingress", "LER", None, (ODD, 0), {"flow": ODD, "seq": 0}),
    (0.5, "data_ingress", "LER", None, None, {"flow": "f", "seq": 1}),
    (0.5, "data_hop", "LER", "AMRR", ("f1", 7, "i", 16, "m", TOP),
     {"flow": "f1", "seq": 7, "stack": f"i16/m{TOP}"}),
    (3.0, "data_hop", "AMRR", "LER", (ODD, 7, "i", TOP, "m", 16),
     {"flow": ODD, "seq": 7, "stack": f"i{TOP}/m16"}),
    (3, "data_hop", "AMRR", "LER", (ODD, 8, ODD, 16, "", TOP),
     {"flow": ODD, "seq": 8, "stack": f"{ODD}16/{TOP}"}),
    (3.0, "data_hop", "LER", "AMRR", None,
     {"flow": ODD, "seq": 9, "stack": "i16"}),
    (0.0, "ctl_recv", "AMRR", "LER", ("BindingRequest",),
     {"msg": "BindingRequest"}),
    (-0.0, "ctl_recv", "LER", "AMRR", (ODD,), {"msg": ODD}),
    (-0.0, "ctl_recv", "LER", "AMRR", None, {"msg": "LrlReply"}),
    (0.0, "data_deliver", "LER", None, (ODD, "MR1/c1", "LER1>P0", False, 0),
     {"flow": ODD, "seq": 0, "interface": "MR1/c1", "path": "LER1>P0",
      "replica": False}),
    (1e-10, "data_deliver", "LER", None, ("", ODD, ODD, False, 3),
     {"flow": "", "seq": 3, "interface": ODD, "path": ODD, "replica": False}),
    (1e-10, "data_deliver", "LER", None, None,
     {"flow": "g", "seq": 4, "interface": "x", "path": "", "replica": True}),
    # ctl_send in each of its three shapes; "origin" holds a router id,
    # which the old dict named when it was recorded ("LER" stands for one)
    (0.25, "ctl_send", "LER", "AMRR",
     (False, 3, "b1010a", 17, "BindingUpdate", "LER", "10.0.0.1/32",
      "INTERNAL"),
     {"area_crossing": False, "area_id": 3, "hex": "b1010a", "label": 17,
      "msg": "BindingUpdate", "origin": "LER", "prefix": "10.0.0.1/32",
      "update_type": "INTERNAL"}),
    (0.25, "ctl_send", "AMRR", "LER", (True, 0, ODD, TOP, ODD, ODD, ODD, ODD),
     {"area_crossing": True, "area_id": 0, "hex": ODD, "label": TOP,
      "msg": ODD, "origin": ODD, "prefix": ODD, "update_type": ODD}),
    (0.5, "ctl_send", "LER", "AMRR", (True, "b103", "BindingRequest", ODD),
     {"area_crossing": True, "hex": "b103", "msg": "BindingRequest",
      "prefix": ODD}),
    (0.5, "ctl_send", "AMRR", "AMRR", (False, ODD, "AlerFailoverBlanket"),
     {"area_crossing": False, "hex": ODD, "msg": "AlerFailoverBlanket"}),
    (0.5, "ctl_send", "AMRR", "AMRR", None,
     {"area_crossing": False, "hex": "", "msg": ODD}),
    (1.0, "fib_update", "AMRR", None, (TOP, 16, "LER", "10.0.0.1/32", ODD),
     {"cml": TOP, "lml": 16, "origin": "LER", "prefix": "10.0.0.1/32",
      "what": ODD}),
    (1.0, "fib_update", "AMRR", None, (16, 17, "unknown-id", ODD, "created"),
     {"cml": 16, "lml": 17, "origin": "unknown-id", "prefix": ODD,
      "what": "created"}),
    (1.5, "register", "LER", None, (0, ODD, 16, "10.0.0.1/32"),
     {"area_sent": 0, "interface": ODD, "label": 16, "prefix": "10.0.0.1/32"}),
    (2.0, "move", "LER", None, (ODD, "10.0.0.1/32", "MR1", True),
     {"from_region": ODD, "prefix": "10.0.0.1/32", "region": "MR1",
      "same_ler": True}),
    (2.0, "move", "LER", None, ("MR1", ODD, ODD, False),
     {"from_region": "MR1", "prefix": ODD, "region": ODD, "same_ler": False}),
]


def test_flat_keys_are_sorted_as_the_lines_write_them():
    for keys in simulator.FLAT_KEYS.values():
        assert list(keys) == sorted(keys)
    # each entry's length is that of its records: a stack is four values
    for (kind, length), keys in simulator.FLAT_KEYS.items():
        assert length == 4 + len(keys) + 3 * ("stack" in keys)
    # every entry, each ctl_send shape included, is rendered in HOT
    assert {(kind, 4 + len(values)) for _, kind, _, _, values, _ in HOT
            if values is not None} == set(simulator.FLAT_KEYS)


def _record_hot(sim, hot) -> list:
    """Record each ``HOT`` entry in ``hot`` with real router ids, flat
    unless its values are None; returns the dict records they stand for."""
    hot = _real_ids(sim, [(now, kind, src, dst, (values, detail))
                          for now, kind, src, dst, values, detail in hot])
    # a router id is recorded raw under "origin"; the old dict held its name
    rid = sim.graph.by_role(NodeRole.LER)[0]
    hot = [(now, kind, src, dst,
            (values and tuple(rid if v == "LER" else v for v in values),
             {k: sim.graph.name_of(rid) if v == "LER" else v
              for k, v in detail.items()}))
           for now, kind, src, dst, (values, detail) in hot]
    for now, kind, src, dst, (values, detail) in hot:
        sim.now = now
        if values is None:
            sim.trace_event(kind, src=src, dst=dst, detail=detail)
        else:
            sim.trace_event(kind, src, dst, *values)
    return [(now, kind, src, dst, detail)
            for now, kind, src, dst, (_, detail) in hot]


@pytest.mark.parametrize("c_encoder", [True, False])
def test_flat_records_render_as_their_dicts_did(c_encoder, monkeypatch):
    if not c_encoder:
        monkeypatch.setattr(simulator, "c_make_encoder", None)
    sim = _fresh_sim()
    records = _record_hot(sim, HOT)
    assert [len(rec) > 5 or type(rec[4]) is str for rec in sim._records] == \
        [values is not None for *_, values, _ in HOT]
    assert sim.trace_jsonl() == _reference_jsonl(sim, records)
    assert sim.trace == _reference_trace(sim, records)
    lines = sim.trace_jsonl().splitlines()
    assert lines[3].endswith('"t": 3.0}') and lines[4].endswith('"t": 3}')
    assert lines[6].endswith('"t": 0.0}') and lines[7].endswith('"t": -0.0}')


@pytest.mark.parametrize("count", [0, 1, 511, 512, 513, 1024, 1025])
def test_traces_render_whole_across_chunk_boundaries(count):
    """Lines are joined 512 at a time; a trace of any length, flat and dict
    records mixed, still renders as the dict encoder wrote it."""
    assert simulator.CHUNK_LINES == 512
    sim = _fresh_sim()
    records = _record_hot(sim, (HOT * (count // len(HOT) + 1))[:count])
    assert len(sim._records) == count
    assert sim.trace_jsonl() == _reference_jsonl(sim, records)
    assert sim.trace == _reference_trace(sim, records)


@pytest.mark.parametrize("name", ['fl"ow', "fl'ow", "fl{ow", "fl}ow",
                                  "fl\\ow", "flow\n", "fl ow", "fl\u00e9w",
                                  "", "1flow"])
@pytest.mark.parametrize("where", ["kind", "key"])
def test_line_factories_refuse_names_that_are_not_identifiers(name, where):
    """Kinds and keys are written into generated source; a quote or brace
    in one is refused before any source is built."""
    schema = ({(name, 5): ("flow",)} if where == "kind"
              else {("data_hop", 6): ("flow", name)})
    with pytest.raises(ValueError, match="identifiers"):
        simulator._line_factories(schema)
    assert simulator._line_factories({("data_hop", 6): ("flow", "seq")})


@pytest.mark.parametrize("depth", [1, 2, 3])
def test_transmit_records_a_stack_of_any_depth(depth):
    sim = _fresh_sim()
    src = sim.graph.by_role(NodeRole.LER)[0]
    dst = sim.graph.neighbors(src)[0]
    host = MobilePrefix.parse("10.0.0.1/32")
    packet = DataPacket(ODD, 5, host, host, 0.0)
    packet.stack = [Label(16, INFRA), Label(TOP, MOBILITY),
                    Label(17, MOBILITY)][:depth]
    detail = {"flow": ODD, "seq": 5, "stack": packet.render_stack()}
    sim.now = 0.25
    sim.transmit(packet, src, dst)
    packet.stack[0].value = 99  # a later swap rewrites the label in place
    records = [(0.25, "data_hop", src, dst, detail)]
    assert sim.trace == _reference_trace(sim, records)
    assert sim.trace_jsonl() == _reference_jsonl(sim, records)
    assert len(sim._records[0]) == (10 if depth == 2 else 5)


def test_flat_records_hold_only_untracked_atomic_values():
    """Every flat record is a tuple of str/int/float/bool/None, which the
    cyclic collector stops tracking after one pass; a message, payload,
    prefix or enum member kept in one would be tracked for the whole run."""
    seen = set()
    for name in ("ha_failover", "inter_area_handoff"):  # blanket, move
        sim = run_scenario(load_scenario(SCENARIO_DIR / f"{name}.json"))
        gc.collect()
        for rec in sim._records:
            if rec[4] is None or type(rec[4]) is dict:
                continue
            seen.add((rec[1], len(rec)))
            assert all(type(v) in (str, int, float, bool, type(None))
                       for v in rec), rec
            assert not gc.is_tracked(rec), rec
    assert seen == set(simulator.FLAT_KEYS)


# a data_hop's stable values, (src, dst, flow, top label, inner label), each
# label a (tag, value); "LER" and "AMRR" stand for real router ids
HOP_A = ("LER", "AMRR", "f1", ("i", 16), ("m", TOP))
HOP_B = ("AMRR", "LER", "f1", ("i", 16), ("m", TOP))  # A's way back
HOP_C = ("LER", "AMRR", "f1", ("i", 17), ("m", TOP))  # A but the top value
HOP_D = ("LER", "AMRR", "f1", ("m", 16), ("m", TOP))  # A but the top tag
HOP_E = ("LER", "AMRR", "f2", ("i", 16), ("m", TOP))  # A but the flow
HOP_F = ("LER", "LER", "f1", ("i", 16), ("m", TOP))  # A but the dst
HOP_G = ("LER", "AMRR", "f1", ("i", 16), ("i", TOP))  # A but the inner tag
HOP_H = ("LER", "AMRR", "f1", ("i", 16), ("m", 17))  # A but the inner value
HOP_ODD = ("LER", ODD, ODD, (ODD, 16), ("", TOP))
HOP_ODD_TAGS = (ODD, "AMRR", ODD, ("i", TOP), (ODD, 16))


def _record_hops(sim, hops) -> list:
    """Record each ``(now, stable values, seq)`` in ``hops`` as a flat
    data_hop with real router ids; returns the dict records they stand for."""
    ids = {"LER": sim.graph.by_role(NodeRole.LER)[0],
           "AMRR": sim.graph.by_role(NodeRole.AMRR)[0]}
    records = []
    for now, (src, dst, flow, top, inner), seq in hops:
        src, dst = ids.get(src, src), ids.get(dst, dst)
        sim.now = now
        sim.trace_event("data_hop", src, dst, flow, seq, *top, *inner)
        records.append((now, "data_hop", src, dst, {
            "flow": flow, "seq": seq,
            "stack": "%s%d/%s%d" % (*top, *inner)}))
    return records


def test_a_hop_renders_alike_each_time_its_values_recur():
    """A key seen once, twice and three times, each time with another
    packet seq, record seq and time; keys one value apart stay apart."""
    sim = _fresh_sim()
    records = _record_hops(sim, [
        (3, HOP_A, 0), (0.5, HOP_B, 0), (3.0, HOP_A, 1), (1.0, HOP_C, 0),
        (1.0, HOP_D, 0), (2.0, HOP_B, 1), (-0.0, HOP_A, 2), (1.0, HOP_E, 0),
        (1.0, HOP_F, 0), (1.0, HOP_G, 0), (1.0, HOP_H, 0)])
    text = sim.trace_jsonl()
    assert text == _reference_jsonl(sim, records)
    lines = text.splitlines()
    assert lines[0].endswith('"t": 3}') and lines[2].endswith('"t": 3.0}')
    assert lines[6].endswith('"t": -0.0}')
    assert [json.loads(lines[i])["detail"]["seq"] for i in (0, 2, 6)] \
        == [0, 1, 2]


def test_hops_with_odd_flow_and_tag_texts_render_as_the_encoder_did():
    sim = _fresh_sim()
    records = _record_hops(sim, [
        (0.25, HOP_ODD, 0), (0.5, HOP_ODD_TAGS, 0), (0.75, HOP_ODD, 1),
        (1.0, HOP_ODD, 2), (1.25, HOP_ODD_TAGS, 1), (1.5, HOP_ODD_TAGS, 1)])
    text = sim.trace_jsonl()
    assert text == _reference_jsonl(sim, records)
    assert sim.trace == _reference_trace(sim, records)
    assert "\\ud83d\\ude00" in text and "\\u00e9" in text


@pytest.mark.parametrize("count", [511, 512, 513, 1025])
def test_recurring_hops_render_whole_across_chunk_boundaries(count):
    """Stems made in one chunk of 512 lines are filled in the next, and a
    key first seen in the second chunk is stemmed there; a hop recorded as
    a dict, one label deep, sits among them."""
    sim = _fresh_sim()
    keys, ler = [HOP_A, HOP_B, HOP_ODD, HOP_C], sim.graph.by_role(NodeRole.LER)[0]
    records = []
    for n in range(count):
        if n % 100 == 99:
            sim.now = n / 8
            detail = {"flow": "f1", "seq": n, "stack": "i16"}
            sim.trace_event("data_hop", src=ler, detail=detail)
            records.append((sim.now, "data_hop", ler, None, detail))
        else:
            records += _record_hops(sim, [(n / 8, keys[n % (3 + (n > 520))],
                                           n // 4)])
    assert len(sim._records) == count
    assert sim.trace_jsonl() == _reference_jsonl(sim, records)


def test_a_second_render_keeps_nothing_from_the_first():
    """Stems live for one ``trace_jsonl`` call: a router named after the
    first call is named in every line of the second, stemmed or not, and
    nothing is left on the simulation or the module."""
    sim = _fresh_sim()
    unnamed = ("unknown-id", "AMRR", "f9", ("i", 16), ("m", 17))
    first = _record_hops(sim, [(0.5, HOP_A, 0), (0.5, unnamed, 0),
                               (1.0, HOP_A, 1), (1.0, unnamed, 1)])
    state = dict(vars(sim)), dict(vars(simulator))
    assert sim.trace_jsonl() == _reference_jsonl(sim, first)
    assert (dict(vars(sim)), dict(vars(simulator))) == state
    more = _record_hops(sim, [(1.5, HOP_A, 2), (1.5, unnamed, 2),
                              (2.0, HOP_B, 0), (2.0, HOP_B, 1)])
    assert sim.trace_jsonl() == _reference_jsonl(sim, first + more)
    sim._names["unknown-id"] = "named-later"
    text = sim.trace_jsonl()
    assert text == _reference_jsonl(sim, first + more).replace(
        '"unknown-id"', '"named-later"')
    assert text.count('"src": "named-later"') == 3
