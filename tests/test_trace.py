"""The trace renderer: ``trace_jsonl`` against a copy of the encoder it
replaced (a list of dicts through ``JSONEncoder(sort_keys=True)``), and
``trace``, which splits the rendered text at "\n" only, against every line
``splitlines`` finds in it on every bundled scenario.  Every ``TRACE_KEYS``
entry is checked against the dict its kind was once recorded as, every
record for holding nothing the cyclic garbage collector has to track, and
every name the program records for being a ``TRACE_KEYS`` entry."""

import ast
import gc
import json
from pathlib import Path

import pytest

from hmlbn import simulator, trace
from hmlbn.forwarding import DataPacket
from hmlbn.messages import MobilePrefix
from hmlbn.scenario import load_scenario
from hmlbn.scenarios import BUNDLED_SCENARIOS
from hmlbn.simulator import Simulation, run_scenario
from hmlbn.topology import NodeInfo, NodeRole
from hmlbn.trace import LABEL_PAIR, TRACE_KEYS

import helpers

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"
SOURCE_DIR = Path(simulator.__file__).resolve().parent

ODD = 'q"b\\s\x01\x1fé\U0001F600'  # quote, backslash, controls, é, non-BMP

SIX = float("6")  # a time object, made anew by each float("6")

# (now, name, src, dst, values, detail): a record as the flat values its
# call site passes to trace_event, and the detail dict its kind was recorded
# with before.  "LER" and "AMRR" stand for real router ids, which the old
# dict held by name under a router key; odd times and texts first.
RECORDS = [
    (0.0, "node_fail", None, None, (), {}),
    (0.1 + 0.2, "ctl_recv", "LER", "AMRR", (ODD,), {"msg": ODD}),
    (1e-10, "detach", "LER", None, ("10.0.0.1/32",), {"prefix": "10.0.0.1/32"}),
    (123456.123456789012, "warn/from", ODD, "AMRR", (ODD, ODD, ODD),
     {"from": ODD, "prefix": ODD, "what": ODD}),
    (2.0000000004, "data_drop", "unknown-id", ODD, (ODD, "no_binding", False, -7),
     {"flow": ODD, "reason": "no_binding", "replica": False, "seq": -7}),
    (3, "attach", None, "LER", (2 ** 70, ODD, "10.0.0.1/32", "MR1"),
     {"area_hint": 2 ** 70, "cell": ODD, "prefix": "10.0.0.1/32",
      "region": "MR1"}),
    (4.25, "warn/node", None, None, ("LER", "%s%d"),
     {"node": "LER", "what": "%s%d"}),
    (7.5, "data_ingress/unattached", "AMRR", "AMRR", (ODD, None, 0),
     {"flow": ODD, "ler": None, "seq": 0}),
    (float("inf"), "node_fail", "LER", None, (), {}),
    (5.0, "ctl_drop", None, None, ("50%s%%", "node_failed"),
     {"msg": "50%s%%", "why": "node_failed"}),
    # one event's time object in two records, then an equal float of
    # another event, the int of that value, and 0.0 then -0.0; the area slot
    # sees each value type for the first time
    (SIX, "warn/area", "LER", None, ("9", ODD, "x"),
     {"area": "9", "prefix": ODD, "what": "x"}),
    (SIX, "warn/area", "LER", None, (9, ODD, "x"),
     {"area": 9, "prefix": ODD, "what": "x"}),
    (float("6"), "warn/area", "LER", None, (True, ODD, "x"),
     {"area": True, "prefix": ODD, "what": "x"}),
    (6, "warn/area", "LER", None, (None, ODD, "x"),
     {"area": None, "prefix": ODD, "what": "x"}),
    (0.0, "warn/area", "LER", None, (2.5, ODD, "x"),
     {"area": 2.5, "prefix": ODD, "what": "x"}),
    (-0.0, "warn/area", "LER", None, (2 ** 70, ODD, "x"),
     {"area": 2 ** 70, "prefix": ODD, "what": "x"}),
]


def _reference_trace(sim, records) -> list:
    """The dicts the list-of-dicts trace kept for ``records``."""
    names = {rid: info.name for rid, info in sim.graph.nodes.items()}
    return [{"t": round(now, 9), "seq": seq, "kind": kind,
             "src": names.get(src, src), "dst": names.get(dst, dst),
             "detail": detail}
            for seq, (now, kind, src, dst, detail) in enumerate(records, 1)]


def _reference_jsonl(sim, records) -> str:
    """What the list-of-dicts trace wrote for ``records``."""
    encode = json.JSONEncoder(sort_keys=True).encode
    return "".join(encode(entry) + "\n"
                   for entry in _reference_trace(sim, records))


def _fresh_sim() -> Simulation:
    # nothing is traced before the run starts
    return Simulation(load_scenario(SCENARIO_DIR / "startup.json"))


def _record_all(sim, records) -> list:
    """Record each ``(now, name, src, dst, values, detail)`` in ``records``
    with real router ids; returns the ``(now, kind, src, dst, detail)``
    records they stand for, a router id in a detail named as the old dict
    held it."""
    ids = {"LER": sim.graph.by_role(NodeRole.LER)[0],
           "AMRR": sim.graph.by_role(NodeRole.AMRR)[0]}
    out = []
    for now, name, src, dst, values, detail in records:
        keys = TRACE_KEYS[name]
        assert len(values) == len(keys) + (name == LABEL_PAIR), name
        assert sorted(detail) == list(keys)
        src, dst = ids.get(src, src), ids.get(dst, dst)
        sim.now = now
        sim.trace_event(name, src, dst, *(ids.get(v, v) if type(v) is str
                                          else v for v in values))
        out.append((now, name.partition("/")[0], src, dst, {
            k: sim.graph.name_of(ids[v]) if v in ("LER", "AMRR") else v
            for k, v in detail.items()}))
    return out


def test_empty_trace_renders_empty():
    sim = _fresh_sim()
    assert sim.trace == []
    assert sim.trace_jsonl() == ""


def _record_in_two_renders(sim, records, render_midway) -> list:
    """``_record_all`` of ``records``; with ``render_midway``, the trace is
    rendered once after the first half, so a second render shows whether
    anything of the first (a memo, a stem, a parsed list) outlived it."""
    half = len(records) // 2
    out = _record_all(sim, records[:half])
    if render_midway:
        assert sim.trace_jsonl() == _reference_jsonl(sim, out)
        assert len(sim.trace) == half
    return out + _record_all(sim, records[half:])


@pytest.mark.parametrize("render_midway", [True, False])
def test_rendering_matches_the_dict_encoder_byte_for_byte(render_midway):
    sim = _fresh_sim()
    records = _record_in_two_renders(sim, RECORDS, render_midway)
    text = sim.trace_jsonl()
    assert text == _reference_jsonl(sim, records)
    assert "\\u00e9" in text and "\\ud83d\\ude00" in text  # ASCII only
    assert text.count("\n") == len(RECORDS)
    # names resolved at render: the real ids appear under their names
    assert sim.trace[1]["src"] == sim.graph.nodes[records[1][2]].name
    assert sim.trace[4]["src"] == "unknown-id"
    assert sim.trace[6]["detail"]["node"] == sim.trace[8]["src"]
    lines = text.splitlines()
    assert lines[5].endswith('"t": 3}') and lines[8].endswith('"t": Infinity}')
    assert RECORDS[-6][0] is RECORDS[-5][0] is not RECORDS[-4][0]
    assert [line[line.rindex(":"):] for line in lines[-6:]] == [
        ": 6.0}", ": 6.0}", ": 6.0}", ": 6}", ": 0.0}", ": -0.0}"]
    assert [json.loads(line)["detail"]["area"] for line in lines[-6:]] == [
        "9", 9, True, None, 2.5, 2 ** 70]


def test_trace_is_rebuilt_and_not_assignable():
    sim = _fresh_sim()
    sim.trace_event("detach", None, None, "10.0.0.1/32")
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
    sim.trace_event("detach", None, None, "10.0.0.1/32")
    assert helpers.parsed_trace(sim) == sim.trace == parsed + [
        sim.trace[-1]]


@pytest.mark.parametrize("name", sorted(BUNDLED_SCENARIOS))
def test_trace_equals_the_parsed_jsonl(name):
    sim = run_scenario(load_scenario(SCENARIO_DIR / f"{name}.json"))
    lines = sim.trace_jsonl().splitlines()
    assert lines
    assert sim.trace == [json.loads(line) for line in lines]


TOP = 2 ** 20 - 1  # the highest label value

# every TRACE_KEYS entry, as RECORDS, each kind as the dict it had before
# its detail was flat; each variant of a kind, and odd texts and times
HOT = [
    (0.5, "data_ingress", "LER", None, (ODD, 0), {"flow": ODD, "seq": 0}),
    (0.5, "data_ingress/unattached", None, None, ("f", None, 1),
     {"flow": "f", "ler": None, "seq": 1}),
    (0.5, "data_hop", "LER", "AMRR", ("f1", 7, 16, TOP),
     {"flow": "f1", "seq": 7, "stack": f"i16/m{TOP}"}),
    (3.0, "data_hop", "AMRR", "LER", (ODD, 7, TOP, 16),
     {"flow": ODD, "seq": 7, "stack": f"i{TOP}/m16"}),
    (3, "data_hop", "AMRR", "LER", (ODD, 8, 16, TOP),
     {"flow": ODD, "seq": 8, "stack": f"i16/m{TOP}"}),
    (3.0, "data_hop/text", "LER", "AMRR", (ODD, 9, "i16"),
     {"flow": ODD, "seq": 9, "stack": "i16"}),
    (0.0, "ctl_recv", "AMRR", "LER", ("BindingRequest",),
     {"msg": "BindingRequest"}),
    (-0.0, "ctl_recv", "LER", "AMRR", (ODD,), {"msg": ODD}),
    (-0.0, "ctl_recv", "LER", "AMRR", ("LrlReply",), {"msg": "LrlReply"}),
    (0.0, "data_deliver", "LER", None, (ODD, "MR1/c1", "LER1>P0", False, 0),
     {"flow": ODD, "seq": 0, "interface": "MR1/c1", "path": "LER1>P0",
      "replica": False}),
    (1e-10, "data_deliver", "LER", None, ("", ODD, ODD, False, 3),
     {"flow": "", "seq": 3, "interface": ODD, "path": ODD, "replica": False}),
    (1e-10, "data_deliver", "LER", None, ("g", "x", "", True, 4),
     {"flow": "g", "seq": 4, "interface": "x", "path": "", "replica": True}),
    # ctl_send in each of its three shapes
    (0.25, "ctl_send", "LER", "AMRR",
     (False, 3, "b1010a", 17, "BindingUpdate", "LER", "10.0.0.1/32",
      "INTERNAL"),
     {"area_crossing": False, "area_id": 3, "hex": "b1010a", "label": 17,
      "msg": "BindingUpdate", "origin": "LER", "prefix": "10.0.0.1/32",
      "update_type": "INTERNAL"}),
    (0.25, "ctl_send", "AMRR", "LER", (True, 0, ODD, TOP, ODD, ODD, ODD, ODD),
     {"area_crossing": True, "area_id": 0, "hex": ODD, "label": TOP,
      "msg": ODD, "origin": ODD, "prefix": ODD, "update_type": ODD}),
    (0.5, "ctl_send/prefix", "LER", "AMRR",
     (True, "b103", "BindingRequest", ODD),
     {"area_crossing": True, "hex": "b103", "msg": "BindingRequest",
      "prefix": ODD}),
    (0.5, "ctl_send/blanket", "AMRR", "AMRR",
     (False, ODD, "AlerFailoverBlanket"),
     {"area_crossing": False, "hex": ODD, "msg": "AlerFailoverBlanket"}),
    (0.5, "ctl_send/blanket", "AMRR", "AMRR", (False, "", ODD),
     {"area_crossing": False, "hex": "", "msg": ODD}),
    (0.5, "ctl_drop", "LER", "AMRR", ("BindingUpdate", "node_failed"),
     {"msg": "BindingUpdate", "why": "node_failed"}),
    (1.0, "fib_update", "AMRR", None, (TOP, 16, "LER", "10.0.0.1/32", ODD),
     {"cml": TOP, "lml": 16, "origin": "LER", "prefix": "10.0.0.1/32",
      "what": ODD}),
    (1.0, "fib_update", "AMRR", None, (16, 17, "unknown-id", ODD, "created"),
     {"cml": 16, "lml": 17, "origin": "unknown-id", "prefix": ODD,
      "what": "created"}),
    (1.5, "register", "LER", None, (0, ODD, 16, "10.0.0.1/32"),
     {"area_sent": 0, "interface": ODD, "label": 16, "prefix": "10.0.0.1/32"}),
    (1.5, "attach", "LER", None, (0, "c1", "10.0.0.1/32", "MR1"),
     {"area_hint": 0, "cell": "c1", "prefix": "10.0.0.1/32", "region": "MR1"}),
    (1.5, "local_handoff", "LER", None, (ODD, "10.0.0.1/32"),
     {"interface": ODD, "prefix": "10.0.0.1/32"}),
    (2.0, "move", "LER", None, (ODD, "10.0.0.1/32", "MR1", True),
     {"from_region": ODD, "prefix": "10.0.0.1/32", "region": "MR1",
      "same_ler": True}),
    (2.0, "move", "LER", None, ("MR1", ODD, ODD, False),
     {"from_region": "MR1", "prefix": ODD, "region": ODD, "same_ler": False}),
    (2.0, "detach", None, None, (ODD,), {"prefix": ODD}),
    (2.5, "data_drop", "LER", None, ("f1", "stale_location", False, 3),
     {"flow": "f1", "reason": "stale_location", "replica": False, "seq": 3}),
    (2.5, "data_drop", None, None, (ODD, "source_not_attached", False, 0),
     {"flow": ODD, "reason": "source_not_attached", "replica": False,
      "seq": 0}),
    (2.5, "ignored_withdrawal", "AMRR", None, ("LER", "10.0.0.1/32"),
     {"from": "LER", "prefix": "10.0.0.1/32"}),
    (2.5, "warn/area", "AMRR", None, (9, ODD, "unknown_peer_area"),
     {"area": 9, "prefix": ODD, "what": "unknown_peer_area"}),
    (2.5, "warn/from", "AMRR", None,
     ("LER", "10.0.0.1/32", "external_before_internal"),
     {"from": "LER", "prefix": "10.0.0.1/32",
      "what": "external_before_internal"}),
    (2.5, "warn/from", "AMRR", None, ("unknown-id", ODD, ODD),
     {"from": "unknown-id", "prefix": ODD, "what": ODD}),
    (2.5, "warn/node", "AMRR", None, ("LER", "aler_failed_without_twin"),
     {"node": "LER", "what": "aler_failed_without_twin"}),
    (2.5, "warn/prefix", "AMRR", None, (ODD, "lrl_without_alias"),
     {"prefix": ODD, "what": "lrl_without_alias"}),
    (3.0, "node_fail", "AMRR", None, (), {}),
]


def test_flat_keys_are_sorted_as_the_lines_write_them():
    for keys in TRACE_KEYS.values():
        assert list(keys) == sorted(keys)
    # every entry, each variant of a kind included, is rendered in HOT
    assert {name for _, name, *_ in HOT} == set(TRACE_KEYS)


@pytest.mark.parametrize("render_midway", [True, False])
def test_flat_records_render_as_their_dicts_did(render_midway):
    sim = _fresh_sim()
    records = _record_in_two_renders(sim, HOT, render_midway)
    assert sim.trace_jsonl() == _reference_jsonl(sim, records)
    assert sim.trace == _reference_trace(sim, records)
    lines = sim.trace_jsonl().splitlines()
    assert lines[3].endswith('"t": 3.0}') and lines[4].endswith('"t": 3}')
    assert lines[6].endswith('"t": 0.0}') and lines[7].endswith('"t": -0.0}')
    assert '"kind": "warn"' in lines[-3] and '"kind": "ctl_send"' in lines[15]


@pytest.mark.parametrize("count", [0, 1, 511, 512, 513, 1024, 1025])
def test_traces_render_whole_across_chunk_boundaries(count):
    """Lines are joined 512 at a time; a trace of any length, every entry
    mixed, still renders as the dict encoder wrote it."""
    assert trace.CHUNK_LINES == 512
    sim = _fresh_sim()
    records = _record_all(sim, (HOT * (count // len(HOT) + 1))[:count])
    assert len(sim._records) == count
    assert sim.trace_jsonl() == _reference_jsonl(sim, records)
    assert sim.trace == _reference_trace(sim, records)


@pytest.mark.parametrize("name", ['fl"ow', "fl'ow", "fl{ow", "fl}ow",
                                  "fl\\ow", "flow\n", "fl ow", "fl\u00e9w",
                                  "", "1flow"])
@pytest.mark.parametrize("where", ["kind", "key", "variant"])
def test_line_factories_refuse_names_that_are_not_identifiers(name, where):
    """Kinds, variants and keys are written into generated source, or name
    a record; a quote or brace in one is refused before any source is
    built."""
    schema = {"kind": {name: ("flow",)},
              "key": {"data_hop": ("flow", name)},
              "variant": {f"warn/{name}": ("what",)}}[where]
    with pytest.raises(ValueError, match="identifiers"):
        trace._line_factories(schema)
    with pytest.raises(ValueError, match="identifiers"):  # one "/" at most
        trace._line_factories({"warn/from/x": ("what",)})
    assert trace._line_factories({"data_hop": ("flow", "seq"),
                                      "warn/from": ("from", "what")})


def test_every_name_the_program_records_is_a_trace_keys_entry():
    """Each literal name passed to ``trace_event`` or ``emit`` in the
    package is a ``TRACE_KEYS`` entry, and every entry is recorded
    somewhere; where no value is starred, the call passes the entry's
    value count (a two-label stack two), so a misspelt or miscounted rare
    record fails here rather than in ``trace_jsonl`` after a run."""
    used = set()
    for path in sorted(SOURCE_DIR.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if not (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in ("trace_event", "emit")
                    and node.args and isinstance(node.args[0], ast.Constant)):
                continue
            name = node.args[0].value
            where = f"{path.name}:{node.lineno}"
            assert name in TRACE_KEYS, where
            used.add(name)
            values = node.args[1 + 2 * (node.func.attr == "trace_event"):]
            assert not node.keywords, where
            if not any(isinstance(v, ast.Starred) for v in values):
                assert len(values) == (len(TRACE_KEYS[name])
                                       + (name == LABEL_PAIR)), where
    assert used == set(TRACE_KEYS)


@pytest.mark.parametrize("depth", [1, 2, 3])
def test_transmit_records_a_stack_of_any_depth(depth):
    sim = _fresh_sim()
    src = sim.graph.by_role(NodeRole.LER)[0]
    dst = sim.graph.neighbors(src)[0]
    host = MobilePrefix.parse("10.0.0.1/32")
    packet = DataPacket(ODD, 5, host, 0.0)
    packet.stack = [16, TOP, 17][:depth]
    detail = {"flow": ODD, "seq": 5, "stack": packet.render_stack()}
    sim.now = 0.25
    sim.transmit(packet, src, dst)
    packet.stack[0] = 99  # a later swap rewrites the top label
    records = [(0.25, "data_hop", src, dst, detail)]
    assert sim.trace == _reference_trace(sim, records)
    assert sim.trace_jsonl() == _reference_jsonl(sim, records)
    assert sim._records[0][1:2] == (("data_hop",) if depth == 2
                                    else ("data_hop/text",))


def test_flat_records_hold_only_untracked_atomic_values():
    """Every record is a tuple of str/int/float/bool/None, which the cyclic
    collector stops tracking after one pass; a message, payload, prefix or
    enum member kept in one would be tracked for the whole run."""
    for name in sorted(BUNDLED_SCENARIOS):
        sim = run_scenario(load_scenario(SCENARIO_DIR / f"{name}.json"))
        gc.collect()
        for rec in sim._records:
            assert rec[1] in TRACE_KEYS, rec
            assert all(type(v) in (str, int, float, bool, type(None))
                       for v in rec), rec
            assert not gc.is_tracked(rec), rec


# a data_hop's stable values, (src, dst, flow, top label, inner label);
# "LER" and "AMRR" stand for real router ids
HOP_A = ("LER", "AMRR", "f1", 16, TOP)
HOP_B = ("AMRR", "LER", "f1", 16, TOP)  # A's way back
HOP_C = ("LER", "AMRR", "f1", 17, TOP)  # A but the top label
HOP_E = ("LER", "AMRR", "f2", 16, TOP)  # A but the flow
HOP_F = ("LER", "LER", "f1", 16, TOP)  # A but the dst
HOP_H = ("LER", "AMRR", "f1", 16, 17)  # A but the inner label
HOP_ODD = ("LER", ODD, ODD, 16, TOP)
HOP_ODD_SRC = (ODD, "AMRR", ODD, TOP, 16)


def _record_hops(sim, hops) -> list:
    """Record each ``(now, stable values, seq)`` in ``hops`` as a flat
    data_hop with real router ids; returns the dict records they stand for."""
    ids = {"LER": sim.graph.by_role(NodeRole.LER)[0],
           "AMRR": sim.graph.by_role(NodeRole.AMRR)[0]}
    records = []
    for now, (src, dst, flow, top, inner), seq in hops:
        src, dst = ids.get(src, src), ids.get(dst, dst)
        sim.now = now
        sim.trace_event("data_hop", src, dst, flow, seq, top, inner)
        records.append((now, "data_hop", src, dst, {
            "flow": flow, "seq": seq, "stack": "i%d/m%d" % (top, inner)}))
    return records


def test_a_hop_renders_alike_each_time_its_values_recur():
    """A key seen once, twice and three times, each time with another
    packet seq, record seq and time; keys one value apart stay apart."""
    sim = _fresh_sim()
    records = _record_hops(sim, [
        (3, HOP_A, 0), (0.5, HOP_B, 0), (3.0, HOP_A, 1), (1.0, HOP_C, 0),
        (2.0, HOP_B, 1), (-0.0, HOP_A, 2), (1.0, HOP_E, 0), (1.0, HOP_F, 0),
        (1.0, HOP_H, 0)])
    text = sim.trace_jsonl()
    assert text == _reference_jsonl(sim, records)
    lines = text.splitlines()
    assert lines[0].endswith('"t": 3}') and lines[2].endswith('"t": 3.0}')
    assert lines[5].endswith('"t": -0.0}')
    assert [json.loads(lines[i])["detail"]["seq"] for i in (0, 2, 5)] \
        == [0, 1, 2]


def test_hops_with_odd_router_and_flow_texts_render_as_the_encoder_did():
    sim = _fresh_sim()
    records = _record_hops(sim, [
        (0.25, HOP_ODD, 0), (0.5, HOP_ODD_SRC, 0), (0.75, HOP_ODD, 1),
        (1.0, HOP_ODD, 2), (1.25, HOP_ODD_SRC, 1), (1.5, HOP_ODD_SRC, 1)])
    text = sim.trace_jsonl()
    assert text == _reference_jsonl(sim, records)
    assert sim.trace == _reference_trace(sim, records)
    assert "\\ud83d\\ude00" in text and "\\u00e9" in text


@pytest.mark.parametrize("count", [511, 512, 513, 1025])
def test_recurring_hops_render_whole_across_chunk_boundaries(count):
    """Stems made in one chunk of 512 lines are filled in the next, and a
    key first seen in the second chunk is stemmed there; a hop one label
    deep, its stack a text, sits among them."""
    sim = _fresh_sim()
    keys, ler = [HOP_A, HOP_B, HOP_ODD, HOP_C], sim.graph.by_role(NodeRole.LER)[0]
    records = []
    for n in range(count):
        if n % 100 == 99:
            sim.now = n / 8
            detail = {"flow": "f1", "seq": n, "stack": "i16"}
            sim.trace_event("data_hop/text", ler, None, "f1", n, "i16")
            records.append((sim.now, "data_hop", ler, None, detail))
        else:
            records += _record_hops(sim, [(n / 8, keys[n % (3 + (n > 520))],
                                           n // 4)])
    assert len(sim._records) == count
    assert sim.trace_jsonl() == _reference_jsonl(sim, records)


def test_a_second_render_keeps_nothing_from_the_first():
    """Stems live for one ``trace_jsonl`` call: a router named after the
    first call is named in every line of the second, stemmed or not, and
    nothing is left on the simulation or on either module."""
    sim = _fresh_sim()
    unnamed = ("unknown-id", "AMRR", "f9", 16, 17)
    first = _record_hops(sim, [(0.5, HOP_A, 0), (0.5, unnamed, 0),
                               (1.0, HOP_A, 1), (1.0, unnamed, 1)])
    state = dict(vars(sim)), dict(vars(simulator)), dict(vars(trace))
    assert sim.trace_jsonl() == _reference_jsonl(sim, first)
    assert (dict(vars(sim)), dict(vars(simulator)), dict(vars(trace))) == state
    more = _record_hops(sim, [(1.5, HOP_A, 2), (1.5, unnamed, 2),
                              (2.0, HOP_B, 0), (2.0, HOP_B, 1)])
    unnamed_text = _reference_jsonl(sim, first + more)
    assert sim.trace_jsonl() == unnamed_text
    sim.graph.nodes["unknown-id"] = NodeInfo("named-later", NodeRole.LSR, 0)
    text = sim.trace_jsonl()
    assert text == unnamed_text.replace('"unknown-id"', '"named-later"') \
        == _reference_jsonl(sim, first + more)
    assert text.count('"src": "named-later"') == 3
