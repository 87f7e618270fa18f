import csv
import io
import random
import runpy
from collections import Counter, deque
from itertools import count
from pathlib import Path

import pytest

from hmlbn import scenarios as lib
from hmlbn.aler import AlerNode
from hmlbn.amrr import AmrrNode
from hmlbn.errors import ScenarioInvalid
from hmlbn.ler import LerNode
from hmlbn.messages import (
    ControlMessage,
    FailoverBlanketPayload,
    LrlReplyPayload,
    LrlRequestPayload,
    MessageKind,
    MobilePrefix,
    MobilityBinding,
    NegativeReplyPayload,
    RequestPayload,
    UpdatePayload,
    UpdateType,
    WithdrawalPayload,
    canonical_encode,
)
from hmlbn.scenario import load_scenario, parse_scenario, validate_scenario
from hmlbn.scenarios import (BUNDLED_SCENARIOS, inter_area_pattern,
                             intra_area_pattern, startup_pattern)
from hmlbn.simulator import EventKind, Simulation, run_scenario
from hmlbn.topology import NodeRole
from hmlbn.trace import (MSG_TEXT, UPDATE_TYPE_TEXT, assert_sequence,
                         roles_from_graph)

from helpers import ctl_sends, run

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
WORKLOAD_GEN = runpy.run_path(str(BENCH / "workloads.py"))
SPANS = runpy.run_path(str(BENCH / "spans.py"))


# ---------------------------------------------------------- determinism

@pytest.mark.parametrize("builder", [lib.startup_scenario,
                                     lib.random_walk_scenario])
def test_same_seed_gives_identical_traces(builder):
    a = run(builder())
    b = run(builder())
    assert a.trace_jsonl() == b.trace_jsonl()
    assert a.metrics.to_csv() == b.metrics.to_csv()


def test_different_seed_changes_the_random_walk():
    a = run(lib.random_walk_scenario())
    b = run(lib.random_walk_scenario(), seed=999)
    moves_a = [e["detail"]["region"] for e in a.trace if e["kind"] == "move"]
    moves_b = [e["detail"]["region"] for e in b.trace if e["kind"] == "move"]
    assert moves_a != moves_b


# ------------------------------------------------------------- causality

def test_control_messages_arrive_after_send_in_fifo_order():
    sim = run(lib.inter_area_scenario())
    sends = {}
    recvs = {}
    for e in sim.trace:
        key = (e["src"], e["dst"])
        if e["kind"] == "ctl_send":
            sends.setdefault(key, []).append(e)
        elif e["kind"] == "ctl_recv":
            recvs.setdefault(key, []).append(e)
    for key, received in recvs.items():
        assert len(sends[key]) >= len(received)
        for sent, got in zip(sends[key], received):
            assert got["t"] >= sent["t"]
            assert got["detail"]["msg"] == sent["detail"]["msg"]


# ------------------------------------------------------ movement model

def test_dwell_sampling_matches_configured_mean():
    rng = random.Random(123)
    draws = [rng.expovariate(0.1) for _ in range(10_000)]
    mean = sum(draws) / len(draws)
    assert abs(mean - 10.0) / 10.0 < 0.03


def test_single_region_model_never_moves():
    doc = lib.random_walk_scenario()
    doc["mobility"]["model"]["adjacency"] = {r: [] for r in
                                             doc["mobility"]["model"]["adjacency"]}
    sim = run(doc)
    assert [e for e in sim.trace if e["kind"] == "move"] == []


def test_forced_transitions_alternate_between_two_regions():
    doc = lib.random_walk_scenario()
    doc["duration_s"] = 20.0
    doc["flows"] = []
    doc["mobility"]["model"] = {
        "mu": 2.0, "p": 1.0, "prefixes": ["10.1.1.1/32"],
        "adjacency": {"MR11": ["MR12"], "MR12": ["MR11"]},
    }
    sim = run(doc)
    regions = [e["detail"]["region"] for e in sim.trace if e["kind"] == "move"]
    assert len(regions) > 5
    expected = ["MR12", "MR11"] * (len(regions) // 2 + 1)
    assert regions == expected[:len(regions)]


def test_a_reattach_while_a_tick_is_pending_leaves_one_chain_of_each_kind():
    """A second attach at 1.25 s, with the first attach's keepalive and
    move-decision ticks still pending, starts the mobile's chains anew and
    stops the old ones.  Before, both chains went on re-arming: 157
    keepalive ticks instead of 80, and 28 moves instead of 10, as the mover
    walked at twice its rate."""
    doc = lib.random_walk_scenario()
    doc["mobility"]["attach"].append({"t": 1.25, "prefix": lib.MN,
                                      "region": "MR11"})
    sim = Simulation(parse_scenario(doc))
    armed = Counter()
    after = sim._after

    def arm(delay, method, *args):
        if args and str(args[0]) == lib.MN:
            # a timer armed while an equal one is pending is a second chain
            assert (method, *args) not in [
                payload for _, _, kind, payload in sim._heap
                if kind is EventKind.TIMER_FIRE], (sim.now, method)
            armed[method] += 1
        after(delay, method, *args)

    sim._after = arm
    sim.run()
    # one arm per attach, then one per live tick: 2 ticks of the first
    # keepalive chain, 77 of the second, and each one's last re-arm, after
    # the run, is not scheduled
    assert armed == {"_keepalive": 81, "_on_move_decision": 23}
    assert sum(e["kind"] == "move" and e["detail"]["prefix"] == lib.MN
               for e in sim.trace) == 10


# ----------------------------------------------------------- sequences

def test_startup_trace_matches_bundled_pattern():
    sim = run(lib.startup_scenario())
    result = assert_sequence(sim.trace, startup_pattern(),
                             roles_from_graph(sim.graph))
    assert result.ok, result.describe()


def test_intra_area_trace_matches_bundled_pattern():
    sim = run(lib.intra_area_scenario())
    result = assert_sequence(sim.trace, intra_area_pattern(),
                             roles_from_graph(sim.graph))
    assert result.ok, result.describe()


def test_startup_trace_rejects_inter_area_pattern():
    sim = run(lib.startup_scenario())
    result = assert_sequence(sim.trace, inter_area_pattern(),
                             roles_from_graph(sim.graph))
    assert not result.ok
    assert result.failed_index is not None
    assert "never matched" in result.describe()


# ----------------------------------------------------- hand-off behavior

def test_startup_resolution_costs_eleven_messages():
    """One registration plus one remote on-demand fill: 3 + 8 messages
    under flooded peer requests and explicit negatives."""
    sim = run(lib.startup_scenario())
    msgs = ctl_sends(sim, prefix_text="10.1.1.1/32")
    assert len(msgs) == 11
    kinds = [m["detail"]["msg"] for m in msgs]
    assert kinds.count("BindingRequest") == 3
    assert kinds.count("BindingReplyNegative") == 1
    assert kinds.count("BindingReplyPositive") == 2
    assert kinds.count("BindingUpdate") == 5


def test_local_handoff_emits_zero_messages_and_keeps_flow():
    sim = run(lib.local_handoff_scenario())
    assert ctl_sends(sim, t_min=0.15) == []
    rows = sim.metrics.finalize()["cn-to-mn"]
    assert rows["delivered"] == rows["ingress"]
    handoffs = [e for e in sim.trace if e["kind"] == "local_handoff"]
    assert len(handoffs) == 1


def test_intra_area_handoff_stays_inside_the_area():
    sim = run(lib.intra_area_scenario())
    post = ctl_sends(sim, t_min=0.2)
    assert len(post) == 2
    assert all(not m["detail"]["area_crossing"] for m in post)


@pytest.mark.parametrize("areas", range(3, 11))
def test_handoff_cost_does_not_grow_with_uninvolved_areas(areas):
    """Scalable Mobility Label distribution: an intra-area hand-off costs 2
    control messages and an inter-area one 9, which touch only the AMRRs of
    the three areas involved, whatever the number of other areas."""
    intra = ctl_sends(run(lib.scaling_intra_scenario(areas)), t_min=0.2)
    inter = ctl_sends(run(lib.scaling_inter_scenario(areas)), t_min=0.2)
    assert len(intra) == 2
    assert len(inter) == 9
    touched = {e[end] for e in inter for end in ("src", "dst")
               if e[end].startswith("AMRR")}
    assert touched == {"AMRR1", "AMRR2", "AMRR3"}


def _table_sizes(sim) -> dict:
    """End-of-run size of every ALER FIB and AMRR record store, by name; a
    node the run never made is made here, with empty tables."""
    return {sim.graph.name_of(rid): len(sim.nodes[rid].fib) for rid
            in sim.graph.by_role(NodeRole.ALER)} | {
        sim.graph.name_of(rid): len(sim.nodes[rid].records) for rid
        in sim.graph.by_role(NodeRole.AMRR)}


def test_nodes_are_made_on_first_use_only():
    """A run makes the state machines of the nodes it reaches: none before
    it starts, and far from all of a 20-area network for one flow."""
    doc = lib.startup_scenario()
    doc["topology"] = lib.base_topology(n_areas=20, lers_per_area=15)
    doc["mobility"]["attach"] = [
        {"t": 0.0, "prefix": lib.MN, "region": "MR1_2"},
        {"t": 0.0, "prefix": lib.CN, "region": "MR3_3"},
    ]
    sim = Simulation(parse_scenario(doc))
    assert len(sim.nodes) == 0
    sim.run()
    row = sim.metrics.finalize()["cn-to-mn"]
    assert row["ingress"] > 0 and row["delivered"] == row["ingress"]
    mobility = [rid for role in (NodeRole.LER, NodeRole.ALER, NodeRole.AMRR)
                for rid in sim.graph.by_role(role)]
    assert 0 < len(sim.nodes) < len(mobility)
    assert set(sim.nodes) < set(mobility)
    for rid in (sim.graph.by_role(NodeRole.LSR)[0], "no-such-node"):
        with pytest.raises(KeyError):
            sim.nodes[rid]


@pytest.mark.parametrize("area", [1, 2, 4])
def test_silent_mobiles_change_only_their_own_areas_tables(area):
    """Scalable Mobility Label distribution under selective downstream
    push: a mobile nobody sends to is known only inside its own area.  Eight
    such mobiles attached in one area of ``steady_flows`` grow that area's
    ALER FIB and AMRR store by eight each and leave every other table as it
    was, and no control message about them crosses an area boundary."""
    doc = WORKLOAD_GEN["WORKLOADS"]["steady_flows"].document(seed=1)
    before = _table_sizes(run(doc))
    silent = [WORKLOAD_GEN["mobile_prefix"](1000 + k) for k in range(8)]
    doc["mobility"]["attach"] += [
        {"t": 0.0, "prefix": p, "region": WORKLOAD_GEN["region_name"](area, 1)}
        for p in silent]
    sim = run(doc)
    after = _table_sizes(sim)
    grown = {f"ALER{area}", f"AMRR{area}"}
    assert {name: after[name] - before[name] for name in grown} \
        == dict.fromkeys(grown, 8)
    assert {n: v for n, v in after.items() if n not in grown} \
        == {n: v for n, v in before.items() if n not in grown}
    sends = [e for e in ctl_sends(sim) if e["detail"].get("prefix") in silent]
    assert sends and not any(e["detail"]["area_crossing"] for e in sends)


def test_inter_area_handoff_has_three_path_phases():
    """In ingress order the delivery path moves old -> interim -> new;
    deliveries may interleave in time because the interim detour is longer."""
    sim = run(lib.inter_area_scenario())
    by_path = {}
    for e in sim.trace:
        if e["kind"] == "data_deliver":
            by_path.setdefault(e["detail"]["path"], []).append(e["detail"]["seq"])
    old = by_path.pop("LER33>P3>ALER3>P0>ALER1>LER13")
    interim = by_path.pop("LER33>P3>ALER3>P0>ALER1>P0>ALER2>LER21")
    new = by_path.pop("LER33>P3>ALER3>P0>ALER2>LER21")
    assert by_path == {}
    assert old and interim and new
    assert max(old) < min(interim) and max(interim) < min(new)


def test_handoff_gap_stays_within_two_control_round_trips():
    sim = run(lib.inter_area_scenario())
    rows = sim.metrics.finalize()["cn-to-mn"]
    rtt = 2 * sim.latency[sim.graph.rid_of("LER21")][sim.graph.rid_of("AMRR2")] / 1000.0
    flow_interval = 1 / 1000.0
    assert rows["max_gap_s"] <= 2 * rtt + 2 * flow_interval


def test_withdrawal_scoping_and_recovery():
    sim = run(lib.withdrawal_scenario())
    wd = [e for e in sim.trace if e["kind"] == "ctl_send"
          and e["detail"]["msg"] == "BindingWithdrawal"]
    pairs = {(e["src"], e["dst"]) for e in wd}
    assert pairs == {("LER12", "AMRR1"), ("AMRR1", "ALER1"),
                     ("AMRR1", "AMRR3"), ("AMRR3", "LER33"),
                     ("AMRR3", "ALER3")}
    done = max(e["t"] for e in sim.trace if e["kind"] == "ctl_recv"
               and e["detail"]["msg"] == "BindingWithdrawal")
    late_stale = [e for e in sim.trace if e["kind"] == "data_drop"
                  and e["detail"]["reason"] == "stale_location"
                  and e["t"] > done + 0.05]
    assert late_stale == []
    late_deliveries = {e["src"] for e in sim.trace
                       if e["kind"] == "data_deliver" and e["t"] > done}
    assert late_deliveries == {"LER21"}


def test_control_messages_to_a_failed_node_are_dropped_and_traced():
    """An AMRR that fails at t=0 receives nothing.  The LER's registration,
    sent at t=0 before the failure, is dropped when it arrives; the
    correspondent area's flooded request is dropped as it is sent."""
    doc = lib.startup_scenario()
    doc["failures"] = [{"t": 0, "node": "AMRR1"}]
    drops = [(e["t"], e["src"], e["dst"], e["detail"])
             for e in run(doc).trace if e["kind"] == "ctl_drop"]
    assert drops == [
        (0.002, "LER12", "AMRR1", {"msg": "BindingUpdate", "why": "node_failed"}),
        (0.053, "AMRR3", "AMRR1", {"msg": "BindingRequest",
                                   "why": "node_failed"}),
    ]


def test_a_packet_entering_at_a_failed_ler_is_dropped_there():
    """LER33, where the correspondent attaches, fails at t=0 after the
    attach: each packet is traced entering there and dropped as
    ``node_failed``, and the failed LER asks nobody for a binding."""
    doc = lib.startup_scenario()
    doc["failures"] = [{"t": 0.0, "node": "LER33"}]
    sim = run(doc)
    (row,) = sim.metrics.finalize().values()
    assert row["ingress"] == row["drops"]["node_failed"] == 25
    assert row["delivered"] == row["in_flight"] == 0
    trace = sim.trace
    failed_at = next(i for i, e in enumerate(trace)
                     if e["kind"] == "node_fail")
    assert trace[failed_at]["src"] == "LER33"
    assert [e for e in trace[failed_at:]
            if e["kind"] == "ctl_send" and e["src"] == "LER33"] == []
    drops = [e for e in trace if e["kind"] == "data_drop"]
    assert {(e["src"], e["detail"]["reason"]) for e in drops} == {
        ("LER33", "node_failed")}


def test_a_failed_ler_sweeps_nothing():
    """LER33 fails at t=0 with the correspondent registered there, which
    then detaches: the failed LER neither keeps the registration alive nor
    withdraws it when its dead time runs out."""
    doc = lib.startup_scenario()
    doc.update(duration_s=1.0, flows=[],
               timers={"keepalive_s": 0.1, "dead_s": 0.4, "lifetime_s": 4.0},
               failures=[{"t": 0.0, "node": "LER33"}])
    doc["mobility"]["detach"] = [{"t": 0.1, "prefix": "10.3.3.1/32"}]
    trace = run(doc).trace
    failed_at = next(i for i, e in enumerate(trace)
                     if e["kind"] == "node_fail")
    assert [e for e in trace[failed_at:]
            if e["kind"] == "ctl_send" and e["src"] == "LER33"] == []


def test_a_mobile_attaching_at_a_failed_ler_registers_nowhere():
    """The correspondent attaches in MR33 after LER33 failed: no
    registration is made or announced there, and each packet it sends drops
    at the failed LER."""
    doc = lib.startup_scenario()
    doc["mobility"]["attach"][1]["t"] = 0.01
    doc["failures"] = [{"t": 0.0, "node": "LER33"}]
    sim = run(doc)
    assert [e for e in sim.trace if e["src"] == "LER33"
            and e["kind"] in ("register", "ctl_send")] == []
    (row,) = sim.metrics.finalize().values()
    assert row["ingress"] == row["drops"]["node_failed"] == 25

def test_reflect_to_previous_ler_flag_updates_old_serving_ler():
    doc = lib.intra_area_scenario()
    doc["flags"]["reflect_to_previous_ler"] = True
    sim = run(doc)
    post = ctl_sends(sim, t_min=0.2)
    assert ("AMRR1", "LER12") in {(m["src"], m["dst"]) for m in post}


# ----------------------------------------------------- overlap of attachments

def _mn_attachments(doc) -> list:
    """The mobile's attachments when the run ends, as (interface, expires)."""
    sim = run(doc)
    mobile = next(m for p, m in sim.mobiles.items() if str(p) == lib.MN)
    return [(a.interface, a.expires) for a in mobile.attachments]


@pytest.mark.parametrize("moves,expected", [
    # a move to the cell it is in keeps no second attachment
    ([(0.15, "MR12", "c1")], [("MR12/c1", None)]),
    # a move to another cell keeps the old one for overlap_s
    ([(0.15, "MR12", "c2")], [("MR12/c2", None), ("MR12/c1", 1.15)]),
    # a local move keeps only the attachment it leaves
    ([(0.1, "MR13"), (0.15, "MR13", "c2")],
     [("MR13/c2", None), ("MR13/c1", 1.15)]),
], ids=["same_cell", "other_cell", "after_a_move"])
def test_a_local_move_keeps_the_cell_it_leaves(moves, expected):
    doc = lib.local_handoff_scenario()
    doc["flags"] = {"overlap_attach": True}
    doc["mobility"]["move"] = [{"t": t, "prefix": lib.MN, "region": r,
                                **({"cell": c[0]} if c else {})}
                               for t, r, *c in moves]
    assert _mn_attachments(doc) == expected


@pytest.mark.parametrize("overlap,expected", [
    (True, [("MR11/c1", None), ("MR13/c1", 1.3), ("MR12/c1", 1.2)]),
    (False, [("MR11/c1", None)]),
])
def test_moves_to_other_lers_keep_every_active_attachment(overlap, expected):
    """Two moves within ``overlap_s`` keep three attachments, newest first;
    without the overlap a move keeps none."""
    doc = lib.intra_area_scenario()
    doc["flags"] = {"overlap_attach": overlap}
    doc["mobility"]["move"].append({"t": 0.3, "prefix": lib.MN,
                                    "region": "MR11"})
    assert _mn_attachments(doc) == expected


def test_a_move_after_a_reattach_registers_at_the_new_ler():
    doc = lib.withdrawal_scenario()
    doc["mobility"]["move"] = [{"t": 2.0, "prefix": lib.MN, "region": "MR22"}]
    sim = run(doc)
    ler = sim.nodes[sim.graph.rid_of("LER22")]
    assert ler.registrations[lib.MN].interface_id == "MR22/c1"


# ----------------------------------------------------------- validation

def test_timer_hierarchy_enforced():
    doc = lib.startup_scenario()
    doc["timers"] = {"keepalive_s": 3, "dead_s": 9, "lifetime_s": 10}
    problems = validate_scenario(doc)
    assert any("lifetime" in path for path, _ in problems)


def test_unknown_keys_rejected_with_path():
    doc = lib.startup_scenario()
    doc["extra_section"] = {}
    doc["flows"][0]["burst"] = 4
    problems = validate_scenario(doc)
    paths = [p for p, _ in problems]
    assert "extra_section" in paths
    assert "flows[0].burst" in paths


def test_prefix_outside_mobility_range_rejected():
    doc = lib.startup_scenario()
    doc["mobility"]["attach"][0]["prefix"] = "99.1.1.1/32"
    problems = validate_scenario(doc)
    assert any("outside the mobility address range" in m for _, m in problems)


def test_parse_rejects_bad_document():
    with pytest.raises(ScenarioInvalid):
        parse_scenario({"duration_s": -1})


def test_bundled_scenarios_all_validate():
    for name, builder in lib.BUNDLED_SCENARIOS.items():
        assert validate_scenario(builder()) == [], name


# ------------------------------------------------------------ HA twins

def test_ha_amrr_pair_stores_converge():
    doc = lib.startup_scenario()
    topo = doc["topology"]
    topo["nodes"].append({"id": "20.1.3.11", "name": "AMRR1B",
                          "role": "AMRR", "area": 1})
    topo["edges"].append({"a": "AMRR1B", "b": "ALER1"})
    sim = run(doc)
    a = sim.nodes[sim.graph.rid_of("AMRR1")]
    b = sim.nodes[sim.graph.rid_of("AMRR1B")]
    assert set(a.records) == set(b.records)
    for key in a.records:
        ra, rb = a.records[key], b.records[key]
        assert ra.binding == rb.binding
        assert ra.area_id == rb.area_id
        assert ra.aler_labels == rb.aler_labels
        assert ra.lrl.external == rb.lrl.external
        assert ra.lrl.internal == rb.lrl.internal
    rows = sim.metrics.finalize()["cn-to-mn"]
    assert rows["delivered"] == rows["ingress"]


# ------------------------------------------------------------- dispatch

_MN = MobilePrefix.parse("10.1.1.9/32")
_BLANKET = FailoverBlanketPayload("20.1.2.1", "20.1.2.2")
_PAYLOADS = {
    MessageKind.BINDING_WITHDRAWAL: WithdrawalPayload(_MN, "20.1.1.1"),
    MessageKind.BINDING_REQUEST: RequestPayload(_MN, 1),
    MessageKind.BINDING_REPLY_POSITIVE: UpdatePayload(
        MobilityBinding(_MN, "20.1.1.1", 116, 1)),
    MessageKind.BINDING_REPLY_NEGATIVE: NegativeReplyPayload(_MN),
    MessageKind.LRL_REQUEST: LrlRequestPayload(_MN),
    MessageKind.LRL_REPLY: LrlReplyPayload(_MN, (2,)),
    MessageKind.ALER_FAILOVER_BLANKET: _BLANKET,
}
# (role, kind, update type of a BindingUpdate, class, handler): every
# control route, including the ALER's internal/external update split
_ROUTES = [
    (NodeRole.LER, MessageKind.BINDING_UPDATE, UpdateType.INTERNAL,
     LerNode, "handle_unsolicited_update"),
    (NodeRole.LER, MessageKind.BINDING_REPLY_POSITIVE, None,
     LerNode, "handle_binding_reply"),
    (NodeRole.LER, MessageKind.BINDING_REPLY_NEGATIVE, None,
     LerNode, "handle_binding_reply"),
    (NodeRole.LER, MessageKind.BINDING_WITHDRAWAL, None,
     LerNode, "handle_withdrawal_reflect"),
    (NodeRole.ALER, MessageKind.BINDING_UPDATE, UpdateType.INTERNAL,
     AlerNode, "handle_internal_update"),
    (NodeRole.ALER, MessageKind.BINDING_UPDATE, UpdateType.EXTERNAL,
     AlerNode, "handle_external_update"),
    (NodeRole.ALER, MessageKind.BINDING_WITHDRAWAL, None,
     AlerNode, "handle_withdrawal"),
    (NodeRole.ALER, MessageKind.ALER_FAILOVER_BLANKET, None,
     AlerNode, "apply_failover"),
    (NodeRole.AMRR, MessageKind.BINDING_UPDATE, UpdateType.INTERNAL,
     AmrrNode, "handle_update"),
    (NodeRole.AMRR, MessageKind.BINDING_REQUEST, None,
     AmrrNode, "handle_request"),
    (NodeRole.AMRR, MessageKind.BINDING_REPLY_POSITIVE, None,
     AmrrNode, "handle_reply"),
    (NodeRole.AMRR, MessageKind.BINDING_REPLY_NEGATIVE, None,
     AmrrNode, "handle_reply"),
    (NodeRole.AMRR, MessageKind.LRL_REQUEST, None,
     AmrrNode, "handle_lrl_request"),
    (NodeRole.AMRR, MessageKind.LRL_REPLY, None,
     AmrrNode, "handle_lrl_reply"),
    (NodeRole.AMRR, MessageKind.BINDING_WITHDRAWAL, None,
     AmrrNode, "handle_withdrawal"),
    (NodeRole.AMRR, MessageKind.ALER_FAILOVER_BLANKET, None,
     AmrrNode, "handle_blanket"),
]


@pytest.mark.parametrize(
    "role,kind,update_type,cls,handler", _ROUTES,
    ids=[f"{r.value}-{k.value}" + (f"-{u.name}" if u and r is NodeRole.ALER else "")
         for r, k, u, _, _ in _ROUTES])
def test_control_message_reaches_its_handler(monkeypatch, role, kind,
                                             update_type, cls, handler):
    calls = []
    # patched on the class before the simulation exists, as the benchmark's
    # per-layer timers are; dispatch must look the handler up at call time
    monkeypatch.setattr(cls, handler,
                        lambda self, *args: calls.append((self.rid, args)))
    doc = lib.startup_scenario()
    doc["mobility"] = {}
    doc["flows"] = []
    sim = Simulation(parse_scenario(doc))
    dst = sim.graph.by_role(role)[0]
    src = sim.graph.by_role(NodeRole.AMRR if role is not NodeRole.AMRR
                            else NodeRole.LER)[0]
    if kind is MessageKind.BINDING_UPDATE:
        payload = UpdatePayload(MobilityBinding(_MN, src, 116, 1,
                                                update_type=update_type))
    else:
        payload = _PAYLOADS[kind]
    msg = ControlMessage(kind, src, dst, 0.0, payload)
    sim.schedule(0.5, EventKind.CONTROL_DELIVER, (msg,))
    sim.run()
    expected = ((_BLANKET.survivor, _BLANKET.failed) if handler == "apply_failover"
                else (msg,))
    assert calls == [(dst, expected)]


# ---------------------------------------------------------------- sends

def _probing_send(sim, src, kind, dst, payload):
    """``Simulation.send_control`` as it was when it took a payload and told
    the shape of its record by probing the payload's attributes."""
    msg = ControlMessage(kind, src, dst, sim.now, payload)
    text, wire = MSG_TEXT[kind], canonical_encode(msg).hex()
    crossing = sim.graph.area_of(src) != sim.graph.area_of(dst)
    binding = getattr(payload, "binding", None)
    if binding is not None:
        sim.trace_event("ctl_send", src, dst, crossing, binding.area_id,
                        wire, binding.label, text, binding.origin_next_hop,
                        str(binding.prefix),
                        UPDATE_TYPE_TEXT[binding.update_type])
    elif getattr(payload, "prefix", None) is not None:
        sim.trace_event("ctl_send/prefix", src, dst, crossing, wire, text,
                        str(payload.prefix))
    else:
        sim.trace_event("ctl_send/blanket", src, dst, crossing, wire, text)
    sim.metrics.control_by_kind[text] += 1
    sim.metrics.control_crossing += crossing
    if dst in sim.failed:
        sim.trace_event("ctl_drop", src, dst, text, "node_failed")
        return msg
    sim.schedule(sim.now + sim.latency[src][dst] / 1000.0,
                 EventKind.CONTROL_DELIVER, (msg,))
    return msg


def _sender_sim(dst_role: NodeRole, failed: bool) -> tuple:
    """A quiet simulation at t = 0.25 and a sender and receiver in it: an
    AMRR of area 1, and a ``dst_role`` node of area 2, failed or not."""
    doc = lib.startup_scenario()
    doc["mobility"] = {}
    doc["flows"] = []
    sim = Simulation(parse_scenario(doc))
    sim.now = 0.25
    src = sim.graph.by_role(NodeRole.AMRR, 1)[0]
    dst = sim.graph.by_role(dst_role, 2)[0]
    if failed:
        sim.failed.add(dst)
    return sim, src, dst


def _sent(sim) -> tuple:
    return (list(sim._records), list(sim._heap),
            dict(sim.metrics.control_by_kind), sim.metrics.control_crossing)


_SEND_PAYLOADS = {
    MessageKind.BINDING_UPDATE: UpdatePayload(MobilityBinding(
        _MN, "20.1.1.1", 116, 1, update_type=UpdateType.EXTERNAL)),
    **_PAYLOADS}


@pytest.mark.parametrize("failed", [False, True], ids=["live", "failed"])
@pytest.mark.parametrize("dst_role", [NodeRole.LER, NodeRole.AMRR],
                         ids=["to-LER", "to-AMRR"])
@pytest.mark.parametrize("kind", list(MessageKind), ids=lambda k: k.value)
def test_every_kind_sends_and_records_as_the_probing_send_did(kind, dst_role,
                                                              failed):
    """A kind and its payload's fields make the record, the count and the
    queued message that the payload made before, and a payload of the
    kind's own class."""
    payload = _SEND_PAYLOADS[kind]
    sim, src, dst = _sender_sim(dst_role, failed)
    msg = sim.send_control(src, kind, dst, *payload)
    old, _, _ = _sender_sim(dst_role, failed)
    assert msg == _probing_send(old, src, kind, dst, payload)
    assert type(msg.payload) is type(payload)
    assert _sent(sim) == _sent(old)
    assert sim._records[0][1].startswith("ctl_send")


@pytest.mark.parametrize("kind", list(MessageKind), ids=lambda k: k.value)
def test_a_wrong_field_count_is_refused_before_anything_is_sent(kind):
    payload = _SEND_PAYLOADS[kind]
    sim, src, dst = _sender_sim(NodeRole.AMRR, False)
    before = _sent(sim)
    for fields in (payload[:-1], (*payload, payload[-1])):
        with pytest.raises(TypeError):
            sim.send_control(src, kind, dst, *fields)
    assert _sent(sim) == before


def test_events_at_one_time_fire_in_scheduling_order():
    doc = lib.startup_scenario()
    doc["mobility"] = {}
    doc["flows"] = []
    sim = Simulation(parse_scenario(doc))
    fired = []
    sim._on_timer = lambda *args: fired.append(args)
    sim.engine.step = lambda *args: fired.append(args)
    # dict payloads cannot be ordered, and the two kinds sort differently
    # from their scheduling order, so only the sequence number may settle ties
    for i in range(6):
        kind = EventKind.TIMER_FIRE if i % 2 else EventKind.DATA_HOP
        sim.schedule(0.5, kind, ({"i": i},))
    sim.run()
    assert [args[0]["i"] for args in fired if isinstance(args[0], dict)] \
        == list(range(6))


# ------------------------------------------------------ lazy flow ingress

def _tied_scenario() -> dict:
    """Every kind of set-up event, with ties: flows ``a`` and ``b`` start
    together at one rate, a mobile attaches at their start time, and flow
    ``empty`` is shorter than the 1e-12 s guard, so it sends nothing."""
    doc = lib.startup_scenario()
    doc["timers"] = {"keepalive_s": 0.04, "dead_s": 0.15, "lifetime_s": 1.5}
    mobility = doc["mobility"]
    mobility["attach"].append({"t": 0.05, "prefix": "10.2.2.1/32",
                               "region": "MR21"})
    mobility["move"] = [{"t": 0.07, "prefix": lib.MN, "region": "MR13"}]
    mobility["detach"] = [{"t": 0.09, "prefix": "10.2.2.1/32"}]
    doc["failures"] = [{"t": 0.12, "node": "P3"}]
    doc["flows"] = [
        {"id": "a", "src": lib.CN, "dst": lib.MN, "rate_pps": 500,
         "start_s": 0.05, "stop_s": 0.1},
        {"id": "b", "src": lib.MN, "dst": lib.CN, "rate_pps": 500,
         "start_s": 0.05, "stop_s": 0.08},
        {"id": "empty", "src": lib.CN, "dst": lib.MN, "rate_pps": 500,
         "start_s": 0.06, "stop_s": 0.06 + 1e-13},
        {"id": "c", "src": "10.2.2.1/32", "dst": lib.CN, "rate_pps": 300,
         "start_s": 0.02, "stop_s": 0.11},
    ]
    return doc


def _upfront_keys(scenario):
    """``(t, seq, flow index, packet index)`` of every packet, keyed as when
    set-up scheduled all of them, flow after flow, after the attaches,
    moves, detaches and failures."""
    seq = (len(scenario.attaches) + len(scenario.moves)
           + len(scenario.detaches) + len(scenario.failures))
    for f, flow in enumerate(scenario.flows):
        for i in count():
            t = flow.start_s + i / flow.rate_pps
            if t >= flow.stop_s - 1e-12:
                break
            seq += 1
            yield t, seq, f, i


def _set_up_entries(scenario, sweep=1) -> int:
    """Heap entries right after set-up with one pending packet per flow."""
    return (len(scenario.attaches) + len(scenario.moves)
            + len(scenario.detaches) + len(scenario.failures) + sweep
            + len({f for _, _, f, i in _upfront_keys(scenario) if i == 0}))


def test_ingress_events_keep_the_keys_of_upfront_scheduling(monkeypatch):
    scenario = parse_scenario(_tied_scenario())
    expected = [(t, seq, i) for t, seq, _, i in _upfront_keys(scenario)]
    assert len({t for t, _, _ in expected}) < len(expected)  # ties
    recorded = []
    schedule = Simulation.schedule

    def recording(self, t, kind, payload, seq=None):
        schedule(self, t, kind, payload, seq)
        if kind is EventKind.DATA_INGRESS:
            recorded.append((t, self._event_seq if seq is None else seq,
                             payload[1]))

    monkeypatch.setattr(Simulation, "schedule", recording)
    sim = Simulation(scenario)
    assert sim._event_seq == expected[-1][1] + 1  # then the sweep tick
    assert sorted(p[0].flow_id for _, _, k, p in sim._heap
                  if k is EventKind.DATA_INGRESS) == ["a", "b", "c"]
    fired = []
    on_ingress = sim._on_ingress
    sim._on_ingress = lambda flow, i, key: (fired.append((sim.now, key, i)),
                                            on_ingress(flow, i, key))
    sim.run()
    assert sorted(recorded, key=lambda k: k[1]) == expected
    assert fired == sorted(expected)


def test_heap_holds_one_pending_packet_per_flow():
    scenario = parse_scenario(_tied_scenario())
    sim = Simulation(scenario)
    assert len(sim._heap) == _set_up_entries(scenario) == 6 + 3 + 1
    checks = []
    schedule = sim.schedule

    def checked(t, kind, payload, seq=None):
        schedule(t, kind, payload, seq)
        pending = Counter(p[0].flow_id for _, _, k, p in sim._heap
                          if k is EventKind.DATA_INGRESS)
        checks.append(max(pending.values(), default=0))

    sim.schedule = checked
    sim.run()
    assert checks and max(checks) == 1


def test_a_million_packet_flow_leaves_one_entry_at_set_up():
    doc = lib.startup_scenario()
    doc["duration_s"] = 1.0
    doc["flows"] = [{"id": "big", "src": lib.CN, "dst": lib.MN,
                     "rate_pps": 1e6, "start_s": 0.0, "stop_s": 1.0}]
    scenario = parse_scenario(doc)
    sim = Simulation(scenario)
    assert len(sim._heap) == _set_up_entries(scenario, sweep=0) == 3
    (_, last, _, packet), = deque(_upfront_keys(scenario), maxlen=1)
    assert sim._event_seq == last == 2 + 10**6 and packet == 10**6 - 1


@pytest.mark.parametrize("name", sorted(BUNDLED_SCENARIOS))
def test_bench_event_counter_sees_every_ingress(name):
    # counted as the benchmark counts events per kind, by wrapping the
    # method every push to the heap goes through
    tracer = SPANS["Tracer"]()
    assert tracer.count_calls(Simulation, "schedule",
                              lambda args: args[2].value)
    try:
        sim = run_scenario(load_scenario(ROOT / "scenarios" / f"{name}.json"))
    finally:
        tracer.restore()
    total = [row for row in csv.DictReader(io.StringIO(sim.metrics.to_csv()))
             if row["flow"] == "TOTAL"]
    assert tracer.counts["DataIngress"] == int(total[0]["ingress"]) > 0
