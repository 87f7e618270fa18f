import random

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
)
from hmlbn.scenario import parse_scenario, validate_scenario
from hmlbn.sequences import (
    assert_sequence,
    inter_area_pattern,
    intra_area_pattern,
    roles_from_graph,
    startup_pattern,
)
from hmlbn.simulator import EventKind, Simulation, run_scenario
from hmlbn.topology import NodeRole

from conftest import ctl_sends, delivered_paths, run


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


def test_reflect_to_previous_ler_flag_updates_old_serving_ler():
    doc = lib.intra_area_scenario()
    doc["flags"]["reflect_to_previous_ler"] = True
    sim = run(doc)
    post = ctl_sends(sim, t_min=0.2)
    assert ("AMRR1", "LER12") in {(m["src"], m["dst"]) for m in post}


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


def test_events_at_one_time_fire_in_scheduling_order():
    doc = lib.startup_scenario()
    doc["mobility"] = {}
    doc["flows"] = []
    sim = Simulation(parse_scenario(doc))
    fired = []
    sim._on_timer = lambda *args: fired.append(args)
    sim._on_hop = lambda *args: fired.append(args)
    # dict payloads cannot be ordered, and the two kinds sort differently
    # from their scheduling order, so only the sequence number may settle ties
    for i in range(6):
        kind = EventKind.TIMER_FIRE if i % 2 else EventKind.DATA_HOP
        sim.schedule(0.5, kind, ({"i": i},))
    sim.run()
    assert [args[0]["i"] for args in fired if isinstance(args[0], dict)] \
        == list(range(6))
