from hmlbn.forwarding import DataPacket
from hmlbn.scenario import parse_scenario
from hmlbn.scenarios import base_topology, ha_failover_scenario, MOBILITY_RANGE
from hmlbn.simulator import EventKind, Simulation

from helpers import delivered_paths, prefix, run


def two_mobile_scenario():
    """Two mobiles in area 1, one correspondent in area 3."""
    return {
        "name": "two-mobiles",
        "seed": 3,
        "duration_s": 0.2,
        "mobility_range": MOBILITY_RANGE,
        "topology": base_topology(),
        "mobility": {"attach": [
            {"t": 0.0, "prefix": "10.1.1.1/32", "region": "MR12"},
            {"t": 0.0, "prefix": "10.1.1.2/32", "region": "MR13"},
            {"t": 0.0, "prefix": "10.3.3.1/32", "region": "MR33"},
        ]},
        "flows": [
            {"id": "to-a", "src": "10.3.3.1/32", "dst": "10.1.1.1/32",
             "rate_pps": 100, "start_s": 0.05, "stop_s": 0.15},
            {"id": "to-b", "src": "10.3.3.1/32", "dst": "10.1.1.2/32",
             "rate_pps": 100, "start_s": 0.05, "stop_s": 0.15},
        ],
    }


def test_duplicate_label_values_on_different_lers_both_deliver():
    """Correctness keys on (origin router, label), never on the label alone:
    both first registrations get label 16 at their own LER."""
    sim = run(two_mobile_scenario())
    regs = [e["detail"] for e in sim.trace if e["kind"] == "register"]
    labels = {d["prefix"]: d["label"] for d in regs}
    assert labels["10.1.1.1/32"] == labels["10.1.1.2/32"] == 16
    rows = sim.metrics.finalize()
    assert rows["to-a"]["delivered"] == rows["to-a"]["ingress"] > 0
    assert rows["to-b"]["delivered"] == rows["to-b"]["ingress"] > 0
    assert delivered_paths(sim, "to-a")[0][1].endswith("LER12")
    assert delivered_paths(sim, "to-b")[0][1].endswith("LER13")


def intra_area_flow_scenario():
    return {
        "name": "intra-star",
        "seed": 5,
        "duration_s": 0.2,
        "mobility_range": MOBILITY_RANGE,
        "topology": base_topology(),
        "mobility": {"attach": [
            {"t": 0.0, "prefix": "10.1.1.1/32", "region": "MR12"},
            {"t": 0.0, "prefix": "10.1.1.5/32", "region": "MR11"},
        ]},
        "flows": [{"id": "f", "src": "10.1.1.5/32", "dst": "10.1.1.1/32",
                   "rate_pps": 100, "start_s": 0.05, "stop_s": 0.15}],
    }


def test_intra_area_transit_keeps_mobility_label_untouched():
    """Between two LERs of one area the ALER is a plain top-label switch:
    the inner label rides through unchanged and no trail lookup happens."""
    sim = run(intra_area_flow_scenario())
    paths = delivered_paths(sim, "f")
    assert paths and all(p == "LER11>ALER1>LER12" for _, p in paths)
    hops = [e for e in sim.trace if e["kind"] == "data_hop"
            and e["detail"]["flow"] == "f"]
    by_seq = {}
    for e in hops:
        by_seq.setdefault(e["detail"]["seq"], []).append(e)
    for seq, events in by_seq.items():
        inner = [h["detail"]["stack"].split("/")[-1] for h in events]
        assert len(set(inner)) == 1  # same mobility label on every hop


def test_intra_area_hops_match_direct_shortest_path():
    sim = run(intra_area_flow_scenario())
    rows = sim.metrics.finalize()
    assert set(rows["f"]["hops"]) == {2}  # LER11 > ALER1 > LER12


def test_stack_depth_never_exceeds_two():
    for doc in (two_mobile_scenario(), intra_area_flow_scenario()):
        sim = run(doc)
        assert sim.metrics.stack_violations == 0


def test_no_ip_lookup_after_ingress():
    sim = run(two_mobile_scenario())
    assert sim.metrics.post_ingress_ip_lookups == 0


def test_packet_conservation_under_random_movement():
    from hmlbn.scenarios import random_walk_scenario
    sim = run(random_walk_scenario())
    rows = sim.metrics.finalize()
    for row in rows.values():
        assert row["ingress"] == (row["delivered"] + sum(row["drops"].values())
                                  + row["in_flight"])


def test_unregistered_destination_eventually_drops_no_binding():
    doc = two_mobile_scenario()
    doc["flows"] = [{"id": "void", "src": "10.3.3.1/32",
                     "dst": "10.9.9.9/32", "rate_pps": 100,
                     "start_s": 0.05, "stop_s": 0.1}]
    sim = run(doc)
    rows = sim.metrics.finalize()
    assert rows["void"]["delivered"] == 0
    assert rows["void"]["drops"]["no_binding"] == rows["void"]["ingress"]


def test_packet_trace_renders_stack_and_path():
    pkt = DataPacket("f", 0, prefix("10.0.0.2/32"), 0.0)
    pkt.stack = [17, 116]
    assert pkt.render_stack() == "i17/m116"
    pkt.hop_trace += ["LER33", "ALER3"]
    assert pkt.path_string() == "LER33>ALER3"


# ------------------------------------------- checks on the per-hop path

def _hop_setup(*labels):
    """A built, not yet run, simulation and a packet carrying ``labels``."""
    sim = Simulation(parse_scenario(two_mobile_scenario()))
    pkt = DataPacket("x", 0, prefix("10.1.1.1/32"), 0.0)
    pkt.stack = list(labels)
    return sim, pkt


def _drops(sim) -> dict:
    return dict(sim.metrics.flows["x"]["drops"])


def test_deep_stack_counted_at_transmit():
    sim, pkt = _hop_setup(17, 116, 117)
    ler, p3 = sim.graph.rid_of("LER33"), sim.graph.rid_of("P3")
    sim.transmit(pkt, ler, p3)
    assert sim.metrics.stack_violations == 1
    pkt.stack.pop()
    sim.transmit(pkt, ler, p3)  # two deep: no violation
    assert sim.metrics.stack_violations == 1
    hops = [e["detail"]["stack"] for e in sim.trace if e["kind"] == "data_hop"]
    assert hops == ["i17/m116/m117", "i17/m116"]


def test_top_label_popped_at_an_lsr_drops_no_label_entry():
    sim, pkt = _hop_setup()
    p0 = sim.graph.rid_of("P0")
    pkt.stack = [sim.lsp.label(p0), 116]
    sim.engine.step(pkt, p0)
    assert pkt.stack == [116]  # the top popped
    assert _drops(sim) == {"no_label_entry": 1}


def test_out_of_range_label_drops_and_is_not_stored():
    sim, pkt = _hop_setup()
    p3 = sim.graph.rid_of("P3")
    row = sim.lsp.fec_next[p3]
    outside = (15, 16 + len(sim.lsp.fecs))
    for value in outside:
        pkt.stack = [value, 116]
        sim.engine.step(pkt, p3)
    assert _drops(sim) == {"no_label_entry": 2}
    assert not any(value in row for value in outside)
    # a label in range is resolved once and kept
    label = sim.lsp.label(sim.graph.rid_of("ALER3"))
    assert row[label] == sim.graph.rid_of("ALER3")
    assert list(row) == [label]


def test_every_hop_event_is_one_step():
    """``ForwardingEngine.step`` is the hop event itself, so it runs once
    per hop scheduled, the packets that reach ALER1 after its failure in
    ``ha_failover`` included: they drop inside it."""
    sim = Simulation(parse_scenario(ha_failover_scenario()))
    hops, steps, at_failed = [], [], []
    schedule, step = sim.schedule, sim.engine.step

    def counted_schedule(t, kind, payload, seq=None):
        if kind is EventKind.DATA_HOP:
            hops.append(payload)
        schedule(t, kind, payload, seq)

    def counted_step(packet, node):
        steps.append((packet, node))
        if node in sim.failed:
            at_failed.append(node)
        step(packet, node)

    sim.schedule, sim.engine.step = counted_schedule, counted_step
    sim.run()
    assert steps == hops and len(steps) == 746
    assert at_failed == [sim.graph.rid_of("ALER1")] * 4


def test_a_packet_reaching_a_failed_lsr_drops_there_and_adds_no_hop():
    doc = two_mobile_scenario()
    doc["failures"] = [{"t": 0.0, "node": "P3"}]
    sim = Simulation(parse_scenario(doc))
    pkt = DataPacket("x", 0, prefix("10.1.1.1/32"), 0.0)
    pkt.stack = [sim.lsp.label(sim.graph.rid_of("ALER3")), 116]
    pkt.hop_trace.append("LER33")
    sim.transmit(pkt, sim.graph.rid_of("LER33"), sim.graph.rid_of("P3"))
    sim.run()
    assert _drops(sim) == {"node_failed": 1}
    assert pkt.hop_trace == ["LER33"]
    drops = [e for e in sim.trace if e["kind"] == "data_drop"
             and e["detail"]["flow"] == "x"]
    assert [(e["src"], e["detail"]["reason"]) for e in drops] == [
        ("P3", "node_failed")]
