"""Deterministic discrete-event engine.

One heap of (time, sequence) ordered events drives every node state
machine.  Control messages ride fixed per-pair latencies (reliable, FIFO),
data packets move edge by edge, and all randomness flows from a single
seeded generator, so equal (scenario, seed) pairs produce byte-identical
traces and metrics.
"""

from __future__ import annotations

import heapq
import json
import random
from dataclasses import dataclass, field
from enum import Enum

from .aler import AlerNode
from .amrr import AmrrNode
from .errors import HmlbnError
from .forwarding import DataPacket, ForwardingEngine
from .ler import LerNode
from .messages import ControlMessage, MessageKind, MobilePrefix, canonical_encode
from .scenario import MoveSpec, Scenario
from .topology import (
    NodeRole,
    compute_infrastructure_lsps,
    control_latency_matrix,
)


class EventKind(str, Enum):
    MN_ATTACH = "MnAttach"
    MN_MOVE = "MnMove"
    MN_DETACH = "MnDetach"
    CONTROL_DELIVER = "ControlDeliver"
    DATA_INGRESS = "DataIngress"
    DATA_HOP = "DataHop"
    TIMER_FIRE = "TimerFire"
    NODE_FAIL = "NodeFail"


@dataclass
class Attachment:
    region: str
    cell: str
    interface: str
    ler: str
    expires: float | None = None  # None = active until replaced

    def active(self, now: float) -> bool:
        return self.expires is None or now <= self.expires


@dataclass
class MobileState:
    l2: str
    area_hint: int = 0
    attachments: list = field(default_factory=list)

    def primary(self) -> Attachment | None:
        return self.attachments[0] if self.attachments else None

    def active_interfaces(self, ler: str, now: float) -> set:
        return {a.interface for a in self.attachments
                if a.ler == ler and a.active(now)}


DROP_REASONS = (
    "queue_overflow", "no_binding", "unknown_mobility_label",
    "unknown_local_mobility_label", "no_label_entry", "stale_location",
    "node_failed", "source_not_attached", "non_mobile",
)


class Metrics:
    def __init__(self):
        self.flows: dict[str, dict] = {}
        self.control_by_kind: dict[str, int] = {}
        self.control_crossing = 0
        self.control_intra = 0
        self.post_ingress_ip_lookups = 0
        self.max_stack_depth = 0
        self.stack_violations = 0

    def flow(self, flow_id: str) -> dict:
        return self.flows.setdefault(flow_id, {"packets": {}, "order": []})

    def record_ingress(self, flow_id: str, seq: int, t: float):
        flow = self.flow(flow_id)
        if seq not in flow["packets"]:
            flow["packets"][seq] = {"t": t, "outcomes": []}
            flow["order"].append(seq)

    def record_outcome(self, packet: DataPacket, kind: str, detail: str, t: float):
        flow = self.flow(packet.flow_id)
        entry = flow["packets"].setdefault(packet.seq, {"t": packet.created_at,
                                                        "outcomes": []})
        entry["outcomes"].append((kind, detail, t, len(packet.hop_trace) - 1))
        self.post_ingress_ip_lookups += packet.post_ingress_lookups
        packet.post_ingress_lookups = 0

    def record_control(self, msg: ControlMessage, crossing: bool):
        key = msg.kind.value
        self.control_by_kind[key] = self.control_by_kind.get(key, 0) + 1
        if crossing:
            self.control_crossing += 1
        else:
            self.control_intra += 1

    @property
    def control_total(self) -> int:
        return sum(self.control_by_kind.values())

    def finalize(self) -> dict:
        """Classify every packet exactly once: delivered, dropped or in flight."""
        rows = {}
        for flow_id in sorted(self.flows):
            flow = self.flows[flow_id]
            row = {"ingress": 0, "delivered": 0, "in_flight": 0,
                   "drops": {r: 0 for r in DROP_REASONS},
                   "hops": [], "latencies": [], "delivery_times": []}
            for seq in flow["order"]:
                entry = flow["packets"][seq]
                row["ingress"] += 1
                delivered = [o for o in entry["outcomes"] if o[0] == "delivered"]
                if delivered:
                    first = delivered[0]
                    row["delivered"] += 1
                    row["hops"].append(first[3])
                    row["latencies"].append(first[2] - entry["t"])
                    row["delivery_times"].append(first[2])
                elif entry["outcomes"]:
                    reason = entry["outcomes"][0][1]
                    row["drops"][reason] = row["drops"].get(reason, 0) + 1
                else:
                    row["in_flight"] += 1
            times = sorted(row["delivery_times"])
            gaps = [b - a for a, b in zip(times, times[1:])]
            row["max_gap_s"] = max(gaps) if gaps else 0.0
            rows[flow_id] = row
        return rows

    def to_csv(self) -> str:
        rows = self.finalize()
        drop_cols = [f"drop_{r}" for r in DROP_REASONS]
        header = (["flow", "ingress", "delivered", "in_flight"] + drop_cols
                  + ["mean_hops", "mean_latency_ms", "max_gap_s",
                     "ctl_total", "ctl_area_crossing", "ctl_intra_area"])
        lines = [",".join(header)]
        totals = {"ingress": 0, "delivered": 0, "in_flight": 0}
        total_drops = {r: 0 for r in DROP_REASONS}
        for flow_id, row in rows.items():
            for key in totals:
                totals[key] += row[key]
            for r in DROP_REASONS:
                total_drops[r] += row["drops"][r]
            mean_hops = (sum(row["hops"]) / len(row["hops"])) if row["hops"] else 0.0
            mean_lat = (sum(row["latencies"]) / len(row["latencies"]) * 1000.0
                        if row["latencies"] else 0.0)
            lines.append(",".join(
                [flow_id, str(row["ingress"]), str(row["delivered"]),
                 str(row["in_flight"])]
                + [str(row["drops"][r]) for r in DROP_REASONS]
                + [f"{mean_hops:.4f}", f"{mean_lat:.4f}", f"{row['max_gap_s']:.6f}",
                   "", "", ""]))
        lines.append(",".join(
            ["TOTAL", str(totals["ingress"]), str(totals["delivered"]),
             str(totals["in_flight"])]
            + [str(total_drops[r]) for r in DROP_REASONS]
            + ["", "", "", str(self.control_total), str(self.control_crossing),
               str(self.control_intra)]))
        return "\n".join(lines) + "\n"


class _Services:
    """Per-node facade over the simulation: clock, messaging, data plane."""

    # detail keys under which nodes report a router id; the trace names it
    _ROUTER_KEYS = ("origin", "node", "from")

    def __init__(self, sim: "Simulation", rid: str):
        self.sim = sim
        self.rid = rid

    def now(self) -> float:
        return self.sim.now

    def send(self, kind: MessageKind, dst: str, payload) -> ControlMessage:
        return self.sim.send_control(self.rid, kind, dst, payload)

    def emit(self, kind: str, detail: dict):
        names = self.sim._names
        for key in self._ROUTER_KEYS:
            value = detail.get(key)
            if value in names:
                detail[key] = names[value]
        self.sim.trace_event(kind, src=self.rid, detail=detail)

    def transmit(self, packet: DataPacket, from_node: str, to_node: str):
        self.sim.transmit(packet, from_node, to_node)

    def drop(self, packet: DataPacket, node: str, reason: str):
        self.sim.drop(packet, node, reason)

    def deliver_local(self, packet: DataPacket, ler, record):
        self.sim.deliver_local(packet, ler, record)

    def infra_path(self, rid: str, origin: str):
        return self.sim.lsp.next_hop(rid, origin)

    def trail_to(self, rid: str, origin: str):
        in_top = self.sim.lsp.in_label_for(rid, origin)
        out_top, next_hop = self.sim.lsp.next_hop(rid, origin)
        out_if = self.sim.graph.interface_name(rid, next_hop)
        return in_top, out_top, next_hop, out_if

    def area_of(self, rid: str) -> int:
        return self.sim.graph.area_of(rid)


class Simulation:
    def __init__(self, scenario: Scenario, seed_override: int | None = None):
        self.scenario = scenario
        self.seed = scenario.seed if seed_override is None else seed_override
        self.rng = random.Random(self.seed)
        self.graph = scenario.build_graph()
        self._names = {rid: info.name for rid, info in self.graph.nodes.items()}
        self.lsp = compute_infrastructure_lsps(self.graph)
        self.latency = control_latency_matrix(self.graph)
        self.now = 0.0
        self._event_seq = 0
        self._trace_seq = 0
        # (time, seq, kind, payload): the unique seq settles equal times in
        # scheduling order, so kinds and payloads are never compared
        self._heap: list[tuple] = []
        self.trace: list[dict] = []
        self.metrics = Metrics()
        self.failed: set[str] = set()
        self.mobiles: dict[MobilePrefix, MobileState] = {}
        self._movers = set(scenario.model.prefixes) if scenario.model else set()
        self.nodes: dict[str, object] = {}
        self._build_nodes()
        self.engine = ForwardingEngine(self.graph, self.lsp,
                                       lambda rid: self.nodes.get(rid), self)
        self._schedule_scenario()

    # ------------------------------------------------------------- set-up

    def _build_nodes(self):
        sc = self.scenario
        ha_twin = {}
        for a, b in sc.flags.ha_pairs:
            ha_twin[a] = b
            ha_twin[b] = a
        amrrs_by_area = {area: self.graph.by_role(NodeRole.AMRR, area)
                         for area in self.graph.areas()}
        for rid in sorted(self.graph.nodes):
            info = self.graph.nodes[rid]
            services = _Services(self, rid)
            if info.role is NodeRole.LER:
                interfaces = [f"{region.name}/{cell}"
                              for region in self.graph.regions.values()
                              if region.ler == rid for cell in region.cells]
                self.nodes[rid] = LerNode(
                    rid, info.name, info.area,
                    amrrs=amrrs_by_area.get(info.area, []),
                    interfaces=interfaces,
                    mobility_ranges=sc.mobility_ranges,
                    dead_time_s=sc.timers.dead_s,
                    default_lifetime_s=sc.timers.lifetime_s,
                    services=services,
                )
            elif info.role is NodeRole.ALER:
                self.nodes[rid] = AlerNode(
                    rid, info.name, info.area,
                    amrrs=amrrs_by_area.get(info.area, []),
                    services=services,
                )
            elif info.role is NodeRole.AMRR:
                peers = [r for r in self.graph.by_role(NodeRole.AMRR)
                         if r != rid]
                self.nodes[rid] = AmrrNode(
                    rid, info.name, info.area,
                    peers=peers,
                    ler_clients=self.graph.by_role(NodeRole.LER, info.area),
                    aler_clients=self.graph.by_role(NodeRole.ALER, info.area),
                    amrrs_by_area=amrrs_by_area,
                    ha_twin=ha_twin,
                    services=services,
                    reflect_to_previous=sc.flags.reflect_to_previous_ler,
                )

    def _schedule_scenario(self):
        sc = self.scenario
        for a in sc.attaches:
            self.schedule(a.t, EventKind.MN_ATTACH, (a,))
        for m in sc.moves:
            self.schedule(m.t, EventKind.MN_MOVE, (m,))
        for d in sc.detaches:
            self.schedule(d.t, EventKind.MN_DETACH, (d,))
        for f in sc.failures:
            self.schedule(f.t, EventKind.NODE_FAIL, (f.node,))
        for flow in sc.flows:
            i = 0
            while True:
                t = flow.start_s + i / flow.rate_pps
                if t >= flow.stop_s - 1e-12:
                    break
                self.schedule(t, EventKind.DATA_INGRESS, (flow, i))
                i += 1
        interval = sc.timers.keepalive_s
        for rid in self.graph.by_role(NodeRole.LER):
            if interval <= sc.duration_s:
                self.schedule(interval, EventKind.TIMER_FIRE, ("dead_scan", rid))
        if interval <= sc.duration_s:
            self.schedule(interval, EventKind.TIMER_FIRE, ("expiry",))

    # ---------------------------------------------------------- event loop

    def schedule(self, t: float, kind: EventKind, payload: tuple):
        self._event_seq += 1
        heapq.heappush(self._heap, (t, self._event_seq, kind, payload))

    def run(self):
        handlers = {
            EventKind.MN_ATTACH: self._on_attach,
            EventKind.MN_MOVE: self._on_move,
            EventKind.MN_DETACH: self._on_detach,
            EventKind.CONTROL_DELIVER: self._on_control,
            EventKind.DATA_INGRESS: self._on_ingress,
            EventKind.DATA_HOP: self._on_hop,
            EventKind.TIMER_FIRE: self._on_timer,
            EventKind.NODE_FAIL: self._on_fail,
        }
        heap = self._heap
        pop = heapq.heappop
        while heap:
            self.now, _, kind, payload = pop(heap)
            handlers[kind](*payload)
        return self

    # ------------------------------------------------------------- tracing

    def trace_event(self, kind: str, src=None, dst=None, detail=None):
        self._trace_seq += 1
        names = self._names
        self.trace.append({
            "t": round(self.now, 9),
            "seq": self._trace_seq,
            "kind": kind,
            "src": names.get(src, src),
            "dst": names.get(dst, dst),
            "detail": detail or {},
        })

    def trace_jsonl(self) -> str:
        encode = json.JSONEncoder(sort_keys=True).encode
        return "".join(encode(entry) + "\n" for entry in self.trace)

    # ------------------------------------------------------- control plane

    def send_control(self, src: str, kind: MessageKind, dst: str,
                     payload) -> ControlMessage:
        msg = ControlMessage(kind, src, dst, self.now, payload)
        detail = {"msg": kind.value, "hex": canonical_encode(msg).hex()}
        prefix = msg.prefix
        if prefix is not None:
            detail["prefix"] = str(prefix)
        binding = getattr(msg.payload, "binding", None)
        if binding is not None:
            detail["update_type"] = binding.update_type.name
            detail["origin"] = self._names.get(binding.origin_next_hop,
                                               binding.origin_next_hop)
            detail["label"] = binding.label
            detail["area_id"] = binding.area_id
        crossing = self.graph.area_of(src) != self.graph.area_of(dst)
        detail["area_crossing"] = crossing
        self.trace_event("ctl_send", src=src, dst=dst, detail=detail)
        self.metrics.record_control(msg, crossing)
        if dst in self.failed:
            self.trace_event("ctl_drop", src=src, dst=dst,
                             detail={"msg": kind.value, "why": "node_failed"})
            return msg
        latency_s = self.latency[src][dst] / 1000.0
        self.schedule(self.now + latency_s, EventKind.CONTROL_DELIVER, (msg,))
        return msg

    def _on_control(self, msg: ControlMessage):
        if msg.dst in self.failed:
            self.trace_event("ctl_drop", src=msg.src, dst=msg.dst,
                             detail={"msg": msg.kind.value, "why": "node_failed"})
            return
        self.trace_event("ctl_recv", src=msg.src, dst=msg.dst,
                         detail={"msg": msg.kind.value})
        self.nodes[msg.dst].handle(msg)

    # ------------------------------------------------------------ mobility

    def _on_attach(self, spec):
        region = self.graph.regions[spec.region]
        cell = spec.cell or region.cells[0]
        interface = f"{spec.region}/{cell}"
        mobile = self.mobiles.setdefault(spec.prefix, MobileState(spec.l2))
        mobile.attachments = [Attachment(spec.region, cell, interface, region.ler)]
        ler: LerNode = self.nodes[region.ler]
        self.trace_event("attach", src=region.ler,
                         detail={"prefix": str(spec.prefix), "region": spec.region,
                                 "cell": cell, "area_hint": mobile.area_hint})
        _, reply_area = ler.handle_registration(spec.prefix, spec.l2, interface,
                                                mobile.area_hint)
        mobile.area_hint = reply_area
        interval = self.scenario.timers.keepalive_s
        if self.now + interval <= self.scenario.duration_s:
            self.schedule(self.now + interval, EventKind.TIMER_FIRE,
                          ("keepalive", spec.prefix))
        if spec.prefix in self._movers:
            self._arm_move_decision(spec.prefix)

    def _on_move(self, spec):
        mobile = self.mobiles.get(spec.prefix)
        if mobile is None or not mobile.attachments:
            return
        region = self.graph.regions[spec.region]
        cell = spec.cell or region.cells[0]
        interface = f"{spec.region}/{cell}"
        old = mobile.primary()
        new_attach = Attachment(spec.region, cell, interface, region.ler)
        self.trace_event("move", src=region.ler,
                         detail={"prefix": str(spec.prefix), "region": spec.region,
                                 "from_region": old.region,
                                 "same_ler": old.ler == region.ler})
        if old.ler == region.ler:
            # movement among this LER's RAN cells: pure local tracking
            retained = []
            if self.scenario.flags.overlap_attach and old.interface != interface:
                old.expires = self.now + self.scenario.flags.overlap_s
                retained = [old]
            mobile.attachments = [new_attach] + retained
            self.nodes[region.ler].track_local_handoff(spec.prefix, interface)
            return
        retained = []
        if self.scenario.flags.overlap_attach:
            old.expires = self.now + self.scenario.flags.overlap_s
            retained = [a for a in mobile.attachments if a.active(self.now)]
        mobile.attachments = [new_attach] + retained
        ler: LerNode = self.nodes[region.ler]
        _, reply_area = ler.handle_registration(spec.prefix, mobile.l2, interface,
                                                mobile.area_hint)
        mobile.area_hint = reply_area

    def _on_detach(self, spec):
        mobile = self.mobiles.get(spec.prefix)
        if mobile is None:
            return
        mobile.attachments = []
        mobile.area_hint = 0  # a reset mobile starts over
        self.trace_event("detach", detail={"prefix": str(spec.prefix)})

    def _arm_move_decision(self, prefix: MobilePrefix):
        model = self.scenario.model
        dwell = self.rng.expovariate(model.mu)
        t = self.now + dwell
        if t <= self.scenario.duration_s:
            self.schedule(t, EventKind.TIMER_FIRE, ("move_decision", prefix))

    def _on_move_decision(self, prefix: MobilePrefix):
        mobile = self.mobiles.get(prefix)
        model = self.scenario.model
        if mobile is None or not mobile.attachments or model is None:
            return
        current = mobile.primary().region
        neighbors = sorted(model.adjacency.get(current, []))
        if neighbors and self.rng.random() < model.p:
            target = neighbors[self.rng.randrange(len(neighbors))]
            self._on_move(MoveSpec(self.now, prefix, target, None))
        self._arm_move_decision(prefix)

    # ----------------------------------------------------------- data plane

    def _on_ingress(self, flow, seq: int):
        packet = DataPacket(flow.flow_id, seq, flow.src, flow.dst, self.now)
        self.metrics.record_ingress(flow.flow_id, seq, self.now)
        mobile = self.mobiles.get(flow.src)
        attachment = mobile.primary() if mobile else None
        if attachment is None:
            self.trace_event("data_ingress", detail={"flow": flow.flow_id,
                                                     "seq": seq, "ler": None})
            packet.ingressed = True
            self.drop(packet, None, "source_not_attached")
            return
        ler: LerNode = self.nodes[attachment.ler]
        self.trace_event("data_ingress", src=attachment.ler,
                         detail={"flow": flow.flow_id, "seq": seq})
        packet.record_hop(self.now, ler.name)
        ler.keepalive(flow.src, self.now)  # uplink traffic doubles as liveness
        ler.ingress_forward(packet)

    def transmit(self, packet: DataPacket, from_node: str, to_node: str):
        depth = len(packet.stack)
        self.metrics.max_stack_depth = max(self.metrics.max_stack_depth, depth)
        if depth > 2:
            self.metrics.stack_violations += 1
        self.trace_event("data_hop", src=from_node, dst=to_node,
                         detail={"flow": packet.flow_id, "seq": packet.seq,
                                 "stack": packet.render_stack()})
        latency_s = self.graph.edges[from_node][to_node] / 1000.0
        self.schedule(self.now + latency_s, EventKind.DATA_HOP, (packet, to_node))

    def _on_hop(self, packet: DataPacket, node: str):
        if node in self.failed:
            self.drop(packet, node, "node_failed")
            return
        packet.record_hop(self.now, self._names[node])
        self.engine.step(packet, node)

    def drop(self, packet: DataPacket, node: str | None, reason: str):
        self.trace_event("data_drop", src=node,
                         detail={"flow": packet.flow_id, "seq": packet.seq,
                                 "reason": reason,
                                 # trace.jsonl keeps the field of the removed
                                 # replication mode; no packet is a replica
                                 "replica": False})
        self.metrics.record_outcome(packet, "dropped", reason, self.now)

    def deliver_local(self, packet: DataPacket, ler: LerNode, record):
        mobile = self.mobiles.get(record.prefix)
        interface = record.interface_id
        active = mobile.active_interfaces(ler.rid, self.now) if mobile else set()
        if interface not in active:
            self.drop(packet, ler.rid, "stale_location")
            return
        self.trace_event("data_deliver", src=ler.rid,
                         detail={"flow": packet.flow_id, "seq": packet.seq,
                                 "interface": interface,
                                 "path": packet.path_string(),
                                 "replica": False})  # see drop()
        self.metrics.record_outcome(packet, "delivered", interface, self.now)

    # -------------------------------------------------------------- timers

    def _on_timer(self, what: str, *args):
        interval = self.scenario.timers.keepalive_s
        if what == "dead_scan":
            rid = args[0]
            self.nodes[rid].scan_dead_registrations(self.now)
            if self.now + interval <= self.scenario.duration_s:
                self.schedule(self.now + interval, EventKind.TIMER_FIRE,
                              ("dead_scan", rid))
        elif what == "expiry":
            for rid in sorted(self.nodes):
                node = self.nodes[rid]
                if isinstance(node, LerNode):
                    node.expire_cache(self.now)
                elif isinstance(node, AlerNode):
                    node.expire(self.now)
                elif isinstance(node, AmrrNode):
                    node.expire_records(self.now)
            if self.now + interval <= self.scenario.duration_s:
                self.schedule(self.now + interval, EventKind.TIMER_FIRE,
                              ("expiry",))
        elif what == "keepalive":
            prefix = args[0]
            mobile = self.mobiles.get(prefix)
            if mobile and mobile.attachments:
                self.nodes[mobile.primary().ler].keepalive(prefix, self.now)
                if self.now + interval <= self.scenario.duration_s:
                    self.schedule(self.now + interval, EventKind.TIMER_FIRE,
                                  ("keepalive", prefix))
        elif what == "move_decision":
            self._on_move_decision(args[0])

    def _on_fail(self, rid: str):
        self.failed.add(rid)
        self.trace_event("node_fail", src=rid, detail={})
        if self.graph.role_of(rid) is NodeRole.ALER:
            for amrr_rid in self.graph.by_role(NodeRole.AMRR,
                                               self.graph.area_of(rid)):
                self.nodes[amrr_rid].handle_aler_failure(rid)

    # ----------------------------------------------------------------- dumps

    def fib_dump(self, name_or_rid: str) -> list[str]:
        rid = self.graph.rid_of(name_or_rid)
        node = self.nodes[rid]
        if not isinstance(node, AlerNode):
            raise HmlbnError(f"{name_or_rid} is not an ALER")
        return node.dump(self.graph.name_of)

    def binding_dump(self, name_or_rid: str) -> list[str]:
        rid = self.graph.rid_of(name_or_rid)
        node = self.nodes[rid]
        if not isinstance(node, AmrrNode):
            raise HmlbnError(f"{name_or_rid} is not an AMRR")
        return node.dump(self.graph.name_of)


def run_scenario(scenario: Scenario, seed: int | None = None) -> Simulation:
    """Build, run to completion and return the finished simulation."""
    return Simulation(scenario, seed_override=seed).run()
