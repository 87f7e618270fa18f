"""Deterministic discrete-event engine.

One heap of (time, sequence) ordered events drives every node state
machine; each flow keeps one pending packet on it, under the sequence
number the flow reserved for that packet at set-up.  Control messages ride
fixed per-pair latencies (reliable, FIFO), data packets move edge by edge,
and all randomness flows from a single seeded generator, so equal
(scenario, seed) pairs produce byte-identical traces and metrics.  The
records are the flat tuples ``trace_event`` appends; the ``trace`` module
owns their format, their text and the ``Metrics``.
"""

from __future__ import annotations

import heapq
import random
from dataclasses import dataclass, field
from enum import Enum

from .aler import AlerNode
from .amrr import AmrrNode
from .forwarding import DataPacket, ForwardingEngine
from .ler import LerNode
from .messages import (ControlMessage, MessageKind, MobilePrefix,
                       canonical_encode, control_message)
from .scenario import Placement, Scenario
from .topology import (Memo, NodeRole, compute_infrastructure_lsps,
                       control_latency_matrix)
from .trace import MSG_TEXT, SEND_RECORD, Metrics, parse, render


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
    area_hint: int = 0
    attachments: list = field(default_factory=list)
    # attaches so far: each keepalive and move-decision tick carries the
    # number of the attach that started its chain, stale once another came
    attaches: int = 0

    def primary(self) -> Attachment | None:
        return self.attachments[0] if self.attachments else None

    def serves(self, ler: str, interface: str, now: float) -> bool:
        """Whether ``interface`` of ``ler`` is an active attachment."""
        for a in self.attachments:  # the primary first
            if a.interface == interface and a.ler == ler and a.active(now):
                return True
        return False


class _Services:
    """Per-node facade over the simulation: clock, messaging, data plane.
    ``calls`` are the simulation's own, bound once and shared by all nodes."""

    def __init__(self, sim: "Simulation", rid: str, calls: tuple):
        self.sim = sim
        self.rid = rid
        (self.transmit, self.drop, self.deliver_local, self.infra_path,
         self.area_of) = calls

    def now(self) -> float:
        return self.sim.now

    def send(self, kind: MessageKind, dst: str, *fields) -> ControlMessage:
        """Send ``kind`` with its payload's ``fields``, in ``LAYOUT`` order."""
        return self.sim.send_control(self.rid, kind, dst, *fields)

    def emit(self, name: str, *values):
        """Record the ``values`` of the ``TRACE_KEYS`` entry ``name``."""
        self.sim.trace_event(name, self.rid, None, *values)


class Simulation:
    def __init__(self, scenario: Scenario, seed_override: int | None = None):
        self.scenario = scenario
        self.seed = scenario.seed if seed_override is None else seed_override
        self.rng = random.Random(self.seed)
        self.graph = scenario.graph
        self.lsp = compute_infrastructure_lsps(self.graph)
        self.latency = control_latency_matrix(self.graph)
        self.now = 0.0
        self._event_seq = 0
        # (time, seq, kind, payload): the unique seq settles equal times in
        # scheduling order, so kinds and payloads are never compared
        self._heap: list[tuple] = []
        # (now, name, src, dst, *values) per trace record; seq is position + 1
        self._records: list[tuple] = []
        self.metrics = Metrics()
        self.failed: set[str] = set()
        self.mobiles: dict[MobilePrefix, MobileState] = {}
        model = scenario.model
        self._movers = set(model.prefixes) if model else set()
        # each region's mobility-model neighbours, sorted once
        self._next_regions = ({region: sorted(nbrs) for region, nbrs
                               in model.adjacency.items()} if model else {})
        # router id -> its LER, ALER or AMRR state machine, made the first
        # time the id is read; an LSR has none
        self.nodes: dict[str, object] = Memo(self._node_maker())
        self.engine = ForwardingEngine(self.graph, self.lsp, self.nodes, self)
        self._schedule_scenario()

    # ------------------------------------------------------------- set-up

    def _node_maker(self):
        """The function that makes the node at a router id; an LSR or an
        unknown id raises ``KeyError``."""
        sc, graph = self.scenario, self.graph
        ha_twin = {a: b for pair in sc.flags.ha_pairs for a, b in (pair, pair[::-1])}
        amrrs_by_area = {area: graph.by_role(NodeRole.AMRR, area)
                         for area in graph.areas()}
        calls = (self.transmit, self.drop, self.deliver_local,
                 self.lsp.next_hop, graph.area_of)
        served = {}  # LER rid -> its regions, in region order
        for region in graph.regions.values():
            served.setdefault(region.ler, []).append(region)

        def make(rid):
            info = graph.nodes[rid]
            if info.role is NodeRole.LER:
                return LerNode(
                    rid, info.name, info.area,
                    amrrs=amrrs_by_area.get(info.area, []),
                    interfaces=[f"{region.name}/{cell}"
                                for region in served.get(rid, ())
                                for cell in region.cells],
                    mobility_ranges=sc.mobility_ranges,
                    dead_time_s=sc.timers.dead_s,
                    default_lifetime_s=sc.timers.lifetime_s,
                    services=_Services(self, rid, calls),
                )
            if info.role is NodeRole.ALER:
                return AlerNode(rid, amrrs=amrrs_by_area.get(info.area, []),
                                services=_Services(self, rid, calls))
            if info.role is NodeRole.AMRR:
                return AmrrNode(
                    rid, info.area,
                    ler_clients=graph.by_role(NodeRole.LER, info.area),
                    aler_clients=graph.by_role(NodeRole.ALER, info.area),
                    amrrs_by_area=amrrs_by_area,
                    ha_twin=ha_twin,
                    services=_Services(self, rid, calls),
                    reflect_to_previous=sc.flags.reflect_to_previous_ler,
                )
            raise KeyError(rid)
        return make

    def _schedule_scenario(self):
        sc = self.scenario
        for specs, kind in ((sc.attaches, EventKind.MN_ATTACH),
                            (sc.moves, EventKind.MN_MOVE),
                            (sc.detaches, EventKind.MN_DETACH),
                            (sc.failures, EventKind.NODE_FAIL)):
            for spec in specs:
                self.schedule(spec.t, kind, (spec,))
        # each flow reserves one sequence number per packet, counted by the
        # test each send_time makes, and keeps one pending: i + 1 as i enters
        for flow in sc.flows:
            n = int(max(flow.stop_s - flow.start_s, 0.0) * flow.rate_pps)
            while n and flow.send_time(n - 1) is None:
                n -= 1
            while flow.send_time(n) is not None:
                n += 1
            if n:
                first, self._event_seq = self._event_seq + 1, self._event_seq + n
                self.schedule(flow.send_time(0), EventKind.DATA_INGRESS,
                              (flow, 0, first), first)
        self._after(sc.timers.keepalive_s, "_sweep")

    # ---------------------------------------------------------- event loop

    def schedule(self, t: float, kind: EventKind, payload: tuple, seq=None):
        if seq is None:  # else a number reserved at set-up
            self._event_seq = seq = self._event_seq + 1
        heapq.heappush(self._heap, (t, seq, kind, payload))

    def run(self):
        handlers = {
            EventKind.MN_ATTACH: self._on_attach,
            EventKind.MN_MOVE: self._on_move,
            EventKind.MN_DETACH: self._on_detach,
            EventKind.CONTROL_DELIVER: self._on_control,
            EventKind.DATA_INGRESS: self._on_ingress,
            EventKind.DATA_HOP: self.engine.step,
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

    def trace_event(self, name: str, src, dst, *values):
        """Record the ``values`` of the ``TRACE_KEYS`` entry ``name``."""
        self._records.append((self.now, name, src, dst) + values)

    @property
    def trace(self) -> list[dict]:
        """The records as dicts, parsed anew on each access."""
        return parse(self.trace_jsonl())

    def trace_jsonl(self) -> str:
        """The records as ``trace.jsonl`` text, rendered anew on each call."""
        return render(self._records, self.graph.nodes)

    # ------------------------------------------------------- control plane

    def send_control(self, src: str, kind: MessageKind, dst: str,
                     *fields) -> ControlMessage:
        """Record, count and, unless ``dst`` failed, queue the ``kind``
        message ``control_message`` builds from ``fields``."""
        msg = control_message(kind, src, dst, self.now, fields)
        text, wire = MSG_TEXT[kind], canonical_encode(msg).hex()
        crossing = self.graph.area_of(src) != self.graph.area_of(dst)
        SEND_RECORD[kind](self, src, dst, crossing, wire, text, fields[0])
        self.metrics.control_by_kind[text] += 1
        self.metrics.control_crossing += crossing
        if dst in self.failed:
            self.trace_event("ctl_drop", src, dst, text, "node_failed")
            return msg
        latency_s = self.latency[src][dst] / 1000.0
        self.schedule(self.now + latency_s, EventKind.CONTROL_DELIVER, (msg,))
        return msg

    def _on_control(self, msg: ControlMessage):
        if msg.dst in self.failed:
            self.trace_event("ctl_drop", msg.src, msg.dst, MSG_TEXT[msg.kind],
                             "node_failed")
            return
        self.trace_event("ctl_recv", msg.src, msg.dst, MSG_TEXT[msg.kind])
        self.nodes[msg.dst].handle(msg)

    # ------------------------------------------------------------ mobility

    def _attachment(self, spec) -> Attachment:
        """Where ``spec`` attaches: its cell, else its region's first."""
        region = self.graph.regions[spec.region]
        cell = spec.cell or region.cells[0]
        return Attachment(spec.region, cell, f"{spec.region}/{cell}", region.ler)

    def _register(self, prefix: MobilePrefix, mobile: MobileState,
                  at: Attachment):
        """Register ``mobile`` at ``at`` and keep the area its LER replies;
        a failed LER learns of no mobile."""
        if at.ler not in self.failed:
            _, mobile.area_hint = self.nodes[at.ler].handle_registration(
                prefix, at.interface, mobile.area_hint)

    def _on_attach(self, spec):
        new = self._attachment(spec)
        mobile = self.mobiles.setdefault(spec.prefix, MobileState())
        mobile.attachments = [new]
        mobile.attaches += 1
        self.trace_event("attach", new.ler, None, mobile.area_hint, new.cell,
                         str(spec.prefix), spec.region)
        self._register(spec.prefix, mobile, new)
        self._after(self.scenario.timers.keepalive_s, "_keepalive",
                    spec.prefix, mobile.attaches)
        if spec.prefix in self._movers:
            self._after(self.rng.expovariate(self.scenario.model.mu),
                        "_on_move_decision", spec.prefix, mobile.attaches)

    def _on_move(self, spec):
        """With ``overlap_attach``, the attachment left stays active for
        ``overlap_s``: a local move keeps only it, if the cell changed, and a
        move to another LER keeps every attachment still active."""
        mobile = self.mobiles[spec.prefix]
        new, old = self._attachment(spec), mobile.primary()
        local = old.ler == new.ler
        self.trace_event("move", new.ler, None, old.region,
                         str(spec.prefix), spec.region, local)
        retained = []
        flags = self.scenario.flags
        if flags.overlap_attach and (not local or old.interface != new.interface):
            old.expires = self.now + flags.overlap_s
            retained = [old] if local else [
                a for a in mobile.attachments if a.active(self.now)]
        mobile.attachments = [new] + retained
        if not local:
            self._register(spec.prefix, mobile, new)
        elif new.ler not in self.failed:
            self.nodes[new.ler].track_local_handoff(spec.prefix, new.interface)

    def _on_detach(self, spec):
        mobile = self.mobiles[spec.prefix]
        mobile.attachments = []
        mobile.area_hint = 0  # a reset mobile starts over
        self.trace_event("detach", None, None, str(spec.prefix))

    def _live_chain(self, prefix: MobilePrefix,
                    attach: int) -> MobileState | None:
        """The mobile if still attached by attach ``attach``, else None."""
        mobile = self.mobiles[prefix]  # made by the attach that armed the tick
        live = mobile.attachments and mobile.attaches == attach
        return mobile if live else None

    def _on_move_decision(self, prefix: MobilePrefix, attach: int):
        """A mover's tick, armed only when the scenario has a model."""
        mobile = self._live_chain(prefix, attach)
        model = self.scenario.model
        if mobile is None:
            return
        neighbors = self._next_regions.get(mobile.primary().region, [])
        if neighbors and self.rng.random() < model.p:
            target = neighbors[self.rng.randrange(len(neighbors))]
            self._on_move(Placement(self.now, prefix, target, None))
        self._after(self.rng.expovariate(model.mu), "_on_move_decision",
                    prefix, attach)

    # ----------------------------------------------------------- data plane

    def _on_ingress(self, flow, seq: int, key: int):
        """Packet ``seq`` of ``flow`` enters; ``key`` is its event's number."""
        if (t := flow.send_time(seq + 1)) is not None:
            self.schedule(t, EventKind.DATA_INGRESS, (flow, seq + 1, key + 1), key + 1)
        packet = DataPacket(flow.flow_id, seq, flow.dst, self.now)
        self.metrics.record_ingress(flow.flow_id)
        mobile = self.mobiles.get(flow.src)
        attachment = mobile.primary() if mobile else None
        if attachment is None:
            self.trace_event("data_ingress/unattached", None, None,
                             flow.flow_id, None, seq)
            self.drop(packet, None, "source_not_attached")
            return
        self.trace_event("data_ingress", attachment.ler, None, flow.flow_id,
                         seq)
        if attachment.ler in self.failed:
            self.drop(packet, attachment.ler, "node_failed")
            return
        ler: LerNode = self.nodes[attachment.ler]
        packet.hop_trace.append(ler.name)
        ler.keepalive(flow.src, self.now)  # uplink traffic doubles as liveness
        ler.ingress_forward(packet)

    def transmit(self, packet: DataPacket, from_node: str, to_node: str):
        stack = packet.stack
        depth = len(stack)
        if depth > 2:
            self.metrics.stack_violations += 1
        if depth == 2:
            top, inner = stack
            self.trace_event("data_hop", from_node, to_node, packet.flow_id,
                             packet.seq, top, inner)
        else:
            self.trace_event("data_hop/text", from_node, to_node,
                             packet.flow_id, packet.seq, packet.render_stack())
        self.schedule(self.now + self.graph.edges[from_node][to_node] / 1000.0,
                      EventKind.DATA_HOP, (packet, to_node))

    def drop(self, packet: DataPacket, node: str | None, reason: str):
        # trace.jsonl keeps the replica field of the removed replication
        # mode; no packet is a replica
        self.trace_event("data_drop", node, None, packet.flow_id, reason, False,
                         packet.seq)
        self.metrics.record_drop(packet, reason)

    def deliver_local(self, packet: DataPacket, ler: LerNode, record):
        mobile = self.mobiles.get(record.prefix)
        interface = record.interface_id
        if not (mobile and mobile.serves(ler.rid, interface, self.now)):
            self.drop(packet, ler.rid, "stale_location")
            return
        self.trace_event("data_deliver", ler.rid, None, packet.flow_id,
                         interface, packet.path_string(), False,  # see drop()
                         packet.seq)
        self.metrics.record_delivery(packet, self.now)

    # -------------------------------------------------------------- timers

    def _after(self, delay: float, method: str, *args):
        """Call the simulation's ``method`` with ``args`` ``delay`` seconds
        from now, if the run lasts that long.  The one timer path: the
        keepalive tick, the sweep and the mobility model's move decisions."""
        if (t := self.now + delay) <= self.scenario.duration_s:
            self.schedule(t, EventKind.TIMER_FIRE, (method, *args))

    def _on_timer(self, method: str, *args):
        getattr(self, method)(*args)

    def _sweep(self):
        """The periodic tick over the nodes made so far, in router-id order:
        dead LER registrations, then each node's ``EXPIRE`` method; a failed
        node runs neither.  A node never made holds nothing to scan or
        expire, so visiting it would change nothing."""
        live = [node for rid, node in sorted(self.nodes.items())
                if rid not in self.failed]
        for node in live:
            if isinstance(node, LerNode):
                node.scan_dead_registrations(self.now)
        for node in live:
            getattr(node, node.EXPIRE)(self.now)
        self._after(self.scenario.timers.keepalive_s, "_sweep")

    def _keepalive(self, prefix: MobilePrefix, attach: int):
        mobile = self._live_chain(prefix, attach)
        if mobile:
            if (ler := mobile.primary().ler) not in self.failed:
                self.nodes[ler].keepalive(prefix, self.now)
            self._after(self.scenario.timers.keepalive_s, "_keepalive", prefix,
                        attach)

    def _on_fail(self, spec):
        self.failed.add(rid := spec.node)
        self.trace_event("node_fail", rid, None)
        if self.graph.role_of(rid) is NodeRole.ALER:
            for amrr_rid in self.graph.by_role(NodeRole.AMRR,
                                               self.graph.area_of(rid)):
                self.nodes[amrr_rid].handle_aler_failure(rid)


def run_scenario(scenario: Scenario, seed: int | None = None) -> Simulation:
    """Build, run to completion and return the finished simulation."""
    return Simulation(scenario, seed_override=seed).run()
