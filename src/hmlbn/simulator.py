"""Deterministic discrete-event engine.

One heap of (time, sequence) ordered events drives every node state
machine; each flow keeps one pending packet on it, under the sequence
number the flow reserved for that packet at set-up.  Control messages ride
fixed per-pair latencies (reliable, FIFO), data packets move edge by edge,
and all randomness flows from a single seeded generator, so equal
(scenario, seed) pairs produce byte-identical traces and metrics.

Every trace record enters through ``Simulation.trace_event`` as one flat
tuple, ``(now, name, src, dst, *values)``, of atomic values only, router ids
raw; ``TRACE_KEYS[name]`` names its values.  A name is the record's kind, or
its kind and a variant after a "/".  ``trace_jsonl`` alone renders records,
each by the one f-string generated at import for its name, naming router ids
as it goes; ``trace`` parses its lines back into dicts.  A ``data_hop`` line
recurs for every packet of a flow but for the packet's seq, the record's seq
and ``t``: from the second time its other values come back in one
``trace_jsonl`` call, the line is those three set into a memoised stem of
the text between them.  A first sighting only marks its values, so hops
that never recur cost no stem, and no memo outlives the call.  The records
of one event share its time object, so a record whose time is the previous
one's reuses that text; a value rendered for the first time goes straight
to the function ``json.dumps`` would reach for its exact type.
"""

from __future__ import annotations

import heapq
import json
import random
from collections import Counter
from dataclasses import dataclass, field
from enum import Enum
from json.encoder import encode_basestring_ascii

from .aler import AlerNode
from .amrr import AmrrNode
from .forwarding import DataPacket, ForwardingEngine
from .ler import LerNode
from .messages import (ControlMessage, MessageKind, MobilePrefix, UpdateType,
                       canonical_encode)
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

    def serves(self, ler: str, interface: str, now: float) -> bool:
        """Whether ``interface`` of ``ler`` is an active attachment."""
        for a in self.attachments:  # the primary first
            if a.interface == interface and a.ler == ler and a.active(now):
                return True
        return False


DROP_REASONS = (
    "queue_overflow", "no_binding", "unknown_mobility_label",
    "unknown_local_mobility_label", "no_label_entry", "stale_location",
    "node_failed", "source_not_attached", "non_mobile",
)


class Metrics:
    """Per-flow counters.  A packet counts once at ingress and once when it
    ends, delivered or dropped; ``in_flight`` is what is left.  Latencies are
    kept by seq and summed in seq order; deliveries come in time order."""

    def __init__(self):
        self.flows: dict[str, dict] = _Memo(lambda flow_id: {
            "ingress": 0, "drops": Counter(), "hops": Counter(),
            "latencies": {}, "max_gap_s": 0.0, "last": None})
        self.control_by_kind: Counter[str] = Counter()
        self.control_crossing = 0
        self.post_ingress_ip_lookups = 0
        self.max_stack_depth = 0
        self.stack_violations = 0

    def record_ingress(self, flow_id: str):
        self.flows[flow_id]["ingress"] += 1

    def record_drop(self, packet: DataPacket, reason: str):
        self._end(packet)["drops"][reason] += 1

    def record_delivery(self, packet: DataPacket, t: float):
        flow = self._end(packet)
        flow["hops"][len(packet.hop_trace) - 1] += 1
        flow["latencies"][packet.seq] = t - packet.created_at
        if flow["last"] is not None:
            flow["max_gap_s"] = max(flow["max_gap_s"], t - flow["last"])
        flow["last"] = t

    def _end(self, packet: DataPacket) -> dict:
        self.post_ingress_ip_lookups += packet.post_ingress_lookups
        return self.flows[packet.flow_id]

    def record_control(self, kind: str, crossing: bool):
        self.control_by_kind[kind] += 1
        self.control_crossing += crossing

    @property
    def control_total(self) -> int:
        return sum(self.control_by_kind.values())

    def finalize(self) -> dict:
        """Each flow's row: counts, drops by reason (every ``DROP_REASONS``
        entry first), a histogram of hop counts and latencies in seq order."""
        rows = {}
        for flow_id in sorted(self.flows):
            flow = self.flows[flow_id]
            drops = {**dict.fromkeys(DROP_REASONS, 0), **flow["drops"]}
            latencies = [flow["latencies"][seq] for seq in sorted(flow["latencies"])]
            rows[flow_id] = {
                "ingress": flow["ingress"], "delivered": len(latencies),
                "in_flight": (flow["ingress"] - len(latencies)
                              - sum(drops.values())),
                "drops": drops, "hops": flow["hops"], "latencies": latencies,
                "max_gap_s": flow["max_gap_s"]}
        return rows

    def to_csv(self) -> str:
        rows = self.finalize()
        drop_cols = [f"drop_{r}" for r in DROP_REASONS]
        header = (["flow", "ingress", "delivered", "in_flight"] + drop_cols
                  + ["mean_hops", "mean_latency_ms", "max_gap_s",
                     "ctl_total", "ctl_area_crossing", "ctl_intra_area"])
        lines = [",".join(header)]
        totals = [0] * (3 + len(DROP_REASONS))
        for flow_id, row in rows.items():
            counts = ([row["ingress"], row["delivered"], row["in_flight"]]
                      + [row["drops"][r] for r in DROP_REASONS])
            totals = [a + b for a, b in zip(totals, counts)]
            mean_hops = (sum(h * n for h, n in row["hops"].items())
                         / row["delivered"] if row["delivered"] else 0.0)
            mean_lat = (sum(row["latencies"]) / len(row["latencies"]) * 1000.0
                        if row["latencies"] else 0.0)
            lines.append(",".join(
                [flow_id, *map(str, counts), f"{mean_hops:.4f}",
                 f"{mean_lat:.4f}", f"{row['max_gap_s']:.6f}", "", "", ""]))
        lines.append(",".join(
            ["TOTAL", *map(str, totals), "", "", "", str(self.control_total),
             str(self.control_crossing),
             str(self.control_total - self.control_crossing)]))
        return "\n".join(lines) + "\n"


# detail keys of each record by name, sorted as trace.jsonl writes them.  A
# name is the line's kind, or the kind, a "/" and a variant, for a kind
# recorded with more than one key set.  Kinds, variants and keys are written
# into the line functions' generated source, so each must be an ASCII
# identifier.
TRACE_KEYS = {
    "attach": ("area_hint", "cell", "prefix", "region"),
    "ctl_drop": ("msg", "why"),
    "ctl_recv": ("msg",),
    "ctl_send": ("area_crossing", "area_id", "hex", "label", "msg", "origin",
                 "prefix", "update_type"),
    "ctl_send/blanket": ("area_crossing", "hex", "msg"),
    "ctl_send/prefix": ("area_crossing", "hex", "msg", "prefix"),
    "data_deliver": ("flow", "interface", "path", "replica", "seq"),
    "data_drop": ("flow", "reason", "replica", "seq"),
    "data_hop": ("flow", "seq", "stack"),
    "data_hop/text": ("flow", "seq", "stack"),
    "data_ingress": ("flow", "seq"),
    "data_ingress/unattached": ("flow", "ler", "seq"),
    "detach": ("prefix",),
    "fib_update": ("cml", "lml", "origin", "prefix", "what"),
    "ignored_withdrawal": ("from", "prefix"),
    "local_handoff": ("interface", "prefix"),
    "move": ("from_region", "prefix", "region", "same_ler"),
    "node_fail": (),
    "register": ("area_sent", "interface", "label", "prefix"),
    "warn/area": ("area", "prefix", "what"),
    "warn/from": ("from", "prefix", "what"),
    "warn/node": ("node", "what"),
    "warn/prefix": ("prefix", "what"),
}
# detail keys that hold a router id, named at render; and the text of each
# enum, read as a plain value
ROUTER_KEYS = ("origin", "node", "from")
MSG_TEXT = {kind: kind.value for kind in MessageKind}
UPDATE_TYPE_TEXT = {utype: utype.name for utype in UpdateType}
# the entries rendered from stems, each with the detail keys whose values
# change from record to record, plain values all (no router id, hex or
# stack).  Only data_hop recurs enough to pay, as every packet of a flow
# takes the same hops under the same labels; a stem would only cost a kind
# whose other values seldom come back.
STEMMED = {"data_hop": ("seq",)}
# the entry whose "stack" is two labels deep, kept as two values, the top
# label and the inner one, and written "i{top}/m{inner}".  Any other stack
# is a text.
LABEL_PAIR = "data_hop"
CHUNK_LINES = 512  # trace lines joined at a time, then the chunks


def _line_factories(schema: dict) -> dict:
    """``(factory, n)`` per ``schema`` entry: ``factory(R, *memos)``, one
    value memo for each of its ``n`` value slots, returns ``line(record,
    seq, t)``, one f-string naming routers through ``R``.  Only kinds and
    keys enter the source.  A ``LABEL_PAIR`` stack is written literally as
    ``i{top}/m{inner}``, each label an int as its str.

    A ``STEMMED`` entry's line function, for as long as it lives, keys each
    record by its values but the changing ones.  A key's first record is
    rendered whole and only marks the key, so a record that never recurs
    costs no stem; its second makes the stem, the text between the changing
    values, which it and every later record of the key fill in.  Equal keys
    must render alike: ``transmit`` records texts and int labels, never a
    bool or float that equals an int."""
    factories = {}
    for name, keys in schema.items():
        if not all(n.isidentifier() and n.isascii()
                   for n in (*name.split("/", 1), *keys)):
            raise ValueError(f"not ASCII identifiers: {name!r}, {keys!r}")
        changing = STEMMED.get(name, ())
        # the line as f-string source in parts: at odd indices what changes
        # from record to record (a changing value, the record's seq, t), at
        # even ones the stable text between
        parts, slots, cuts, i = ['{{"detail": {{'], [], [], 4
        for n, key in enumerate(keys):
            parts[-1] += ", " * (n > 0) + '"%s": ' % key
            if key == "stack" and name == LABEL_PAIR:
                parts[-1] += '"i{r[%d]!s}/m{r[%d]!s}"' % (i, i + 1)
                i += 1
            elif key in ROUTER_KEYS:
                parts[-1] += "{R[r[%d]]}" % i
            elif key == "hex":  # seldom repeated: encoded anew each time
                parts[-1] += "{A(r[%d])}" % i
            else:
                slots.append(i)
                if key in changing:
                    parts += ["{s%d[r[%d]]}" % (i, i), ""]
                    cuts.append(i)
                else:
                    parts[-1] += "{s%d[r[%d]]}" % (i, i)
            i += 1
        parts[-1] += ('}}, "dst": {R[r[3]]}, "kind": "%s", "seq": '
                      % name.partition("/")[0])
        parts += ["{seq}", ', "src": {R[r[2]]}, "t": ', "{t}", "}}\\n"]
        line = "f'%s'" % "".join(parts)
        source = f"    return lambda r, seq, t: {line}"
        if changing:  # keyed by the record's values but the changing ones
            key = "".join(f"r[{j}], " for j in range(2, i) if j not in cuts)
            stem = "".join(f"f'{part}', " for part in parts[:-1:2])
            filled = "".join(part if n % 2 else "{x[%d]}" % (n // 2)
                             for n, part in enumerate(parts[:-1])) + parts[-1]
            source = f"""\
    stems = {{}}
    get = stems.get
    def line(r, seq, t):
        k = ({key})
        x = get(k)
        if x:
            return f'{filled}'
        if x is None:  # a first sighting, marked by ()
            stems[k] = ()
            return {line}
        stems[k] = x = ({stem})  # a second: the stem is made
        return f'{filled}'
    return line"""
        params = "".join(f", s{i}" for i in slots)
        exec(f"def factory(R{params}):\n{source}",
             namespace := {"A": encode_basestring_ascii})
        factories[name] = namespace["factory"], len(slots)
    return factories


LINE_FACTORIES = _line_factories(TRACE_KEYS)


class _Memo(dict):
    """``memo[key]`` is ``render(key)``, rendered on first use only."""

    def __init__(self, render):
        self.render = render

    def __missing__(self, key):
        return self.setdefault(key, self.render(key))


class _Values(dict):
    """``values[v]`` is ``json.dumps(v)``, rendered on first use only; a str
    or an int straight by the function ``json.dumps`` reaches for it."""

    def __missing__(self, value, by_type={str: encode_basestring_ascii,
                                          int: int.__repr__}.get):
        text = self[value] = by_type(type(value), json.dumps)(value)
        return text


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

    def send(self, kind: MessageKind, dst: str, payload) -> ControlMessage:
        return self.sim.send_control(self.rid, kind, dst, payload)

    def emit(self, name: str, *values):
        """Record the ``values`` of the ``TRACE_KEYS`` entry ``name``."""
        self.sim.trace_event(name, self.rid, None, *values)

    def trail_to(self, rid: str, origin: str):
        in_top = self.sim.lsp.in_label_for(rid, origin)
        out_top, next_hop = self.sim.lsp.next_hop(rid, origin)
        out_if = self.sim.graph.interface_name(rid, next_hop)
        return in_top, out_top, next_hop, out_if


class Simulation:
    def __init__(self, scenario: Scenario, seed_override: int | None = None):
        self.scenario = scenario
        self.seed = scenario.seed if seed_override is None else seed_override
        self.rng = random.Random(self.seed)
        self.graph = scenario.graph
        self._names = {rid: info.name for rid, info in self.graph.nodes.items()}
        # each edge's latency in seconds, a router's row made on first use
        self._edge_s = _Memo(lambda rid: {
            peer: ms / 1000.0 for peer, ms in self.graph.edges[rid].items()})
        self.lsp = compute_infrastructure_lsps(self.graph)
        self.latency = control_latency_matrix(self.graph)
        self.now = 0.0
        self._event_seq = 0
        # (time, seq, kind, payload): the unique seq settles equal times in
        # scheduling order, so kinds and payloads are never compared
        self._heap: list[tuple] = []
        # (now, kind, src, dst, detail) per trace record; seq is position + 1
        self._records: list[tuple] = []
        self.metrics = Metrics()
        self.failed: set[str] = set()
        self.mobiles: dict[MobilePrefix, MobileState] = {}
        model = scenario.model
        self._movers = set(model.prefixes) if model else set()
        # each region's mobility-model neighbours, sorted once
        self._neighbors = ({region: sorted(nbrs) for region, nbrs
                            in model.adjacency.items()} if model else {})
        self.nodes: dict[str, object] = {}
        self._build_nodes()
        self.engine = ForwardingEngine(self.graph, self.lsp, self.nodes, self)
        self._schedule_scenario()

    # ------------------------------------------------------------- set-up

    def _build_nodes(self):
        sc = self.scenario
        ha_twin = {a: b for pair in sc.flags.ha_pairs for a, b in (pair, pair[::-1])}
        amrrs_by_area = {area: self.graph.by_role(NodeRole.AMRR, area)
                         for area in self.graph.areas()}
        calls = (self.transmit, self.drop, self.deliver_local,
                 self.lsp.next_hop, self.graph.area_of)
        interfaces = {}  # LER rid -> its regions' cells, in region order
        for region in self.graph.regions.values():
            interfaces.setdefault(region.ler, []).extend(
                f"{region.name}/{cell}" for cell in region.cells)
        for rid in sorted(self.graph.nodes):
            info = self.graph.nodes[rid]
            if info.role is NodeRole.LER:
                self.nodes[rid] = LerNode(
                    rid, info.name, info.area,
                    amrrs=amrrs_by_area.get(info.area, []),
                    interfaces=interfaces.get(rid, []),
                    mobility_ranges=sc.mobility_ranges,
                    dead_time_s=sc.timers.dead_s,
                    default_lifetime_s=sc.timers.lifetime_s,
                    services=_Services(self, rid, calls),
                )
            elif info.role is NodeRole.ALER:
                self.nodes[rid] = AlerNode(
                    rid, info.name, info.area,
                    amrrs=amrrs_by_area.get(info.area, []),
                    services=_Services(self, rid, calls),
                )
            elif info.role is NodeRole.AMRR:
                self.nodes[rid] = AmrrNode(
                    rid, info.name, info.area,
                    peers=[r for r in self.graph.by_role(NodeRole.AMRR) if r != rid],
                    ler_clients=self.graph.by_role(NodeRole.LER, info.area),
                    aler_clients=self.graph.by_role(NodeRole.ALER, info.area),
                    amrrs_by_area=amrrs_by_area,
                    ha_twin=ha_twin,
                    services=_Services(self, rid, calls),
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

    def trace_event(self, name: str, src, dst, *values):
        """Record the ``values`` of the ``TRACE_KEYS`` entry ``name``."""
        self._records.append((self.now, name, src, dst) + values)

    @property
    def trace(self) -> list[dict]:
        """The records as dicts, parsed anew on each access from
        ``trace_jsonl``, whose lines hold no line break but their own."""
        return [json.loads(line) for line in self.trace_jsonl().split("\n")[:-1]]

    def trace_jsonl(self) -> str:
        """One line per record, byte for byte what ``json.dumps(sort_keys=
        True)`` writes for its dict (``t`` rounded to 9 places, ids named);
        ``json.dumps`` writes a time that is not finite (``NaN``).  Each
        record's ``LINE_FACTORIES`` line is made anew on each call with
        fresh ``_Values`` memos, which render each value once per call by
        its exact type (a wire hex, seldom repeated, is encoded on every
        use); a ``STEMMED`` entry's line keeps its stems, made for keys seen
        twice, for that call only.  A record whose time is the previous
        record's time object reuses its text; other nonzero float times are
        memoised by value, zero and int times not: 3 and 3.0, or 0.0 and
        -0.0, are one key but two texts.  ``CHUNK_LINES`` lines are joined
        at a time, so no list of every line outlives its chunk."""
        encode, names = json.dumps, self._names
        router = _Memo(lambda rid: encode(names.get(rid, rid)))
        lines_of = {name: factory(router, *[_Values() for _ in range(n)])
                    for name, (factory, n) in LINE_FACTORIES.items()}
        times = {}  # nonzero float times: their texts

        def time_text(t):
            return repr(round(t, 9)) if t - t == 0 else encode(t)

        records, chunks, seq, last = self._records, [], 0, object()
        for start in range(0, len(records), CHUNK_LINES):
            lines = []
            append = lines.append
            for rec in records[start:start + CHUNK_LINES]:
                seq += 1
                if rec[0] is not last:  # else one event's time: same text
                    last = t = rec[0]
                    if type(t) is float and t:
                        text = times.get(t)
                        if text is None:
                            text = times[t] = time_text(t)
                    else:
                        text = time_text(t)
                append(lines_of[rec[1]](rec, seq, text))
            chunks.append("".join(lines))
        return "".join(chunks)

    # ------------------------------------------------------- control plane

    def send_control(self, src: str, kind: MessageKind, dst: str,
                     payload) -> ControlMessage:
        msg = ControlMessage(kind, src, dst, self.now, payload)
        text, wire = MSG_TEXT[kind], canonical_encode(msg).hex()
        crossing = self.graph.area_of(src) != self.graph.area_of(dst)
        binding = getattr(payload, "binding", None)
        if binding is not None:
            self.trace_event("ctl_send", src, dst, crossing, binding.area_id,
                             wire, binding.label, text,
                             binding.origin_next_hop, str(binding.prefix),
                             UPDATE_TYPE_TEXT[binding.update_type])
        elif getattr(payload, "prefix", None) is not None:
            self.trace_event("ctl_send/prefix", src, dst, crossing, wire, text,
                             str(payload.prefix))
        else:
            self.trace_event("ctl_send/blanket", src, dst, crossing, wire, text)
        self.metrics.record_control(text, crossing)
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
        """Register ``mobile`` at ``at`` and keep the area its LER replies."""
        _, mobile.area_hint = self.nodes[at.ler].handle_registration(
            prefix, mobile.l2, at.interface, mobile.area_hint)

    def _on_attach(self, spec):
        new = self._attachment(spec)
        mobile = self.mobiles.setdefault(spec.prefix, MobileState(spec.l2))
        mobile.l2 = spec.l2  # a re-attach may come with another address
        mobile.attachments = [new]
        self.trace_event("attach", new.ler, None, mobile.area_hint, new.cell,
                         str(spec.prefix), spec.region)
        self._register(spec.prefix, mobile, new)
        self._after(self.scenario.timers.keepalive_s, "_keepalive", spec.prefix)
        if spec.prefix in self._movers:
            self._after(self.rng.expovariate(self.scenario.model.mu),
                        "_on_move_decision", spec.prefix)

    def _on_move(self, spec):
        """With ``overlap_attach``, the attachment left stays active for
        ``overlap_s``: a local move keeps only it, if the cell changed, and a
        move to another LER keeps every attachment still active."""
        mobile = self.mobiles.get(spec.prefix)
        if mobile is None or not mobile.attachments:
            return
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
        if local:
            self.nodes[new.ler].track_local_handoff(spec.prefix, new.interface)
        else:
            self._register(spec.prefix, mobile, new)

    def _on_detach(self, spec):
        mobile = self.mobiles.get(spec.prefix)
        if mobile is None:
            return
        mobile.attachments = []
        mobile.area_hint = 0  # a reset mobile starts over
        self.trace_event("detach", None, None, str(spec.prefix))

    def _on_move_decision(self, prefix: MobilePrefix):
        mobile = self.mobiles.get(prefix)
        model = self.scenario.model
        if mobile is None or not mobile.attachments or model is None:
            return
        neighbors = self._neighbors.get(mobile.primary().region, [])
        if neighbors and self.rng.random() < model.p:
            target = neighbors[self.rng.randrange(len(neighbors))]
            self._on_move(MoveSpec(self.now, prefix, target, None))
        self._after(self.rng.expovariate(model.mu), "_on_move_decision", prefix)

    # ----------------------------------------------------------- data plane

    def _on_ingress(self, flow, seq: int, key: int):
        """Packet ``seq`` of ``flow`` enters; ``key`` is its event's number."""
        if (t := flow.send_time(seq + 1)) is not None:
            self.schedule(t, EventKind.DATA_INGRESS, (flow, seq + 1, key + 1), key + 1)
        packet = DataPacket(flow.flow_id, seq, flow.src, flow.dst, self.now)
        self.metrics.record_ingress(flow.flow_id)
        mobile = self.mobiles.get(flow.src)
        attachment = mobile.primary() if mobile else None
        if attachment is None:
            self.trace_event("data_ingress/unattached", None, None,
                             flow.flow_id, None, seq)
            packet.ingressed = True
            self.drop(packet, None, "source_not_attached")
            return
        ler: LerNode = self.nodes[attachment.ler]
        self.trace_event("data_ingress", attachment.ler, None, flow.flow_id,
                         seq)
        packet.hop_trace.append(ler.name)
        ler.keepalive(flow.src, self.now)  # uplink traffic doubles as liveness
        ler.ingress_forward(packet)

    def transmit(self, packet: DataPacket, from_node: str, to_node: str):
        stack = packet.stack
        depth = len(stack)
        if depth > self.metrics.max_stack_depth:
            self.metrics.max_stack_depth = depth
        if depth > 2:
            self.metrics.stack_violations += 1
        if depth == 2:
            top, inner = stack
            self.trace_event("data_hop", from_node, to_node, packet.flow_id,
                             packet.seq, top, inner)
        else:
            self.trace_event("data_hop/text", from_node, to_node,
                             packet.flow_id, packet.seq, packet.render_stack())
        self.schedule(self.now + self._edge_s[from_node][to_node],
                      EventKind.DATA_HOP, (packet, to_node))

    def _on_hop(self, packet: DataPacket, node: str):
        if node in self.failed:
            self.drop(packet, node, "node_failed")
            return
        packet.hop_trace.append(self._names[node])
        self.engine.step(packet, node)

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
        """The periodic tick: dead LER registrations, then each node's
        ``EXPIRE`` method."""
        for rid in self.graph.by_role(NodeRole.LER):
            self.nodes[rid].scan_dead_registrations(self.now)
        for node in self.nodes.values():  # built in rid order
            getattr(node, node.EXPIRE)(self.now)
        self._after(self.scenario.timers.keepalive_s, "_sweep")

    def _keepalive(self, prefix: MobilePrefix):
        mobile = self.mobiles.get(prefix)
        if mobile and mobile.attachments:
            self.nodes[mobile.primary().ler].keepalive(prefix, self.now)
            self._after(self.scenario.timers.keepalive_s, "_keepalive", prefix)

    def _on_fail(self, rid: str):
        self.failed.add(rid)
        self.trace_event("node_fail", rid, None)
        if self.graph.role_of(rid) is NodeRole.ALER:
            for amrr_rid in self.graph.by_role(NodeRole.AMRR,
                                               self.graph.area_of(rid)):
                self.nodes[amrr_rid].handle_aler_failure(rid)


def run_scenario(scenario: Scenario, seed: int | None = None) -> Simulation:
    """Build, run to completion and return the finished simulation."""
    return Simulation(scenario, seed_override=seed).run()
