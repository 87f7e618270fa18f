"""Area aggregation node: label-trail FIB and segment stitching.

The ALER aliases every mobile prefix it hears about behind a local mobility
label of its own.  The label trail links that alias to the current
downstream label and, as at a LER, the origin's FEC label and next hop, so
intra-area movement rewrites one FIB record here instead of updating the
rest of the network.  The FIB is indexed both by prefix (control plane) and
by local label (data plane).
"""

from __future__ import annotations

from dataclasses import dataclass

from .forwarding import DataPacket
from .labels import LabelAllocator
from .messages import (
    ControlMessage,
    ControlNode,
    MessageKind,
    MobilePrefix,
    MobilityBinding,
    UpdateMode,
    UpdateType,
)


@dataclass
class FibEntry:
    prefix: MobilePrefix
    local_mobility_label: int
    # the rest is set from each binding, by AlerNode._alias and _retrail
    current_mobility_label: int = 0
    expiry: float = 0.0
    origin_router_id: str = ""
    out_top_label: int = 0  # the origin's FEC label, the same at every hop
    next_hop: str = ""


class AlerNode(ControlNode):
    EXPIRE = "expire"
    HANDLERS = {
        MessageKind.BINDING_UPDATE: "handle_update",
        MessageKind.BINDING_WITHDRAWAL: "handle_withdrawal",
        MessageKind.ALER_FAILOVER_BLANKET: "handle_blanket",
    }

    def __init__(self, rid, *, amrrs, services):
        self.rid = rid
        self.amrrs = sorted(amrrs)
        self.services = services
        self.allocator = LabelAllocator()
        self.fib: dict[str, FibEntry] = {}
        self.by_label: dict[int, FibEntry] = {}

    # ------------------------------------------------------------ control

    def handle_update(self, msg: ControlMessage) -> FibEntry:
        """Binding from an AMRR, internal or external by its update type."""
        if msg.payload.binding.update_type is UpdateType.INTERNAL:
            return self.handle_internal_update(msg)
        return self.handle_external_update(msg)

    def handle_internal_update(self, msg: ControlMessage) -> FibEntry:
        """Binding for a mobile served inside this area, relayed by the AMRR.

        A first-seen prefix gets a local mobility label and is re-originated
        outward (external update, our router id as next hop).  Known
        prefixes only have their trail refreshed; the alias is stable.
        """
        return self._alias(msg.payload.binding, UpdateType.EXTERNAL)

    def handle_external_update(self, msg: ControlMessage) -> FibEntry:
        """Binding for a mobile in another area; mirror of the internal path:
        new prefixes are aliased and re-announced inward."""
        return self._alias(msg.payload.binding, UpdateType.INTERNAL)

    def _alias(self, binding: MobilityBinding, announce_as: UpdateType) -> FibEntry:
        """The prefix's entry, made or updated from ``binding``.  A prefix
        without a live entry gets a new one under a fresh alias, announced
        to the area's AMRRs as ``announce_as``."""
        key = str(binding.prefix)
        entry = self._live(self.fib.get(key))
        created = entry is None
        if created:
            entry = FibEntry(binding.prefix, self.allocator.allocate())
            self.fib[key] = self.by_label[entry.local_mobility_label] = entry
        changed = created or (entry.origin_router_id != binding.origin_next_hop
                              or entry.current_mobility_label != binding.label)
        entry.current_mobility_label = binding.label
        entry.expiry = self.services.now() + binding.lifetime_s
        self._retrail(entry, binding.origin_next_hop)
        if changed:
            self._emit_fib(entry, "created" if created else "updated")
        if created:
            announced = binding._replace(
                origin_next_hop=self.rid, label=entry.local_mobility_label,
                update_type=announce_as,
                update_mode=UpdateMode.SELECTIVE_DOWNSTREAM_PUSH)
            for amrr in self.amrrs:
                self.services.send(MessageKind.BINDING_UPDATE, amrr, announced)
        return entry

    def handle_withdrawal(self, msg: ControlMessage):
        entry = self.fib.get(str(msg.payload.prefix))
        if entry:
            self._remove(entry)
            self._emit_fib(entry, "withdrawn")

    def handle_blanket(self, msg: ControlMessage):
        self.apply_failover(msg.payload.survivor, msg.payload.failed)

    def apply_failover(self, survivor: str, failed: str):
        """Repoint every trail that terminated at a failed twin ALER."""
        for key in sorted(self.fib):
            entry = self.fib[key]
            if entry.origin_router_id == failed:
                self._retrail(entry, survivor)
                self._emit_fib(entry, "failover")

    def expire(self, now: float):
        for entry in [e for e in self.fib.values() if now > e.expiry]:
            self._remove(entry)

    # -------------------------------------------------------------- table

    def _retrail(self, entry: FibEntry, origin: str):
        """Point ``entry`` at ``origin``: its origin and the trail there."""
        entry.origin_router_id = origin
        entry.out_top_label, entry.next_hop = self.services.infra_path(
            self.rid, origin)

    def _live(self, entry: FibEntry | None) -> FibEntry | None:
        """``entry``, or None if it is None or past its lifetime; a dead
        one the periodic sweep has not collected yet is removed now."""
        if entry is not None and self.services.now() > entry.expiry:
            self._remove(entry)
            return None
        return entry

    def _remove(self, entry: FibEntry):
        """Drop ``entry`` from both indexes of the FIB."""
        self.fib.pop(str(entry.prefix), None)
        self.by_label.pop(entry.local_mobility_label, None)

    # --------------------------------------------------------------- data

    def forward_transit(self, packet: DataPacket):
        """Terminating segment.  The engine popped the top label, so the
        stack's top is one of our local mobility labels: it is rewritten to
        the FIB entry's current mobility label, and the next segment's top
        label is pushed above it."""
        stack = packet.stack
        entry = self._live(self.by_label.get(stack[0]))
        if entry is None:
            self.services.drop(packet, self.rid, "unknown_local_mobility_label")
            return
        stack[0] = entry.current_mobility_label
        stack.insert(0, entry.out_top_label)
        self.services.transmit(packet, self.rid, entry.next_hop)

    # ---------------------------------------------------------------- misc

    def _emit_fib(self, entry: FibEntry, what: str):
        # in the sorted key order of the trace's TRACE_KEYS entry
        self.services.emit("fib_update", entry.current_mobility_label,
                           entry.local_mobility_label, entry.origin_router_id,
                           str(entry.prefix), what)

    def dump(self, graph) -> list[str]:
        # in_top and out_top are both the origin's one FEC label
        return [f"prefix={e.prefix} origin={e.origin_router_id}"
                f"({graph.name_of(e.origin_router_id)})"
                f" in_top={e.out_top_label} lml={e.local_mobility_label}"
                f" cml={e.current_mobility_label} out_top={e.out_top_label}"
                f" out_if={graph.interface_name(self.rid, e.next_hop)}"
                for e in map(self.fib.get, sorted(self.fib))]
