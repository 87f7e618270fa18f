"""Area aggregation node: label-trail FIB and segment stitching.

The ALER aliases every mobile prefix it hears about behind a Local Mobility
Label of its own.  The label trail links that alias to the current
downstream label and the infrastructure LSP toward the binding's origin, so
intra-area movement rewrites one FIB record here instead of updating the
rest of the network.  The FIB is indexed both by prefix (control plane) and
by local label (data plane).
"""

from __future__ import annotations

from dataclasses import dataclass

from .forwarding import DataPacket, Label
from .labels import LabelAllocator
from .messages import (
    ControlMessage,
    ControlNode,
    MessageKind,
    MobilePrefix,
    MobilityBinding,
    UpdateMode,
    UpdatePayload,
    UpdateType,
)


@dataclass
class FibEntry:
    prefix: MobilePrefix
    origin_router_id: str
    in_top_label: int
    local_mobility_label: int
    current_mobility_label: int
    out_top_label: int
    out_interface_id: str
    next_hop: str
    expiry: float

    def dump_line(self, name_of) -> str:
        return (f"prefix={self.prefix} origin={self.origin_router_id}"
                f"({name_of(self.origin_router_id)}) in_top={self.in_top_label}"
                f" lml={self.local_mobility_label}"
                f" cml={self.current_mobility_label}"
                f" out_top={self.out_top_label} out_if={self.out_interface_id}")


class AlerNode(ControlNode):
    EXPIRE = "expire"
    HANDLERS = {
        MessageKind.BINDING_UPDATE: "handle_update",
        MessageKind.BINDING_WITHDRAWAL: "handle_withdrawal",
        MessageKind.ALER_FAILOVER_BLANKET: "handle_blanket",
    }

    def __init__(self, rid, name, area, *, amrrs, services):
        self.rid = rid
        self.name = name
        self.area = area
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

        A first-seen prefix gets a Local Mobility Label and is re-originated
        outward (external update, our router id as next hop).  Known
        prefixes only have their trail refreshed; the alias is stable.
        """
        return self._alias(msg.payload.binding, UpdateType.EXTERNAL)

    def handle_external_update(self, msg: ControlMessage) -> FibEntry:
        """Binding for a mobile in another area; mirror of the internal path:
        new prefixes are aliased and re-announced inward."""
        return self._alias(msg.payload.binding, UpdateType.INTERNAL)

    def _alias(self, binding: MobilityBinding, announce_as: UpdateType) -> FibEntry:
        entry, created = self._upsert(binding)
        if created:
            announced = binding._replace(
                origin_next_hop=self.rid, label=entry.local_mobility_label,
                update_type=announce_as,
                update_mode=UpdateMode.SELECTIVE_DOWNSTREAM_PUSH)
            for amrr in self.amrrs:
                self.services.send(MessageKind.BINDING_UPDATE, amrr,
                                   UpdatePayload(announced))
        return entry

    def _upsert(self, binding: MobilityBinding) -> tuple[FibEntry, bool]:
        key = str(binding.prefix)
        in_top, out_top, next_hop, out_if = self.services.trail_to(
            self.rid, binding.origin_next_hop)
        expiry = self.services.now() + binding.lifetime_s
        entry = self.fib.get(key)
        if entry is not None and self.services.now() > entry.expiry:
            # already dead: a fresh alias must be allocated and re-announced
            self.fib.pop(key, None)
            self.by_label.pop(entry.local_mobility_label, None)
            entry = None
        if entry is None:
            entry = FibEntry(
                prefix=binding.prefix,
                origin_router_id=binding.origin_next_hop,
                in_top_label=in_top,
                local_mobility_label=self.allocator.allocate(),
                current_mobility_label=binding.label,
                out_top_label=out_top,
                out_interface_id=out_if,
                next_hop=next_hop,
                expiry=expiry,
            )
            self.fib[key] = entry
            self.by_label[entry.local_mobility_label] = entry
            self._emit_fib(entry, "created")
            return entry, True
        changed = (entry.origin_router_id != binding.origin_next_hop
                   or entry.current_mobility_label != binding.label)
        entry.origin_router_id = binding.origin_next_hop
        entry.current_mobility_label = binding.label
        entry.in_top_label = in_top
        entry.out_top_label = out_top
        entry.next_hop = next_hop
        entry.out_interface_id = out_if
        entry.expiry = expiry
        if changed:
            self._emit_fib(entry, "updated")
        return entry, False

    def handle_withdrawal(self, msg: ControlMessage):
        key = str(msg.payload.prefix)
        entry = self.fib.pop(key, None)
        if entry:
            self.by_label.pop(entry.local_mobility_label, None)
            self._emit_fib(entry, "withdrawn")

    def handle_blanket(self, msg: ControlMessage):
        self.apply_failover(msg.payload.survivor, msg.payload.failed)

    def apply_failover(self, survivor: str, failed: str):
        """Repoint every trail that terminated at a failed twin ALER."""
        for key in sorted(self.fib):
            entry = self.fib[key]
            if entry.origin_router_id != failed:
                continue
            in_top, out_top, next_hop, out_if = self.services.trail_to(
                self.rid, survivor)
            entry.origin_router_id = survivor
            entry.in_top_label = in_top
            entry.out_top_label = out_top
            entry.next_hop = next_hop
            entry.out_interface_id = out_if
            self._emit_fib(entry, "failover")

    def expire(self, now: float):
        for key in [k for k, e in self.fib.items() if now > e.expiry]:
            entry = self.fib.pop(key)
            self.by_label.pop(entry.local_mobility_label, None)

    # --------------------------------------------------------------- data

    def forward_transit(self, packet: DataPacket, top: Label):
        """Terminating segment: swap the mobility label through the FIB and
        push the next segment's top label.  The engine popped ``top`` before
        delegation; it goes back on the stack carrying that label."""
        inner = packet.stack[0]
        entry = self.by_label.get(inner.value)
        if entry is not None and self.services.now() > entry.expiry:
            # lifetime ran out before the periodic sweep collected it
            self.fib.pop(str(entry.prefix), None)
            self.by_label.pop(entry.local_mobility_label, None)
            entry = None
        if entry is None:
            self.services.drop(packet, self.rid, "unknown_local_mobility_label")
            return
        inner.value = entry.current_mobility_label
        top.value = entry.out_top_label
        packet.stack.insert(0, top)
        self.services.transmit(packet, self.rid, entry.next_hop)

    # ---------------------------------------------------------------- misc

    def _emit_fib(self, entry: FibEntry, what: str):
        # in the sorted key order of the trace's TRACE_KEYS entry
        self.services.emit("fib_update", entry.current_mobility_label,
                           entry.local_mobility_label, entry.origin_router_id,
                           str(entry.prefix), what)

    def dump(self, name_of) -> list[str]:
        return [self.fib[key].dump_line(name_of) for key in sorted(self.fib)]
