"""Edge-node mobility support: registration, movement tracking, on-demand
binding acquisition, label-stack imposition and egress delivery.

A LER owns the registration records for mobiles attached in its regions,
keeps an on-demand binding cache for destinations it sends to, and queues
packets while a binding request is outstanding.  Registration keepalives
and interface tracking are local radio-side events and never produce
control messages.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from .errors import NotRegistered, UnknownInterface
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

DEFAULT_PENDING_QUEUE_LIMIT = 64


@dataclass
class RegistrationRecord:
    prefix: MobilePrefix
    interface_id: str
    assigned_label: int
    last_heard: float


@dataclass
class _Pending:
    queue: deque = field(default_factory=deque)
    awaiting: set = field(default_factory=set)


class LerNode(ControlNode):
    EXPIRE = "expire_cache"
    HANDLERS = {
        MessageKind.BINDING_UPDATE: "handle_unsolicited_update",
        MessageKind.BINDING_REPLY_POSITIVE: "handle_binding_reply",
        MessageKind.BINDING_REPLY_NEGATIVE: "handle_binding_reply",
        MessageKind.BINDING_WITHDRAWAL: "handle_withdrawal_reflect",
    }

    def __init__(self, rid, name, area, *, amrrs, interfaces, mobility_ranges,
                 dead_time_s, default_lifetime_s, services):
        self.rid = rid
        self.name = name
        self.area = area
        self.amrrs = sorted(amrrs)
        self.own_interfaces = set(interfaces)
        self.mobility_ranges = mobility_ranges
        self.dead_time_s = dead_time_s
        self.default_lifetime_s = default_lifetime_s
        self.services = services
        self.allocator = LabelAllocator()
        self.registrations: dict[str, RegistrationRecord] = {}
        self.regs_by_label: dict[int, RegistrationRecord] = {}
        self.binding_cache: dict[str, tuple[MobilityBinding, float]] = {}
        self.pending: dict[str, _Pending] = {}
        # destination -> whether the mobility ranges cover it
        self.covered: dict[MobilePrefix, bool] = {}

    # ------------------------------------------------------------ mobiles

    def handle_registration(self, prefix: MobilePrefix, interface_id: str,
                            mn_area: int):
        """Register a mobile; returns (record, area id told to the mobile).

        A fresh label is always assigned.  The internal update toward the
        area AMRR carries the mobile's area id unchanged unless the mobile
        presented the start-up value 0, in which case our own area is used.
        """
        if interface_id not in self.own_interfaces:
            raise UnknownInterface(f"{self.name} has no interface {interface_id}")
        now = self.services.now()
        key = str(prefix)
        old = self.registrations.pop(key, None)
        if old:
            self.regs_by_label.pop(old.assigned_label, None)
        label = self.allocator.allocate()
        record = RegistrationRecord(prefix, interface_id, label, now)
        self.registrations[key] = record
        self.regs_by_label[label] = record
        binding_area = self.area if mn_area == 0 else mn_area
        binding = MobilityBinding(
            prefix=prefix,
            origin_next_hop=self.rid,
            label=label,
            area_id=binding_area,
            update_mode=UpdateMode.SELECTIVE_DOWNSTREAM_PUSH,
            update_type=UpdateType.INTERNAL,
            lifetime_s=self.default_lifetime_s,
        )
        # in the sorted key order of the trace's TRACE_KEYS entry
        self.services.emit("register", binding_area, interface_id, label, key)
        for amrr in self.amrrs:
            self.services.send(MessageKind.BINDING_UPDATE, amrr, binding)
        return record, self.area

    def keepalive(self, prefix: MobilePrefix, now: float):
        record = self.registrations.get(str(prefix))
        if record:
            record.last_heard = now

    def track_local_handoff(self, prefix: MobilePrefix, new_interface: str) -> RegistrationRecord:
        """Mobile moved between RAN cells of this same region set: update the
        association only.  Zero control messages by design."""
        record = self.registrations.get(str(prefix))
        if record is None:
            raise NotRegistered(f"{prefix} not registered at {self.name}")
        if new_interface not in self.own_interfaces:
            raise UnknownInterface(f"{self.name} has no interface {new_interface}")
        now = self.services.now()
        if new_interface != record.interface_id:
            record.interface_id = new_interface
            self.services.emit("local_handoff", new_interface, str(prefix))
        record.last_heard = now
        return record

    def scan_dead_registrations(self, now: float):
        """Withdraw registrations silent for longer than the dead time."""
        for key in sorted(self.registrations):
            record = self.registrations[key]
            if now - record.last_heard > self.dead_time_s:
                del self.registrations[key]
                self.regs_by_label.pop(record.assigned_label, None)
                for amrr in self.amrrs:
                    self.services.send(MessageKind.BINDING_WITHDRAWAL, amrr,
                                       record.prefix, self.rid)

    # --------------------------------------------------------------- data

    def ingress_forward(self, packet: DataPacket):
        dst = packet.dst()
        packet.ingressed = True
        covered = self.covered.get(dst)
        if covered is None:
            covered = self.covered[dst] = dst.covered_by(self.mobility_ranges)
        if not covered:
            self.services.drop(packet, self.rid, "non_mobile")
            return
        key = str(dst)
        record = self.registrations.get(key)
        if record is not None:
            self.services.deliver_local(packet, self, record)
            return
        cached = self._cache_lookup(key)
        if cached is not None:
            self._impose_and_send(packet, cached)
            return
        pending = self.pending.get(key)
        if pending is None:
            pending = _Pending(awaiting=set(self.amrrs))
            self.pending[key] = pending
            for amrr in self.amrrs:
                self.services.send(MessageKind.BINDING_REQUEST, amrr, dst,
                                   self.area)
        if len(pending.queue) >= DEFAULT_PENDING_QUEUE_LIMIT:
            self.services.drop(packet, self.rid, "queue_overflow")
            return
        pending.queue.append(packet)

    def _cache_lookup(self, key: str) -> MobilityBinding | None:
        hit = self.binding_cache.get(key)
        if hit is None:
            return None
        binding, expiry = hit
        if self.services.now() > expiry:
            del self.binding_cache[key]
            return None
        return binding

    def _impose_and_send(self, packet: DataPacket, binding: MobilityBinding):
        if binding.origin_next_hop == self.rid:
            record = self.registrations.get(str(binding.prefix))
            if record is not None:
                self.services.deliver_local(packet, self, record)
            else:
                self.services.drop(packet, self.rid, "no_binding")
            return
        out_label, next_hop = self.services.infra_path(self.rid, binding.origin_next_hop)
        packet.stack = [out_label, binding.label]
        self.services.transmit(packet, self.rid, next_hop)

    def egress_deliver(self, packet: DataPacket):
        """Terminate a flow: the inner label names a local registration."""
        record = self.regs_by_label.get(packet.stack.pop(0))
        if record is None:
            self.services.drop(packet, self.rid, "unknown_mobility_label")
            return
        self.services.deliver_local(packet, self, record)

    # ------------------------------------------------------------ control

    def handle_binding_reply(self, msg: ControlMessage):
        if msg.kind is MessageKind.BINDING_REPLY_POSITIVE:
            binding = msg.payload.binding
            key = str(binding.prefix)
            self._cache_store(binding)
            pending = self.pending.pop(key, None)
            if pending:
                while pending.queue:
                    self._impose_and_send(packet=pending.queue.popleft(),
                                          binding=binding)
            return
        key = str(msg.payload.prefix)
        pending = self.pending.get(key)
        if pending is None:
            return
        pending.awaiting.discard(msg.src)
        if not pending.awaiting:
            del self.pending[key]
            while pending.queue:
                self.services.drop(pending.queue.popleft(), self.rid, "no_binding")

    def handle_unsolicited_update(self, msg: ControlMessage):
        self._cache_store(msg.payload.binding)

    def handle_withdrawal_reflect(self, msg: ControlMessage):
        self.binding_cache.pop(str(msg.payload.prefix), None)

    def _cache_store(self, binding: MobilityBinding):
        expiry = self.services.now() + binding.lifetime_s
        self.binding_cache[str(binding.prefix)] = (binding, expiry)

    def expire_cache(self, now: float):
        for key in [k for k, (_, exp) in self.binding_cache.items() if now > exp]:
            del self.binding_cache[key]
