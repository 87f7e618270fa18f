"""Area control-plane hub: binding store, area-id logic, requestor lists,
on-demand resolution, withdrawal scoping and ALER fail-over.

The AMRR is a route reflector with deliberately non-standard behavior: it
stores client bindings instead of flooding them, reflects automatically
only toward the area's ALER nodes, and answers everyone else on demand.
Its record for a prefix tracks which area currently owns the mobile, the
local ALER aliases for it, and who asked (external areas and internal
LERs) so later withdrawals and hand-off updates touch exactly those nodes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .messages import (
    ControlMessage,
    ControlNode,
    LastRequestorList,
    MessageKind,
    MobilePrefix,
    MobilityBinding,
    UpdateMode,
    UpdateType,
)


@dataclass
class AmrrRecord:
    binding: MobilityBinding  # last truth update (LER internal or peer external)
    area_id: int
    lrl: LastRequestorList = field(default_factory=LastRequestorList)
    aler_labels: dict = field(default_factory=dict)  # ALER rid -> its local label
    resolved_local: MobilityBinding | None = None  # local-ALER alias, foreign mobiles
    expiry: float = 0.0
    pending_lrl_target: int | None = None

    def dump_line(self, name_of) -> str:
        alers = ",".join(name_of(a) for a in sorted(self.aler_labels)) or "-"
        elrl = ",".join(str(a) for a in self.lrl.external) or "-"
        ilrl = ",".join(name_of(r) for r in self.lrl.internal) or "-"
        return (f"prefix={self.binding.prefix} area={self.area_id}"
                f" origin={name_of(self.binding.origin_next_hop)}"
                f" label={self.binding.label} alers={alers}"
                f" elrl={elrl} ilrl={ilrl} expiry={self.expiry:.3f}")


@dataclass
class _PendingRequest:
    lers: list = field(default_factory=list)
    awaiting: set = field(default_factory=set)
    resolved: bool = False


class AmrrNode(ControlNode):
    EXPIRE = "expire_records"
    HANDLERS = {
        MessageKind.BINDING_UPDATE: "handle_update",
        MessageKind.BINDING_REQUEST: "handle_request",
        MessageKind.BINDING_REPLY_POSITIVE: "handle_reply",
        MessageKind.BINDING_REPLY_NEGATIVE: "handle_reply",
        MessageKind.LRL_REQUEST: "handle_lrl_request",
        MessageKind.LRL_REPLY: "handle_lrl_reply",
        MessageKind.BINDING_WITHDRAWAL: "handle_withdrawal",
        MessageKind.ALER_FAILOVER_BLANKET: "handle_blanket",
    }

    def __init__(self, rid, area, *, ler_clients, aler_clients,
                 amrrs_by_area, ha_twin, services, reflect_to_previous=False):
        self.rid = rid
        self.area = area
        self.peers = sorted(r for rids in amrrs_by_area.values()
                            for r in rids if r != rid)
        self.ler_clients = set(ler_clients)
        self.aler_clients = sorted(aler_clients)
        self.amrrs_by_area = {a: sorted(v) for a, v in amrrs_by_area.items()}
        self.ha_twin = dict(ha_twin)  # ALER rid -> its high-availability twin
        self.services = services
        self.reflect_to_previous = reflect_to_previous
        self.records: dict[str, AmrrRecord] = {}
        self.pending: dict[str, _PendingRequest] = {}
        self.rr_counter = 0
        self.failed_alers: set[str] = set()

    def _live_record(self, key: str) -> AmrrRecord | None:
        """Read-side record lookup; state past its lifetime is already dead
        even if the periodic sweep has not collected it yet."""
        rec = self.records.get(key)
        if rec is not None and self.services.now() > rec.expiry:
            del self.records[key]
            return None
        return rec

    # ----------------------------------------------------------- updates

    def handle_update(self, msg: ControlMessage):
        binding = msg.payload.binding
        if msg.src in self.ler_clients:
            self._internal_from_ler(binding)
        elif msg.src in self.aler_clients:
            if binding.update_type is UpdateType.EXTERNAL:
                self._external_from_aler(binding, msg.src)
            else:
                self._internal_from_aler(binding, msg.src)
        else:
            self._external_from_peer(binding)

    def _internal_from_ler(self, binding: MobilityBinding):
        """Area-id check: own-area bindings are stored and reflected to the
        ALERs only; a foreign area id additionally starts the requestor-list
        exchange with that area's AMRR and is rewritten to our own."""
        key = str(binding.prefix)
        rec = self._live_record(key)
        previous_origin = (rec.binding.origin_next_hop if rec is not None
                           and rec.area_id == self.area else None)
        stored = (binding if binding.area_id == self.area
                  else binding._replace(area_id=self.area))
        target_area = binding.area_id if binding.area_id != self.area else None
        if target_area is not None and target_area not in self.amrrs_by_area:
            self.services.emit("warn/area", target_area, key,
                               "unknown_peer_area")
            target_area = None
        rec = self._store(stored, self.area)
        self._reflect_to_alers(stored, UpdateType.INTERNAL)
        if (self.reflect_to_previous and previous_origin
                and previous_origin != binding.origin_next_hop
                and previous_origin in self.ler_clients):
            reflected = stored._replace(
                update_mode=UpdateMode.UNSOLICITED_DOWNSTREAM_PUSH)
            self.services.send(MessageKind.BINDING_UPDATE, previous_origin,
                               reflected)
        if target_area is not None:
            if rec.aler_labels:
                self._send_lrl_exchange(rec, target_area)
            else:
                rec.pending_lrl_target = target_area

    def _aler_alias(self, binding: MobilityBinding, sender: str,
                    what: str) -> AmrrRecord:
        """The prefix's live record, holding ``binding.label`` as the alias
        of the ALER ``sender``, with its expiry renewed; a missing record is
        warned of as ``what`` and created."""
        key = str(binding.prefix)
        rec = self._live_record(key)
        if rec is None:
            self.services.emit("warn/from", sender, key, what)
            rec = self.records[key] = AmrrRecord(binding, binding.area_id)
        rec.aler_labels[sender] = binding.label
        rec.expiry = self.services.now() + binding.lifetime_s
        return rec

    def _external_from_aler(self, binding: MobilityBinding, sender: str):
        rec = self._aler_alias(binding, sender, "external_before_internal")
        rec.area_id = binding.area_id  # stored as received, no area-id check
        target, rec.pending_lrl_target = rec.pending_lrl_target, None
        if target is not None:
            self._send_lrl_exchange(rec, target)

    def _internal_from_aler(self, binding: MobilityBinding, sender: str):
        """An ALER re-announced an outside mobile inward, under the alias it
        holds now; answer any LER requests that were parked on the
        resolution."""
        rec = self._aler_alias(binding, sender, "internal_before_record")
        rec.resolved_local = binding
        pending = self.pending.pop(str(binding.prefix), None)
        if pending:
            for ler in pending.lers:
                self._answer(rec, ler, binding)

    def _external_from_peer(self, binding: MobilityBinding):
        self._store(binding, binding.area_id)
        self._reflect_to_alers(binding, UpdateType.EXTERNAL)

    def _store(self, binding: MobilityBinding, area_id: int) -> AmrrRecord:
        """The prefix's live record, made or updated to hold ``binding`` as
        its truth and ``area_id`` as its area, with its expiry renewed."""
        key = str(binding.prefix)
        rec = self._live_record(key)
        if rec is None:
            rec = self.records[key] = AmrrRecord(binding, area_id)
        else:
            rec.binding = binding
            rec.area_id = area_id
        rec.expiry = self.services.now() + binding.lifetime_s
        return rec

    def _reflect_to_alers(self, binding: MobilityBinding, update_type: UpdateType):
        reflected = binding._replace(
            update_type=update_type,
            update_mode=UpdateMode.UNSOLICITED_DOWNSTREAM_PUSH)
        for aler in self._live_alers():
            self.services.send(MessageKind.BINDING_UPDATE, aler, reflected)

    # ---------------------------------------------------------- requests

    def handle_request(self, msg: ControlMessage):
        prefix = msg.payload.prefix
        key = str(prefix)
        rec = self._live_record(key)
        if msg.src not in self.ler_clients:
            # peer area asks: positive only while the mobile is ours, and
            # only through a live ALER alias (loop avoidance)
            owned = rec is not None and rec.area_id == self.area
            aler = self.select_aler(rec) if owned else None
            if aler is None:
                self._refuse(msg.src, prefix)
                return
            rec.lrl.add_external(msg.payload.requestor_area, self.area)
            reply = self._alias_binding(
                rec, aler, UpdateMode.SELECTIVE_DOWNSTREAM_PUSH)
            self.services.send(MessageKind.BINDING_REPLY_POSITIVE, msg.src,
                               reply)
            return
        # internal LER client: the origin LER of a mobile that is ours, else
        # a local ALER's alias of one that is not, once resolved
        if rec is not None:
            known = (rec.binding if rec.area_id == self.area
                     else rec.resolved_local)
            if known is not None:
                self._answer(rec, msg.src, known)
                return
        pending = self.pending.get(key)
        if pending is not None:
            if msg.src not in pending.lers:
                pending.lers.append(msg.src)
            return
        if not self.peers:
            self._refuse(msg.src, prefix)
            return
        pending = _PendingRequest(lers=[msg.src], awaiting=set(self.peers))
        self.pending[key] = pending
        for peer in self.peers:
            self.services.send(MessageKind.BINDING_REQUEST, peer, prefix,
                               msg.payload.requestor_area)

    def _answer(self, rec: AmrrRecord, ler: str, binding: MobilityBinding):
        """Remember ``ler`` as an internal requestor of ``rec`` and send it
        ``binding`` in a positive reply."""
        rec.lrl.add_internal(ler)
        self.services.send(MessageKind.BINDING_REPLY_POSITIVE, ler, binding)

    def _refuse(self, dst: str, prefix: MobilePrefix):
        """Tell ``dst`` that no binding for ``prefix`` can be had here."""
        self.services.send(MessageKind.BINDING_REPLY_NEGATIVE, dst, prefix)

    def handle_reply(self, msg: ControlMessage):
        """Aggregate peer replies for a flooded request: first positive wins
        and is pushed down through the ALER; all-negative fails the LERs."""
        positive = msg.kind is MessageKind.BINDING_REPLY_POSITIVE
        prefix = msg.payload.binding.prefix if positive else msg.payload.prefix
        key = str(prefix)
        pending = self.pending.get(key)
        if pending is None:
            if positive:
                self.services.emit("warn/from", msg.src, key,
                                   "unexpected_positive_reply")
            return
        if not positive:
            pending.awaiting.discard(msg.src)
            if not pending.awaiting and not pending.resolved:
                del self.pending[key]
                for ler in pending.lers:
                    self._refuse(ler, prefix)
            return
        if pending.resolved:
            return  # a twin AMRR already answered
        pending.resolved = True
        pending.awaiting.clear()
        # stored and reflected like a peer's update; the LERs are answered
        # once the ALER re-originates inward
        self._external_from_peer(msg.payload.binding)

    # ------------------------------------------------------ LRL exchange

    def _send_lrl_exchange(self, rec: AmrrRecord, target_area: int):
        content = self._own_external_content(rec)
        if content is None:
            self.services.emit("warn/prefix", str(rec.binding.prefix),
                               "lrl_without_alias")
            return
        for amrr in self.amrrs_by_area.get(target_area, []):
            self.services.send(MessageKind.BINDING_UPDATE, amrr, content)
            self.services.send(MessageKind.LRL_REQUEST, amrr,
                               rec.binding.prefix)

    def handle_lrl_request(self, msg: ControlMessage):
        key = str(msg.payload.prefix)
        rec = self._live_record(key)
        areas: tuple[int, ...] = ()
        if rec is not None:
            areas = tuple(rec.lrl.external)
            rec.lrl.external.clear()  # transferred, not duplicated
        self.services.send(MessageKind.LRL_REPLY, msg.src, msg.payload.prefix,
                           areas)

    def handle_lrl_reply(self, msg: ControlMessage):
        rec = self._live_record(str(msg.payload.prefix))
        if rec is None:
            return
        content = self._own_external_content(rec)
        for area in msg.payload.area_ids:
            rec.lrl.add_external(area, self.area)
            if area == self.area or content is None:
                continue
            for amrr in self.amrrs_by_area.get(area, []):
                self.services.send(MessageKind.BINDING_UPDATE, amrr, content)

    def _own_external_content(self, rec: AmrrRecord) -> MobilityBinding | None:
        for aler in self._live_alers():
            if aler in rec.aler_labels:
                return self._alias_binding(
                    rec, aler, UpdateMode.UNSOLICITED_DOWNSTREAM_PUSH)
        return None

    def _alias_binding(self, rec: AmrrRecord, aler: str,
                       mode: UpdateMode) -> MobilityBinding:
        """The external binding of ``rec`` through one local ALER alias."""
        return MobilityBinding(
            prefix=rec.binding.prefix, origin_next_hop=aler,
            label=rec.aler_labels[aler], area_id=self.area, update_mode=mode,
            update_type=UpdateType.EXTERNAL, lifetime_s=rec.binding.lifetime_s)

    # --------------------------------------------------------- withdrawal

    def handle_withdrawal(self, msg: ControlMessage):
        key = str(msg.payload.prefix)
        rec = self._live_record(key)
        if rec is None:
            return
        from_ler = msg.src in self.ler_clients
        if from_ler and rec.binding.origin_next_hop != msg.src:
            # the mobile already re-registered elsewhere; the old LER's
            # withdrawal must not tear down the fresh state
            self.services.emit("ignored_withdrawal", msg.src, key)
            return
        # a peer AMRR's withdrawal fans out locally and is never
        # re-forwarded; only the owner's reaches the requesting areas
        targets = rec.lrl.internal + self._live_alers()
        if from_ler:
            targets += [amrr for area in rec.lrl.external
                        for amrr in self.amrrs_by_area.get(area, [])]
        for dst in targets:  # the withdrawal's fields, passed on unchanged
            self.services.send(MessageKind.BINDING_WITHDRAWAL, dst,
                               *msg.payload)
        del self.records[key]

    # ---------------------------------------------------- high availability

    def select_aler(self, rec: AmrrRecord) -> str | None:
        """Round-robin over the live ALER aliases of a record; None if it
        has none."""
        live = [a for a in sorted(rec.aler_labels) if a not in self.failed_alers]
        if not live:
            return None
        choice = live[self.rr_counter % len(live)]
        self.rr_counter += 1
        return choice

    def handle_aler_failure(self, failed: str):
        if failed not in self.aler_clients:
            return
        self.failed_alers.add(failed)
        survivor = self.ha_twin.get(failed)
        if survivor is None:
            self.services.emit("warn/node", failed, "aler_failed_without_twin")
            return
        for peer in self.peers:
            if self.services.area_of(peer) != self.area:
                self.services.send(MessageKind.ALER_FAILOVER_BLANKET, peer,
                                   survivor, failed)

    def handle_blanket(self, msg: ControlMessage):
        survivor, failed = msg.payload.survivor, msg.payload.failed
        for key in sorted(self.records):
            rec = self.records[key]
            if rec.binding.origin_next_hop == failed:
                rec.binding = rec.binding._replace(origin_next_hop=survivor)
        for aler in self._live_alers():
            self.services.send(MessageKind.ALER_FAILOVER_BLANKET, aler,
                               survivor, failed)

    def _live_alers(self) -> list[str]:
        return [a for a in self.aler_clients if a not in self.failed_alers]

    # -------------------------------------------------------------- misc

    def expire_records(self, now: float):
        for key in [k for k, r in self.records.items() if now > r.expiry]:
            del self.records[key]

    def dump(self, graph) -> list[str]:
        return [self.records[key].dump_line(graph.name_of)
                for key in sorted(self.records)]
