import pytest

from hmlbn.errors import NotRegistered, UnknownInterface
from hmlbn.forwarding import DataPacket
from hmlbn.ler import LerNode
from hmlbn.messages import (
    ControlMessage,
    MessageKind,
    MobilityBinding,
    NegativeReplyPayload,
    UpdatePayload,
    UpdateType,
)

from helpers import FakeServices, prefix

MN = prefix("10.1.1.1/32")
RANGES = [prefix("10.0.0.0/8")]


def make_ler(area=1, rid="20.1.1.12", amrrs=("20.1.3.1",), **kw):
    services = FakeServices(rid)
    ler = LerNode(rid, f"LER-{rid}", area, amrrs=list(amrrs),
                  interfaces=["MR12/c1", "MR12/c2"], mobility_ranges=RANGES,
                  dead_time_s=9.0, default_lifetime_s=300.0,
                  services=services, **kw)
    return ler, services


def packet(dst=MN, seq=0):
    return DataPacket("f0", seq, dst, 0.0)


# ---------------------------------------------------------- registration

def test_startup_registration_rewrites_area_zero():
    ler, services = make_ler(area=1)
    record, reply_area = ler.handle_registration(MN, "MR12/c1", 0)
    assert reply_area == 1
    assert record.assigned_label == 16
    (msg,) = services.sent
    assert msg.kind is MessageKind.BINDING_UPDATE
    binding = msg.payload.binding
    assert binding.area_id == 1
    assert binding.origin_next_hop == "20.1.1.12"
    assert binding.update_type is UpdateType.INTERNAL


def test_reregistration_allocates_fresh_label():
    ler, services = make_ler()
    first, _ = ler.handle_registration(MN, "MR12/c1", 0)
    second, _ = ler.handle_registration(MN, "MR12/c2", 1)
    assert second.assigned_label == first.assigned_label + 1
    assert ler.regs_by_label.get(first.assigned_label) is None


def test_foreign_area_hint_passes_through():
    ler, services = make_ler(area=2, rid="20.1.1.21")
    _, reply_area = ler.handle_registration(MN, "MR12/c1", 1)
    assert reply_area == 2
    assert services.sent[0].payload.binding.area_id == 1


def test_unknown_interface_rejected():
    ler, _ = make_ler()
    with pytest.raises(UnknownInterface):
        ler.handle_registration(MN, "MR99/c1", 0)


# --------------------------------------------------------- local tracking

def test_local_handoff_is_silent():
    ler, services = make_ler()
    ler.handle_registration(MN, "MR12/c1", 0)
    services.sent.clear()
    services.t = 5.0
    record = ler.track_local_handoff(MN, "MR12/c2")
    assert record.interface_id == "MR12/c2"
    assert record.last_heard == 5.0
    assert services.sent == []


def test_local_handoff_same_interface_refreshes_only():
    ler, services = make_ler()
    ler.handle_registration(MN, "MR12/c1", 0)
    services.t = 4.0
    record = ler.track_local_handoff(MN, "MR12/c1")
    assert record.interface_id == "MR12/c1"
    assert record.last_heard == 4.0


def test_local_handoff_requires_registration():
    ler, _ = make_ler()
    with pytest.raises(NotRegistered):
        ler.track_local_handoff(MN, "MR12/c1")


# ------------------------------------------------------------- dead scan

def test_silent_registration_withdrawn_after_dead_time():
    ler, services = make_ler()
    ler.handle_registration(MN, "MR12/c1", 0)
    services.sent.clear()
    ler.scan_dead_registrations(10.0)  # 10 > D = 9
    (msg,) = services.sent
    assert msg.kind is MessageKind.BINDING_WITHDRAWAL
    assert msg.payload.origin_next_hop == "20.1.1.12"
    assert MN.__str__() not in ler.registrations


def test_keepalive_before_dead_time_prevents_withdrawal():
    ler, services = make_ler()
    ler.handle_registration(MN, "MR12/c1", 0)
    ler.keepalive(MN, 8.0)
    services.sent.clear()
    ler.scan_dead_registrations(10.0)
    assert services.sent == []
    assert str(MN) in ler.registrations


# ----------------------------------------------------------- ingress path

def binding_for(label=216, origin="20.1.2.1"):
    return MobilityBinding(MN, origin, label, 1)


def test_ingress_cache_hit_imposes_two_label_stack():
    ler, services = make_ler()
    services.trails[("20.1.1.12", "20.1.2.1")] = (41, "20.1.4.100")
    ler._cache_store(binding_for(label=216))
    pkt = packet()
    ler.ingress_forward(pkt)
    ((sent, _, next_hop),) = services.transmitted
    assert next_hop == "20.1.4.100"
    assert sent.stack == [41, 216]


def test_ingress_miss_requests_and_queues():
    ler, services = make_ler()
    pkt = packet()
    ler.ingress_forward(pkt)
    (msg,) = services.sent
    assert msg.kind is MessageKind.BINDING_REQUEST
    assert msg.payload.requestor_area == 1
    assert len(ler.pending[str(MN)].queue) == 1
    # second packet queues without a second request
    ler.ingress_forward(packet(seq=1))
    assert len(services.sent) == 1
    assert len(ler.pending[str(MN)].queue) == 2


def test_queue_overflow_drops_at_bound():
    ler, services = make_ler()
    for seq in range(65):
        ler.ingress_forward(packet(seq=seq))
    assert len(ler.pending[str(MN)].queue) == 64
    ((_, _, reason),) = services.dropped
    assert reason == "queue_overflow"


def test_positive_reply_flushes_fifo():
    ler, services = make_ler()
    services.trails[("20.1.1.12", "20.1.2.1")] = (41, "20.1.4.100")
    for seq in range(3):
        ler.ingress_forward(packet(seq=seq))
    reply = ControlMessage(MessageKind.BINDING_REPLY_POSITIVE, "20.1.3.1",
                           "20.1.1.12", 1.0, UpdatePayload(binding_for()))
    ler.handle_binding_reply(reply)
    assert [pkt.seq for pkt, _, _ in services.transmitted] == [0, 1, 2]
    assert str(MN) not in ler.pending


def test_all_negative_replies_drop_queue():
    ler, services = make_ler(amrrs=("20.1.3.1", "20.1.3.9"))
    ler.ingress_forward(packet())
    for amrr in ("20.1.3.1", "20.1.3.9"):
        ler.handle_binding_reply(ControlMessage(
            MessageKind.BINDING_REPLY_NEGATIVE, amrr, "20.1.1.12", 1.0,
            NegativeReplyPayload(MN)))
    assert [r for _, _, r in services.dropped] == ["no_binding"]
    assert str(MN) not in ler.pending


def test_unsolicited_reply_cached_silently():
    ler, services = make_ler()
    reply = ControlMessage(MessageKind.BINDING_REPLY_POSITIVE, "20.1.3.1",
                           "20.1.1.12", 1.0, UpdatePayload(binding_for()))
    ler.handle_binding_reply(reply)
    assert str(MN) in ler.binding_cache


def test_out_of_range_destination_not_labeled():
    """Every packet to it drops, not only the one that filled the coverage
    memo; a covered destination still goes through."""
    ler, services = make_ler()
    outside = prefix("11.1.1.1/32")
    for seq in range(3):
        ler.ingress_forward(packet(dst=outside, seq=seq))
    ler.ingress_forward(packet(seq=3))
    assert [(p.seq, reason) for p, _, reason in services.dropped] \
        == [(0, "non_mobile"), (1, "non_mobile"), (2, "non_mobile")]
    assert ler.covered == {outside: False, MN: True}
    assert MN in {m.payload.prefix for m in services.sent}


def test_locally_registered_destination_short_circuits():
    ler, services = make_ler()
    ler.handle_registration(MN, "MR12/c1", 0)
    ler.ingress_forward(packet())
    assert len(services.delivered) == 1
    assert services.transmitted == []


# ------------------------------------------------------------ egress path

def test_egress_matches_registration_by_label():
    ler, services = make_ler()
    record, _ = ler.handle_registration(MN, "MR12/c1", 0)
    pkt = packet()
    pkt.stack = [record.assigned_label]
    ler.egress_deliver(pkt)
    ((_, delivered_record),) = services.delivered
    assert delivered_record is record


def test_egress_unknown_label_drops():
    ler, services = make_ler()
    pkt = packet()
    pkt.stack = [999]
    ler.egress_deliver(pkt)
    assert services.dropped[0][2] == "unknown_mobility_label"


def test_withdrawal_reflect_clears_cache():
    ler, services = make_ler()
    ler._cache_store(binding_for())
    from hmlbn.messages import WithdrawalPayload
    ler.handle_withdrawal_reflect(ControlMessage(
        MessageKind.BINDING_WITHDRAWAL, "20.1.3.1", "20.1.1.12", 1.0,
        WithdrawalPayload(MN, "20.1.1.13")))
    assert ler.binding_cache == {}


def test_cache_expires_by_lifetime():
    ler, services = make_ler()
    ler._cache_store(binding_for())
    services.t = 301.0
    assert ler._cache_lookup(str(MN)) is None
