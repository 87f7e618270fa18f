import pytest

from hmlbn.amrr import AmrrNode
from hmlbn.messages import (
    ControlMessage,
    LrlReplyPayload,
    LrlRequestPayload,
    MessageKind,
    MobilityBinding,
    NegativeReplyPayload,
    RequestPayload,
    UpdatePayload,
    UpdateType,
    WithdrawalPayload,
)

from helpers import FakeServices, prefix

MN = prefix("10.1.1.1/32")

LER12, LER13, LER33 = "20.1.1.12", "20.1.1.13", "20.1.1.33"
ALER1, ALER2, ALER3 = "20.1.2.1", "20.1.2.2", "20.1.2.3"
AMRR1, AMRR2, AMRR3, AMRR4 = "20.1.3.1", "20.1.3.2", "20.1.3.3", "20.1.3.4"


def make_amrr(area=1, rid=AMRR1, n_areas=3, alers=None, ha_twin=None, **kw):
    all_amrrs = {1: [AMRR1], 2: [AMRR2], 3: [AMRR3], 4: [AMRR4]}
    amrrs_by_area = {a: v for a, v in all_amrrs.items() if a <= n_areas}
    services = FakeServices(rid)
    services.areas = {AMRR1: 1, AMRR2: 2, AMRR3: 3, AMRR4: 4}
    node = AmrrNode(rid, area,
                    ler_clients=[LER12, LER13],
                    aler_clients=alers or [ALER1],
                    amrrs_by_area=amrrs_by_area,
                    ha_twin=ha_twin or {}, services=services, **kw)
    return node, services


def ler_update(binding, src=LER12):
    return ControlMessage(MessageKind.BINDING_UPDATE, src, AMRR1, 0.0,
                          UpdatePayload(binding))


def aler_update(binding, src=ALER1, utype=UpdateType.EXTERNAL):
    b = MobilityBinding(binding.prefix, binding.origin_next_hop, binding.label,
                        binding.area_id, binding.update_mode, utype,
                        binding.lifetime_s)
    return ControlMessage(MessageKind.BINDING_UPDATE, src, AMRR1, 0.0,
                          UpdatePayload(b))


def sent_kinds(services):
    return [(m.kind, m.dst) for m in services.sent]


# ------------------------------------------------------- internal updates

def test_own_area_update_reflects_to_aler_only():
    node, services = make_amrr()
    node.handle_update(ler_update(MobilityBinding(MN, LER12, 116, 1)))
    assert sent_kinds(services) == [(MessageKind.BINDING_UPDATE, ALER1)]
    rec = node.records[str(MN)]
    assert rec.area_id == 1
    assert rec.lrl.external == [] and rec.lrl.internal == []


def test_foreign_area_update_defers_exchange_until_alias_known():
    node, services = make_amrr(area=2, rid=AMRR2)
    node.handle_update(ControlMessage(
        MessageKind.BINDING_UPDATE, LER12, AMRR2, 0.0,
        UpdatePayload(MobilityBinding(MN, LER12, 116, 1))))
    # reflected inward with the area rewritten; no peer messages yet
    assert sent_kinds(services) == [(MessageKind.BINDING_UPDATE, ALER1)]
    assert services.sent[0].payload.binding.area_id == 2
    rec = node.records[str(MN)]
    assert rec.area_id == 2 and rec.pending_lrl_target == 1
    services.sent.clear()
    node.handle_update(ControlMessage(
        MessageKind.BINDING_UPDATE, ALER1, AMRR2, 0.0,
        UpdatePayload(MobilityBinding(MN, ALER1, 500, 2,
                                      update_type=UpdateType.EXTERNAL))))
    kinds = sent_kinds(services)
    assert (MessageKind.BINDING_UPDATE, AMRR1) in kinds
    assert (MessageKind.LRL_REQUEST, AMRR1) in kinds
    update_msg = next(m for m in services.sent
                      if m.kind is MessageKind.BINDING_UPDATE
                      and m.dst == AMRR1)
    assert update_msg.payload.binding.label == 500
    assert update_msg.payload.binding.origin_next_hop == ALER1
    assert rec.pending_lrl_target is None


def test_foreign_area_update_with_known_alias_fires_immediately():
    node, services = make_amrr(area=2, rid=AMRR2)
    node.handle_update(ler_update(MobilityBinding(MN, LER12, 116, 2)))
    node.handle_update(aler_update(MobilityBinding(MN, ALER1, 500, 2)))
    services.sent.clear()
    node.handle_update(ler_update(MobilityBinding(MN, LER13, 117, 1), src=LER13))
    kinds = sent_kinds(services)
    assert (MessageKind.LRL_REQUEST, AMRR1) in kinds


def test_unknown_peer_area_skips_exchange_with_warning():
    node, services = make_amrr()
    node.handle_update(ler_update(MobilityBinding(MN, LER12, 116, 9)))
    assert sent_kinds(services) == [(MessageKind.BINDING_UPDATE, ALER1)]
    assert any(d.get("what") == "unknown_peer_area"
               for k, d in services.events if k == "warn")
    assert node.records[str(MN)].area_id == 1


def test_reflect_to_previous_serving_ler_when_enabled():
    node, services = make_amrr(reflect_to_previous=True)
    node.handle_update(ler_update(MobilityBinding(MN, LER12, 116, 1)))
    services.sent.clear()
    node.handle_update(ler_update(MobilityBinding(MN, LER13, 117, 1),
                                  src=LER13))
    assert (MessageKind.BINDING_UPDATE, LER12) in sent_kinds(services)


# ------------------------------------------------------- external updates

def test_alias_merge_from_aler():
    node, services = make_amrr()
    node.handle_update(ler_update(MobilityBinding(MN, LER12, 116, 1)))
    node.handle_update(aler_update(MobilityBinding(MN, ALER1, 216, 1)))
    rec = node.records[str(MN)]
    assert rec.aler_labels == {ALER1: 216}


def test_second_aler_alias_grows_list():
    node, services = make_amrr(alers=[ALER1, "20.1.2.11"])
    node.handle_update(ler_update(MobilityBinding(MN, LER12, 116, 1)))
    node.handle_update(aler_update(MobilityBinding(MN, ALER1, 216, 1)))
    node.handle_update(aler_update(MobilityBinding(MN, "20.1.2.11", 216, 1),
                                   src="20.1.2.11"))
    assert len(node.records[str(MN)].aler_labels) == 2


def test_alias_repeat_is_idempotent():
    node, services = make_amrr()
    node.handle_update(ler_update(MobilityBinding(MN, LER12, 116, 1)))
    node.handle_update(aler_update(MobilityBinding(MN, ALER1, 216, 1)))
    before = dict(node.records[str(MN)].aler_labels)
    node.handle_update(aler_update(MobilityBinding(MN, ALER1, 216, 1)))
    assert node.records[str(MN)].aler_labels == before


def test_alias_before_record_creates_provisional():
    node, services = make_amrr()
    node.handle_update(aler_update(MobilityBinding(MN, ALER1, 216, 1)))
    assert str(MN) in node.records
    assert any(d.get("what") == "external_before_internal"
               for k, d in services.events if k == "warn")


# ------------------------------------------------------------- requests

def _owned_record(node, services):
    node.handle_update(ler_update(MobilityBinding(MN, LER12, 116, 1)))
    node.handle_update(aler_update(MobilityBinding(MN, ALER1, 216, 1)))
    services.sent.clear()


def test_external_request_on_owned_record_is_positive_and_remembered():
    node, services = make_amrr()
    _owned_record(node, services)
    node.handle_request(ControlMessage(
        MessageKind.BINDING_REQUEST, AMRR3, AMRR1, 0.0, RequestPayload(MN, 3)))
    (reply,) = services.sent
    assert reply.kind is MessageKind.BINDING_REPLY_POSITIVE
    binding = reply.payload.binding
    assert binding.origin_next_hop == ALER1 and binding.label == 216
    assert node.records[str(MN)].lrl.external == [3]


def test_external_request_on_foreign_record_is_negative():
    node, services = make_amrr()
    _owned_record(node, services)
    node.records[str(MN)].area_id = 2  # the mobile moved away
    node.handle_request(ControlMessage(
        MessageKind.BINDING_REQUEST, AMRR3, AMRR1, 0.0, RequestPayload(MN, 3)))
    (reply,) = services.sent
    assert reply.kind is MessageKind.BINDING_REPLY_NEGATIVE


def test_external_request_unknown_prefix_is_negative():
    node, services = make_amrr()
    node.handle_request(ControlMessage(
        MessageKind.BINDING_REQUEST, AMRR3, AMRR1, 0.0, RequestPayload(MN, 3)))
    (reply,) = services.sent
    assert reply.kind is MessageKind.BINDING_REPLY_NEGATIVE


def _only_alias_failed(node):
    node.handle_aler_failure(ALER1)


def _no_alias(node):
    node.records[str(MN)].aler_labels.clear()


@pytest.mark.parametrize("unaliased", [_only_alias_failed, _no_alias],
                         ids=["only_alias_failed", "no_alias"])
def test_external_request_on_owned_record_without_live_alias_is_negative(
        unaliased):
    """An owned record is answered only through a live ALER alias, so
    without one the peer is refused, and nothing is remembered or picked."""
    node, services = make_amrr()
    _owned_record(node, services)
    unaliased(node)
    services.sent.clear()
    node.handle_request(ControlMessage(
        MessageKind.BINDING_REQUEST, AMRR3, AMRR1, 0.0, RequestPayload(MN, 3)))
    (reply,) = services.sent
    assert reply.kind is MessageKind.BINDING_REPLY_NEGATIVE
    assert reply.dst == AMRR3 and reply.payload.prefix == MN
    assert node.records[str(MN)].lrl.external == []
    assert node.rr_counter == 0


def test_internal_request_on_owned_record_returns_origin_ler():
    node, services = make_amrr()
    _owned_record(node, services)
    node.handle_request(ControlMessage(
        MessageKind.BINDING_REQUEST, LER13, AMRR1, 0.0, RequestPayload(MN, 1)))
    (reply,) = services.sent
    assert reply.dst == LER13
    assert reply.payload.binding.origin_next_hop == LER12
    assert node.records[str(MN)].lrl.internal == [LER13]


def test_internal_request_unknown_prefix_floods_peers():
    node, services = make_amrr()
    node.handle_request(ControlMessage(
        MessageKind.BINDING_REQUEST, LER13, AMRR1, 0.0, RequestPayload(MN, 1)))
    assert sent_kinds(services) == [
        (MessageKind.BINDING_REQUEST, AMRR2),
        (MessageKind.BINDING_REQUEST, AMRR3),
    ]


def test_all_negative_aggregation_fails_the_ler():
    node, services = make_amrr()
    node.handle_request(ControlMessage(
        MessageKind.BINDING_REQUEST, LER13, AMRR1, 0.0, RequestPayload(MN, 1)))
    services.sent.clear()
    for peer in (AMRR2, AMRR3):
        node.handle_reply(ControlMessage(
            MessageKind.BINDING_REPLY_NEGATIVE, peer, AMRR1, 0.0,
            NegativeReplyPayload(MN)))
    (reply,) = services.sent
    assert reply.kind is MessageKind.BINDING_REPLY_NEGATIVE
    assert reply.dst == LER13


def test_positive_reply_resolves_through_the_aler():
    node, services = make_amrr()
    node.handle_request(ControlMessage(
        MessageKind.BINDING_REQUEST, LER13, AMRR1, 0.0, RequestPayload(MN, 1)))
    services.sent.clear()
    node.handle_reply(ControlMessage(
        MessageKind.BINDING_REPLY_POSITIVE, AMRR2, AMRR1, 0.0,
        UpdatePayload(MobilityBinding(MN, ALER2, 555, 2,
                                      update_type=UpdateType.EXTERNAL))))
    # pushed down, not answered yet
    assert sent_kinds(services) == [(MessageKind.BINDING_UPDATE, ALER1)]
    services.sent.clear()
    node.handle_update(ControlMessage(
        MessageKind.BINDING_UPDATE, ALER1, AMRR1, 0.0,
        UpdatePayload(MobilityBinding(MN, ALER1, 333, 2,
                                      update_type=UpdateType.INTERNAL))))
    (reply,) = services.sent
    assert reply.kind is MessageKind.BINDING_REPLY_POSITIVE
    assert reply.dst == LER13
    assert reply.payload.binding.origin_next_hop == ALER1
    assert node.records[str(MN)].lrl.internal == [LER13]


def test_late_duplicate_positive_is_ignored():
    node, services = make_amrr()
    node.handle_request(ControlMessage(
        MessageKind.BINDING_REQUEST, LER13, AMRR1, 0.0, RequestPayload(MN, 1)))
    services.sent.clear()
    binding = MobilityBinding(MN, ALER2, 555, 2,
                              update_type=UpdateType.EXTERNAL)
    node.handle_reply(ControlMessage(MessageKind.BINDING_REPLY_POSITIVE,
                                     AMRR2, AMRR1, 0.0, UpdatePayload(binding)))
    n_after_first = len(services.sent)
    node.handle_reply(ControlMessage(MessageKind.BINDING_REPLY_POSITIVE,
                                     AMRR3, AMRR1, 0.0, UpdatePayload(binding)))
    assert len(services.sent) == n_after_first


# --------------------------------------------------------- LRL exchange

def test_lrl_request_transfers_and_clears():
    node, services = make_amrr()
    _owned_record(node, services)
    node.records[str(MN)].lrl.add_external(3, own_area=1)
    node.handle_lrl_request(ControlMessage(
        MessageKind.LRL_REQUEST, AMRR2, AMRR1, 0.0, LrlRequestPayload(MN)))
    (reply,) = services.sent
    assert reply.kind is MessageKind.LRL_REPLY
    assert reply.payload.area_ids == (3,)
    assert node.records[str(MN)].lrl.external == []


def test_lrl_request_unknown_prefix_returns_empty():
    node, services = make_amrr()
    node.handle_lrl_request(ControlMessage(
        MessageKind.LRL_REQUEST, AMRR2, AMRR1, 0.0, LrlRequestPayload(MN)))
    (reply,) = services.sent
    assert reply.payload.area_ids == ()


def test_lrl_reply_drives_updates_to_listed_areas_only():
    node, services = make_amrr(n_areas=4)
    _owned_record(node, services)
    node.handle_lrl_reply(ControlMessage(
        MessageKind.LRL_REPLY, AMRR2, AMRR1, 0.0, LrlReplyPayload(MN, (3, 4))))
    assert sent_kinds(services) == [
        (MessageKind.BINDING_UPDATE, AMRR3),
        (MessageKind.BINDING_UPDATE, AMRR4),
    ]
    for msg in services.sent:
        assert msg.payload.binding.origin_next_hop == ALER1
        assert msg.payload.binding.label == 216


def test_empty_lrl_reply_is_quiet():
    node, services = make_amrr()
    _owned_record(node, services)
    node.handle_lrl_reply(ControlMessage(
        MessageKind.LRL_REPLY, AMRR2, AMRR1, 0.0, LrlReplyPayload(MN, ())))
    assert services.sent == []


# ----------------------------------------------------------- withdrawal

def _record_with_lrls(node, services):
    _owned_record(node, services)
    rec = node.records[str(MN)]
    rec.lrl.add_external(3, own_area=1)
    rec.lrl.add_internal(LER33)
    return rec


def test_matching_withdrawal_fans_out_and_deletes():
    node, services = make_amrr()
    _record_with_lrls(node, services)
    node.handle_withdrawal(ControlMessage(
        MessageKind.BINDING_WITHDRAWAL, LER12, AMRR1, 0.0,
        WithdrawalPayload(MN, LER12)))
    assert sent_kinds(services) == [
        (MessageKind.BINDING_WITHDRAWAL, LER33),
        (MessageKind.BINDING_WITHDRAWAL, ALER1),
        (MessageKind.BINDING_WITHDRAWAL, AMRR3),
    ]
    assert node.records == {}


def test_withdrawal_from_superseded_ler_is_ignored():
    node, services = make_amrr()
    _record_with_lrls(node, services)
    node.handle_withdrawal(ControlMessage(
        MessageKind.BINDING_WITHDRAWAL, LER13, AMRR1, 0.0,
        WithdrawalPayload(MN, LER13)))
    assert services.sent == []
    assert str(MN) in node.records
    assert any(k == "ignored_withdrawal" for k, _ in services.events)


def test_peer_withdrawal_reflects_locally_and_stops():
    node, services = make_amrr()
    _record_with_lrls(node, services)
    node.handle_withdrawal(ControlMessage(
        MessageKind.BINDING_WITHDRAWAL, AMRR2, AMRR1, 0.0,
        WithdrawalPayload(MN, ALER2)))
    dsts = [dst for _, dst in sent_kinds(services)]
    assert LER33 in dsts and ALER1 in dsts
    assert AMRR3 not in dsts  # never re-forwarded between areas
    assert node.records == {}


def test_unknown_prefix_withdrawal_is_noop():
    node, services = make_amrr()
    node.handle_withdrawal(ControlMessage(
        MessageKind.BINDING_WITHDRAWAL, LER12, AMRR1, 0.0,
        WithdrawalPayload(MN, LER12)))
    assert services.sent == []


# ------------------------------------------------- selection and failover

def test_round_robin_selection_cycles():
    node, services = make_amrr(alers=[ALER1, "20.1.2.11"])
    node.handle_update(ler_update(MobilityBinding(MN, LER12, 116, 1)))
    node.handle_update(aler_update(MobilityBinding(MN, ALER1, 216, 1)))
    node.handle_update(aler_update(MobilityBinding(MN, "20.1.2.11", 216, 1),
                                   src="20.1.2.11"))
    rec = node.records[str(MN)]
    picks = [node.select_aler(rec) for _ in range(3)]
    assert picks == [ALER1, "20.1.2.11", ALER1]


def test_single_aler_always_selected():
    node, services = make_amrr()
    _owned_record(node, services)
    rec = node.records[str(MN)]
    assert {node.select_aler(rec) for _ in range(4)} == {ALER1}


def test_failed_aler_excluded_from_selection():
    node, services = make_amrr(alers=[ALER1, "20.1.2.11"],
                               ha_twin={ALER1: "20.1.2.11",
                                        "20.1.2.11": ALER1})
    node.handle_update(ler_update(MobilityBinding(MN, LER12, 116, 1)))
    node.handle_update(aler_update(MobilityBinding(MN, ALER1, 216, 1)))
    node.handle_update(aler_update(MobilityBinding(MN, "20.1.2.11", 216, 1),
                                   src="20.1.2.11"))
    node.handle_aler_failure("20.1.2.11")
    rec = node.records[str(MN)]
    assert {node.select_aler(rec) for _ in range(4)} == {ALER1}


def test_no_live_aler_selects_none():
    node, services = make_amrr(ha_twin={ALER1: "20.1.2.11"})
    _owned_record(node, services)
    node.failed_alers.add(ALER1)
    assert node.select_aler(node.records[str(MN)]) is None
    assert node.rr_counter == 0


def test_aler_failure_blankets_other_area_peers():
    node, services = make_amrr(alers=[ALER1, "20.1.2.11"],
                               ha_twin={ALER1: "20.1.2.11",
                                        "20.1.2.11": ALER1})
    node.handle_aler_failure(ALER1)
    assert sent_kinds(services) == [
        (MessageKind.ALER_FAILOVER_BLANKET, AMRR2),
        (MessageKind.ALER_FAILOVER_BLANKET, AMRR3),
    ]
    assert all(m.payload.survivor == "20.1.2.11" for m in services.sent)


def test_blanket_rewrites_store_and_reaches_alers():
    node, services = make_amrr(rid=AMRR3, area=3, alers=[ALER3])
    node.handle_update(ControlMessage(
        MessageKind.BINDING_UPDATE, AMRR1, AMRR3, 0.0,
        UpdatePayload(MobilityBinding(MN, ALER1, 216, 1,
                                      update_type=UpdateType.EXTERNAL))))
    services.sent.clear()
    from hmlbn.messages import FailoverBlanketPayload
    node.handle_blanket(ControlMessage(
        MessageKind.ALER_FAILOVER_BLANKET, AMRR1, AMRR3, 0.0,
        FailoverBlanketPayload("20.1.2.11", ALER1)))
    assert node.records[str(MN)].binding.origin_next_hop == "20.1.2.11"
    assert sent_kinds(services) == [(MessageKind.ALER_FAILOVER_BLANKET, ALER3)]


# --------------------------------------------------------------- expiry

def test_expiry_is_silent():
    node, services = make_amrr()
    _owned_record(node, services)
    node.records[str(MN)].expiry = 10.0
    node.expire_records(11.0)
    assert node.records == {}
    assert services.sent == []


def test_fresh_update_extends_expiry():
    node, services = make_amrr()
    node.handle_update(ler_update(MobilityBinding(MN, LER12, 116, 1,
                                                  lifetime_s=100.0)))
    first = node.records[str(MN)].expiry
    services.t = 50.0
    node.handle_update(ler_update(MobilityBinding(MN, LER12, 117, 1,
                                                  lifetime_s=100.0)))
    assert node.records[str(MN)].expiry == 150.0 > first


# ------------------------------------------- state past its lifetime

def _dead_record(node, services):
    """The owned record, with ALER1's alias 216 and external requestor
    area 3, living to t=10; the clock at t=20, before any sweep."""
    _owned_record(node, services)
    rec = node.records[str(MN)]
    rec.lrl.add_external(3, own_area=1)
    rec.expiry = 10.0
    services.t = 20.0


def test_peer_update_after_expiry_starts_a_fresh_record():
    node, services = make_amrr()
    _dead_record(node, services)
    node.handle_update(ControlMessage(
        MessageKind.BINDING_UPDATE, AMRR2, AMRR1, 20.0,
        UpdatePayload(MobilityBinding(MN, ALER2, 555, 2,
                                      update_type=UpdateType.EXTERNAL))))
    rec = node.records[str(MN)]
    assert (rec.area_id, rec.binding.label, rec.expiry) == (2, 555, 320.0)
    assert rec.aler_labels == {} and rec.lrl.external == []


def test_alias_after_expiry_is_warned_of_and_starts_a_fresh_record():
    node, services = make_amrr()
    _dead_record(node, services)
    node.handle_update(aler_update(MobilityBinding(MN, ALER1, 217, 1)))
    rec = node.records[str(MN)]
    assert rec.aler_labels == {ALER1: 217} and rec.lrl.external == []
    assert [d["what"] for k, d in services.events if k == "warn"] \
        == ["external_before_internal"]


def test_lrl_reply_after_expiry_is_quiet():
    node, services = make_amrr(n_areas=4)
    _dead_record(node, services)
    node.handle_lrl_reply(ControlMessage(
        MessageKind.LRL_REPLY, AMRR2, AMRR1, 20.0, LrlReplyPayload(MN, (4,))))
    assert services.sent == []
    assert node.records == {}


def test_internal_reannounce_replaces_the_alers_alias():
    """An ALER whose entry for a foreign mobile expired re-announces it
    under a new alias; the record keeps the new one, and the requestor-list
    exchange hands it out, not the dead one."""
    node, services = make_amrr(n_areas=4)
    node.handle_update(ControlMessage(
        MessageKind.BINDING_UPDATE, AMRR2, AMRR1, 0.0,
        UpdatePayload(MobilityBinding(MN, ALER2, 555, 2,
                                      update_type=UpdateType.EXTERNAL))))
    for label in (216, 217):
        node.handle_update(aler_update(MobilityBinding(MN, ALER1, label, 1),
                                       utype=UpdateType.INTERNAL))
    rec = node.records[str(MN)]
    assert rec.resolved_local.label == 217
    assert rec.aler_labels == {ALER1: 217}
    services.sent.clear()
    node.handle_lrl_reply(ControlMessage(
        MessageKind.LRL_REPLY, AMRR2, AMRR1, 0.0, LrlReplyPayload(MN, (4,))))
    (msg,) = services.sent
    assert (msg.dst, msg.payload.binding.label) == (AMRR4, 217)
