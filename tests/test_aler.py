from hypothesis import given, settings
from hypothesis import strategies as st

from hmlbn.aler import AlerNode
from hmlbn.forwarding import DataPacket
from hmlbn.labels import LabelAllocator
from hmlbn.messages import (
    ControlMessage,
    MessageKind,
    MobilityBinding,
    UpdatePayload,
    UpdateType,
    WithdrawalPayload,
)

from helpers import FakeServices, prefix

MN = prefix("10.1.1.1/32")
LER12 = "20.1.1.12"
LER13 = "20.1.1.13"
ALER2 = "20.1.2.2"


def make_aler(rid="20.1.2.1", **kw):
    services = FakeServices(rid)
    node = AlerNode(rid, amrrs=["20.1.3.1"], services=services, **kw)
    return node, services


def update(binding, kind=UpdateType.INTERNAL, src="20.1.3.1"):
    b = MobilityBinding(binding.prefix, binding.origin_next_hop, binding.label,
                        binding.area_id, binding.update_mode, kind,
                        binding.lifetime_s)
    return ControlMessage(MessageKind.BINDING_UPDATE, src, "20.1.2.1", 0.0,
                          UpdatePayload(b))


def test_new_internal_binding_builds_trail_and_reoriginates():
    node, services = make_aler()
    node.allocator = LabelAllocator(start=216)
    services.trails[("20.1.2.1", LER12)] = (17, "20.1.4.100")
    entry = node.handle_internal_update(
        update(MobilityBinding(MN, LER12, 116, 1)))
    assert (entry.local_mobility_label, entry.current_mobility_label,
            entry.out_top_label, entry.next_hop) == (216, 116, 17, "20.1.4.100")
    assert entry.origin_router_id == LER12
    (msg,) = services.sent
    ext = msg.payload.binding
    assert ext.update_type is UpdateType.EXTERNAL
    assert ext.origin_next_hop == "20.1.2.1"
    assert ext.label == 216


def test_known_prefix_update_keeps_alias_and_stays_silent():
    node, services = make_aler()
    first = node.handle_internal_update(
        update(MobilityBinding(MN, LER12, 116, 1)))
    services.sent.clear()
    second = node.handle_internal_update(
        update(MobilityBinding(MN, LER13, 117, 1)))
    assert second is first
    assert second.local_mobility_label == first.local_mobility_label
    assert second.current_mobility_label == 117
    assert second.origin_router_id == LER13
    assert services.sent == []


def test_duplicate_update_is_idempotent():
    node, services = make_aler()
    node.handle_internal_update(update(MobilityBinding(MN, LER12, 116, 1)))
    services.sent.clear()
    services.events.clear()
    node.handle_internal_update(update(MobilityBinding(MN, LER12, 116, 1)))
    assert services.sent == []
    assert [k for k, _ in services.events if k == "fib_update"] == []


def test_new_external_binding_reannounces_inward():
    node, services = make_aler()
    entry = node.handle_external_update(
        update(MobilityBinding(MN, ALER2, 300, 2), kind=UpdateType.EXTERNAL))
    assert entry.current_mobility_label == 300
    (msg,) = services.sent
    internal = msg.payload.binding
    assert internal.update_type is UpdateType.INTERNAL
    assert internal.origin_next_hop == "20.1.2.1"
    assert internal.label == entry.local_mobility_label


def test_inter_area_move_updates_trail_without_reorigination():
    node, services = make_aler()
    node.handle_internal_update(update(MobilityBinding(MN, LER12, 116, 1)))
    services.sent.clear()
    entry = node.handle_external_update(
        update(MobilityBinding(MN, ALER2, 300, 2), kind=UpdateType.EXTERNAL))
    assert entry.origin_router_id == ALER2
    assert entry.current_mobility_label == 300
    assert services.sent == []


def test_transit_swap_and_push():
    node, services = make_aler()
    node.allocator = LabelAllocator(start=216)
    services.trails[("20.1.2.1", LER12)] = (17, "20.1.4.100")
    node.handle_internal_update(update(MobilityBinding(MN, LER12, 116, 1)))
    pkt = DataPacket("f0", 0, MN, 0.0)
    pkt.stack = [216]  # the engine popped the top label before delegation
    node.forward_transit(pkt)
    ((sent, _, next_hop),) = services.transmitted
    assert sent.stack == [17, 116]
    assert next_hop == "20.1.4.100"


def test_transit_unknown_alias_drops():
    node, services = make_aler()
    pkt = DataPacket("f0", 0, MN, 0.0)
    pkt.stack = [999]
    node.forward_transit(pkt)
    assert services.dropped[0][2] == "unknown_local_mobility_label"


def test_withdrawal_removes_entry():
    node, services = make_aler()
    entry = node.handle_internal_update(
        update(MobilityBinding(MN, LER12, 116, 1)))
    node.handle_withdrawal(ControlMessage(
        MessageKind.BINDING_WITHDRAWAL, "20.1.3.1", "20.1.2.1", 1.0,
        WithdrawalPayload(MN, LER12)))
    assert node.fib == {}
    assert node.by_label.get(entry.local_mobility_label) is None


def test_failover_rewrites_matching_origins_only():
    node, services = make_aler()
    services.trails[("20.1.2.1", "20.1.2.9")] = (51, "20.1.4.100")
    node.handle_external_update(
        update(MobilityBinding(MN, ALER2, 300, 2), kind=UpdateType.EXTERNAL))
    other = prefix("10.1.1.2/32")
    node.handle_external_update(
        update(MobilityBinding(other, "20.1.2.9", 333, 2),
               kind=UpdateType.EXTERNAL))
    node.apply_failover(survivor="20.1.2.9", failed=ALER2)
    assert node.fib[str(MN)].origin_router_id == "20.1.2.9"
    assert node.fib[str(other)].origin_router_id == "20.1.2.9"
    # blanket with nothing to rewrite is a no-op
    node.apply_failover(survivor="20.1.2.9", failed="20.1.2.77")


def test_expired_entry_is_replaced_with_fresh_alias():
    node, services = make_aler()
    first = node.handle_internal_update(
        update(MobilityBinding(MN, LER12, 116, 1, lifetime_s=10.0)))
    services.sent.clear()
    services.t = 20.0
    second = node.handle_internal_update(
        update(MobilityBinding(MN, LER12, 116, 1, lifetime_s=10.0)))
    assert second.local_mobility_label != first.local_mobility_label
    assert len(services.sent) == 1  # re-announced outward


@settings(max_examples=50, deadline=None)
@given(st.lists(
    st.tuples(st.integers(0, 5), st.sampled_from([LER12, LER13]),
              st.integers(16, 4000)),
    min_size=1, max_size=40))
def test_alias_uniqueness_and_stability(updates):
    node, services = make_aler()
    seen_alias: dict[str, int] = {}
    for idx, origin, label in updates:
        p = prefix(f"10.1.2.{idx}/32")
        entry = node.handle_internal_update(
            update(MobilityBinding(p, origin, label, 1)))
        if str(p) in seen_alias:
            assert entry.local_mobility_label == seen_alias[str(p)]
        seen_alias[str(p)] = entry.local_mobility_label
    aliases = [e.local_mobility_label for e in node.fib.values()]
    assert len(aliases) == len(set(aliases))
    assert set(node.by_label) == set(aliases)
