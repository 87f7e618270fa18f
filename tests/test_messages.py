import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hmlbn.errors import DecodeError
from hmlbn.messages import (
    ControlMessage,
    FailoverBlanketPayload,
    LastRequestorList,
    LrlReplyPayload,
    LrlRequestPayload,
    MessageKind,
    MobilePrefix,
    MobilityBinding,
    NegativeReplyPayload,
    RequestPayload,
    UpdateMode,
    UpdatePayload,
    UpdateType,
    WithdrawalPayload,
    canonical_decode,
    canonical_encode,
    make_withdrawal,
)

# ------------------------------------------------------------- strategies

rids = st.from_regex(r"20\.[0-9]{1,2}\.[0-9]{1,2}\.[0-9]{1,3}", fullmatch=True)
v4_prefixes = st.builds(
    lambda a, plen: MobilePrefix(4, bytes(a), plen),
    st.lists(st.integers(0, 255), min_size=4, max_size=4),
    st.integers(0, 32),
)
v6_prefixes = st.builds(
    lambda a, plen: MobilePrefix(6, bytes(a), plen),
    st.lists(st.integers(0, 255), min_size=16, max_size=16),
    st.integers(0, 128),
)
prefixes = st.one_of(v4_prefixes, v6_prefixes)

bindings = st.builds(
    MobilityBinding,
    prefix=prefixes,
    origin_next_hop=rids,
    label=st.integers(16, (1 << 20) - 1),
    area_id=st.integers(0, 50),
    update_mode=st.sampled_from(list(UpdateMode)),
    update_type=st.sampled_from(list(UpdateType)),
    lifetime_s=st.floats(min_value=0.5, max_value=1e6, allow_nan=False),
)

payload_by_kind = {
    MessageKind.BINDING_UPDATE: st.builds(UpdatePayload, bindings),
    MessageKind.BINDING_REPLY_POSITIVE: st.builds(UpdatePayload, bindings),
    MessageKind.BINDING_WITHDRAWAL: st.builds(WithdrawalPayload, prefixes, rids),
    MessageKind.BINDING_REQUEST: st.builds(RequestPayload, prefixes,
                                           st.integers(0, 50)),
    MessageKind.BINDING_REPLY_NEGATIVE: st.builds(NegativeReplyPayload, prefixes),
    MessageKind.LRL_REQUEST: st.builds(LrlRequestPayload, prefixes),
    MessageKind.LRL_REPLY: st.builds(
        LrlReplyPayload, prefixes,
        st.lists(st.integers(0, 50), max_size=6).map(tuple)),
    MessageKind.ALER_FAILOVER_BLANKET: st.builds(FailoverBlanketPayload,
                                                 rids, rids),
}


@st.composite
def messages(draw):
    kind = draw(st.sampled_from(list(MessageKind)))
    return ControlMessage(
        kind=kind,
        src=draw(rids),
        dst=draw(rids),
        send_time=draw(st.floats(min_value=0, max_value=1e6, allow_nan=False)),
        payload=draw(payload_by_kind[kind]),
    )


# ------------------------------------------------------------- round trip

@settings(max_examples=300)
@given(messages())
def test_roundtrip_identity(msg):
    assert canonical_decode(canonical_encode(msg)) == msg


@given(messages())
def test_equal_messages_encode_identically(msg):
    twin = ControlMessage(msg.kind, msg.src, msg.dst, msg.send_time, msg.payload)
    assert canonical_encode(msg) == canonical_encode(twin)


@settings(max_examples=150)
@given(messages(), st.data())
def test_truncation_never_yields_partial_message(msg, data):
    raw = canonical_encode(msg)
    cut = data.draw(st.integers(min_value=0, max_value=len(raw) - 1))
    with pytest.raises(DecodeError):
        canonical_decode(raw[:cut])


def test_every_truncation_point_fails_for_one_message():
    binding = MobilityBinding(MobilePrefix.parse("10.1.1.1/32"), "20.1.1.12",
                              116, 1)
    msg = ControlMessage(MessageKind.BINDING_UPDATE, "20.1.1.12", "20.1.3.1",
                         1.5, UpdatePayload(binding))
    raw = canonical_encode(msg)
    for cut in range(len(raw)):
        with pytest.raises(DecodeError):
            canonical_decode(raw[:cut])


def test_bad_magic_rejected():
    with pytest.raises(DecodeError):
        canonical_decode(b"\x00\x01")


def test_unknown_update_type_rejected():
    binding = MobilityBinding(MobilePrefix.parse("10.1.1.1/32"), "20.1.1.12",
                              116, 1)
    raw = bytearray(canonical_encode(ControlMessage(
        MessageKind.BINDING_UPDATE, "20.1.1.12", "20.1.3.1", 1.5,
        UpdatePayload(binding))))
    # the update-type byte sits just before the 8-byte lifetime
    assert raw[-9] == UpdateType.INTERNAL
    raw[-9] = 3
    with pytest.raises(DecodeError):
        canonical_decode(bytes(raw))


# ------------------------------------------------------------- withdrawal

def test_withdrawal_carries_prefix_and_origin():
    binding = MobilityBinding(MobilePrefix.parse("10.1.1.1/32"), "20.1.1.12",
                              116, 1)
    msg = make_withdrawal(binding)
    assert msg.kind is MessageKind.BINDING_WITHDRAWAL
    assert str(msg.payload.prefix) == "10.1.1.1/32"
    assert msg.payload.origin_next_hop == "20.1.1.12"


def test_withdrawal_of_v6_host_binding():
    binding = MobilityBinding(MobilePrefix.parse("2001:db8::7/128"),
                              "20.1.1.12", 200, 2)
    msg = make_withdrawal(binding, src="20.1.1.12", dst="20.1.3.1",
                          send_time=4.0)
    assert msg.payload.prefix.family == 6
    assert msg.payload.prefix.prefix_len == 128
    assert canonical_decode(canonical_encode(msg)) == msg


# ----------------------------------------------------------------- prefix

def test_prefix_parse_and_render():
    p = MobilePrefix.parse("10.1.1.1/32")
    assert (p.family, p.prefix_len) == (4, 32)
    assert str(p) == "10.1.1.1/32"


def test_prefix_range_membership():
    ranges = [MobilePrefix.parse("10.0.0.0/8")]
    assert MobilePrefix.parse("10.9.9.9/32").covered_by(ranges)
    assert not MobilePrefix.parse("11.0.0.1/32").covered_by(ranges)
    assert not MobilePrefix.parse("2001:db8::1/128").covered_by(ranges)


def test_prefix_validation():
    with pytest.raises(ValueError):
        MobilePrefix(4, b"\x01\x02\x03", 32)
    with pytest.raises(ValueError):
        MobilePrefix(4, b"\x01\x02\x03\x04", 40)
    with pytest.raises(ValueError):
        MobilePrefix(5, b"\x01\x02\x03\x04", 8)


# ------------------------------------------------------------------- LRLs

def test_lrl_deduplicates_and_excludes_own_area():
    lrl = LastRequestorList()
    lrl.add_external(3, own_area=1)
    lrl.add_external(3, own_area=1)
    lrl.add_external(1, own_area=1)
    lrl.add_external(4, own_area=1)
    assert lrl.external == [3, 4]
    lrl.add_internal("20.1.1.33")
    lrl.add_internal("20.1.1.33")
    assert lrl.internal == ["20.1.1.33"]
