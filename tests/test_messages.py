import ipaddress
import struct

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hmlbn import messages as messages_module
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
    control_message,
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
    decoded = canonical_decode(canonical_encode(msg))
    assert decoded == msg
    # equality ignores the class, so the classes are checked too
    assert type(decoded) is ControlMessage
    assert type(decoded.payload) is type(msg.payload)
    if type(msg.payload) is UpdatePayload:
        assert type(decoded.payload.binding) is MobilityBinding


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


# ------------------------------------------------------------ value types

_P = MobilePrefix.parse("10.1.1.1/32")
_B = MobilityBinding(_P, "20.1.1.12", 116, 1)
# one value of every NamedTuple class the control plane sends
VALUES = [
    _B,
    UpdatePayload(_B),
    WithdrawalPayload(_P, "20.1.1.12"),
    RequestPayload(_P, 2),
    NegativeReplyPayload(_P),
    LrlRequestPayload(_P),
    LrlReplyPayload(_P, (2, 3)),
    FailoverBlanketPayload("20.2.0.1", "20.2.0.2"),
    ControlMessage(MessageKind.BINDING_UPDATE, "20.1.1.12", "20.1.3.1", 1.5,
                   UpdatePayload(_B)),
]


def test_every_value_class_is_covered():
    named_tuples = {cls for cls in vars(messages_module).values()
                    if isinstance(cls, type) and issubclass(cls, tuple)}
    assert {type(v) for v in VALUES} == named_tuples
    assert len(VALUES) == len(named_tuples) == 9


@pytest.mark.parametrize("value", VALUES, ids=lambda v: type(v).__name__)
def test_values_are_immutable_and_hashable(value):
    for name in type(value)._fields:
        with pytest.raises(AttributeError):
            setattr(value, name, None)
    with pytest.raises(AttributeError):
        value.unknown_field = 1
    twin = type(value)(*value)
    assert twin == value and hash(twin) == hash(value)


def test_equality_ignores_the_class_but_kind_tells_messages_apart():
    assert NegativeReplyPayload(_P) == LrlRequestPayload(_P) == (_P,)
    negative = ControlMessage(MessageKind.BINDING_REPLY_NEGATIVE, "a", "b",
                              0.0, NegativeReplyPayload(_P))
    lrl = ControlMessage(MessageKind.LRL_REQUEST, "a", "b", 0.0,
                         LrlRequestPayload(_P))
    assert negative != lrl
    assert canonical_encode(negative) != canonical_encode(lrl)


@given(bindings, bindings, st.sets(st.sampled_from(MobilityBinding._fields)))
def test_binding_replace_equals_field_by_field_construction(b, other, names):
    changes = {name: getattr(other, name) for name in names}
    built = MobilityBinding(**{name: changes.get(name, getattr(b, name))
                               for name in MobilityBinding._fields})
    replaced = b._replace(**changes)
    assert type(replaced) is MobilityBinding
    assert replaced == built and hash(replaced) == hash(built)
    assert canonical_encode(ControlMessage(
        MessageKind.BINDING_UPDATE, "a", "b", 0.0, UpdatePayload(replaced))) \
        == canonical_encode(ControlMessage(
            MessageKind.BINDING_UPDATE, "a", "b", 0.0, UpdatePayload(built)))


@settings(max_examples=50)
@given(messages(), messages(),
       st.sets(st.sampled_from(ControlMessage._fields)))
def test_message_replace_equals_field_by_field_construction(msg, other, names):
    changes = {name: getattr(other, name) for name in names}
    built = ControlMessage(**{name: changes.get(name, getattr(msg, name))
                              for name in ControlMessage._fields})
    replaced = msg._replace(**changes)
    assert type(replaced) is ControlMessage and replaced == built


def test_every_truncation_point_fails_for_one_message():
    binding = MobilityBinding(MobilePrefix.parse("10.1.1.1/32"), "20.1.1.12",
                              116, 1)
    msg = ControlMessage(MessageKind.BINDING_UPDATE, "20.1.1.12", "20.1.3.1",
                         1.5, UpdatePayload(binding))
    raw = canonical_encode(msg)
    for cut in range(len(raw)):
        with pytest.raises(DecodeError):
            canonical_decode(raw[:cut])


def test_layout_names_every_kind_once_with_one_wire_type_per_field():
    layout = messages_module.LAYOUT
    assert list(layout) == list(MessageKind)
    for kind, (cls, fields) in layout.items():
        assert len(fields) == len(cls._fields), kind
        assert all(len(wire_type) == 2 for wire_type in fields), kind


# byte offsets in an LRL request from "ab" to "cd": magic and kind at 0-1,
# the two texts at 2-5 and 6-9, send time at 10-17, then the prefix
@pytest.mark.parametrize("offset,value", [(4, 0xFF), (18, 5), (19, 33)],
                         ids=["utf8_in_src", "family_5", "prefix_len_over_32"])
def test_bad_field_value_rejected(offset, value):
    raw = bytearray(canonical_encode(ControlMessage(
        MessageKind.LRL_REQUEST, "ab", "cd", 0.0, LrlRequestPayload(_P))))
    raw[offset] = value
    with pytest.raises(DecodeError):
        canonical_decode(bytes(raw))


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


# ------------------------------------------------------ reference encoder
# The field-by-field writer the packed encoder replaced, kept as the
# reference the wire form is compared against.

class _RefWriter:
    def __init__(self):
        self.parts: list[bytes] = []

    def u8(self, v: int):
        self.parts.append(struct.pack(">B", v))

    def u32(self, v: int):
        self.parts.append(struct.pack(">I", v))

    def f64(self, v: float):
        self.parts.append(struct.pack(">d", v))

    def text(self, s: str):
        raw = s.encode("utf-8")
        self.parts.append(struct.pack(">H", len(raw)) + raw)

    def raw(self, b: bytes):
        self.parts.append(b)

    def done(self) -> bytes:
        return b"".join(self.parts)


def _ref_prefix(w: _RefWriter, p: MobilePrefix):
    w.u8(p.family)
    w.u8(p.prefix_len)
    w.raw(p.address)


def _ref_binding(w: _RefWriter, b: MobilityBinding):
    _ref_prefix(w, b.prefix)
    w.text(b.origin_next_hop)
    w.u32(b.label)
    w.u32(b.area_id)
    w.u8(int(b.update_mode))
    w.u8(int(b.update_type))
    w.f64(b.lifetime_s)


def _ref_encode(msg: ControlMessage) -> bytes:
    w = _RefWriter()
    w.u8(0xB1)
    w.u8(list(MessageKind).index(msg.kind) + 1)
    w.text(msg.src)
    w.text(msg.dst)
    w.f64(msg.send_time)
    p = msg.payload
    if msg.kind in (MessageKind.BINDING_UPDATE, MessageKind.BINDING_REPLY_POSITIVE):
        _ref_binding(w, p.binding)
    elif msg.kind is MessageKind.BINDING_WITHDRAWAL:
        _ref_prefix(w, p.prefix)
        w.text(p.origin_next_hop)
    elif msg.kind is MessageKind.BINDING_REQUEST:
        _ref_prefix(w, p.prefix)
        w.u32(p.requestor_area)
    elif msg.kind in (MessageKind.BINDING_REPLY_NEGATIVE, MessageKind.LRL_REQUEST):
        _ref_prefix(w, p.prefix)
    elif msg.kind is MessageKind.LRL_REPLY:
        _ref_prefix(w, p.prefix)
        w.u32(len(p.area_ids))
        for a in p.area_ids:
            w.u32(a)
    else:
        w.text(p.survivor)
        w.text(p.failed)
    return w.done()


@pytest.mark.parametrize("kind", list(MessageKind), ids=lambda k: k.value)
@settings(max_examples=25)
@given(data=st.data())
def test_encoding_matches_reference_writer(kind, data):
    msg = ControlMessage(
        kind=kind,
        src=data.draw(rids),
        dst=data.draw(rids),
        send_time=data.draw(st.floats(min_value=0, max_value=1e6,
                                      allow_nan=False)),
        payload=data.draw(payload_by_kind[kind]),
    )
    assert canonical_encode(msg) == _ref_encode(msg)


# ------------------------------------------------------------- withdrawal

def test_withdrawal_carries_prefix_and_origin():
    binding = MobilityBinding(MobilePrefix.parse("10.1.1.1/32"), "20.1.1.12",
                              116, 1)
    msg = control_message(MessageKind.BINDING_WITHDRAWAL, "", "", 0.0,
                          (binding.prefix, binding.origin_next_hop))
    assert msg.kind is MessageKind.BINDING_WITHDRAWAL
    assert str(msg.payload.prefix) == "10.1.1.1/32"
    assert msg.payload.origin_next_hop == "20.1.1.12"


def test_withdrawal_of_v6_host_binding():
    binding = MobilityBinding(MobilePrefix.parse("2001:db8::7/128"),
                              "20.1.1.12", 200, 2)
    msg = control_message(MessageKind.BINDING_WITHDRAWAL, "20.1.1.12",
                          "20.1.3.1", 4.0,
                          (binding.prefix, binding.origin_next_hop))
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


def _ref_covered_by(me: MobilePrefix, ranges: list[MobilePrefix]) -> bool:
    """The ``ipaddress`` range check the integer one replaced."""
    net = ipaddress.ip_network(str(me))
    for r in ranges:
        other = ipaddress.ip_network(str(r))
        if net.version == other.version and net.subnet_of(other):
            return True
    return False


def _masked(p: MobilePrefix) -> MobilePrefix:
    """``p`` with its host bits cleared."""
    bits = len(p.address) * 8
    value = int.from_bytes(p.address, "big") >> (bits - p.prefix_len) \
        << (bits - p.prefix_len)
    return MobilePrefix(p.family, value.to_bytes(len(p.address), "big"),
                        p.prefix_len)


_WHOLE_SPACES = [MobilePrefix.parse("0.0.0.0/0"), MobilePrefix.parse("::/0")]


@st.composite
def range_cases(draw):
    """A prefix and a list of ranges of both families: most clean, some with
    host bits set, many true supernets of the prefix, and the whole address
    space of each family, which only the family test keeps from matching."""
    def one(p):
        return draw(st.sampled_from([p, _masked(p), _masked(p), _masked(p)]))

    me = one(draw(prefixes))
    bits = len(me.address) * 8
    ranges = []
    for _ in range(draw(st.integers(0, 4))):
        source = draw(st.sampled_from(["supernet", "sibling", "random", "whole"]))
        if source == "supernet":
            plen = draw(st.integers(0, me.prefix_len))
            ranges.append(one(MobilePrefix(me.family, me.address, plen)))
        elif source == "sibling" and me.prefix_len:
            # differs from the prefix in the range's last network bit only
            plen = draw(st.integers(1, me.prefix_len))
            flipped = int.from_bytes(me.address, "big") ^ (1 << (bits - plen))
            ranges.append(one(MobilePrefix(
                me.family, flipped.to_bytes(len(me.address), "big"), plen)))
        elif source == "random":
            ranges.append(one(draw(prefixes)))
        else:
            ranges.append(draw(st.sampled_from(_WHOLE_SPACES)))
    return me, ranges


@settings(max_examples=300)
@given(range_cases())
def test_range_check_matches_ipaddress(case):
    me, ranges = case
    try:
        expected = _ref_covered_by(me, ranges)
    except ValueError:
        with pytest.raises(ValueError):
            me.covered_by(ranges)
        return
    assert me.covered_by(ranges) is expected


@given(prefixes)
def test_rendered_prefix_keeps_field_equality_hash_and_repr(p):
    text = str(p)
    fresh = MobilePrefix(p.family, p.address, p.prefix_len)
    assert str(p) == text == str(fresh)
    assert p == fresh and hash(p) == hash(fresh) and repr(p) == repr(fresh)
    assert {p: 1}[fresh] == 1


@pytest.mark.parametrize("text,family,address,plen", [
    ("10.1.1.1/32", 4, bytes([10, 1, 1, 1]), 32),
    ("2001:db8::/48", 6, ipaddress.ip_address("2001:db8::").packed, 48)])
def test_prefix_hash_is_the_hash_of_its_fields(text, family, address, plen):
    p = MobilePrefix.parse(text)
    assert hash(p) == hash((family, address, plen))
    twin = MobilePrefix(family, address, plen)
    assert twin == p and hash(twin) == hash(p)
    for name in ("family", "address", "prefix_len"):
        with pytest.raises(AttributeError):
            setattr(p, name, getattr(p, name))


@st.composite
def prefix_texts(draw):
    """Texts ``ipaddress.ip_network`` accepts or refuses: canonical dotted
    quads, with or without host bits, and their variants with leading
    zeros, a ``/032``-style length, a netmask or hostmask, no ``/`` at all,
    a non-ASCII digit or a space; IPv6 and IPv4-mapped IPv6."""
    quad = draw(st.lists(st.integers(0, 255), min_size=4, max_size=4))
    plen = draw(st.integers(0, 33))
    if draw(st.sampled_from([True, True, True, False])):  # most quads clean
        value = int.from_bytes(bytes(quad), "big") >> (32 - min(plen, 32))
        quad = list((value << (32 - min(plen, 32))).to_bytes(4, "big"))
    octets = [str(o) for o in quad]
    length = str(plen)
    form = draw(st.sampled_from(["canonical", "zeros", "long_length", "mask",
                                 "no_slash", "ipv6", "mapped"]))
    if form == "zeros":
        i = draw(st.integers(0, 3))
        octets[i] = octets[i].zfill(draw(st.integers(2, 4)))
    elif form == "long_length":
        length = length.zfill(draw(st.integers(2, 3)))
    elif form == "mask":
        mask = (0xFFFFFFFF << (32 - min(plen, 32))) & 0xFFFFFFFF
        mask = draw(st.sampled_from([mask, mask ^ 0xFFFFFFFF,
                                     draw(st.integers(0, 0xFFFFFFFF))]))
        length = ".".join(map(str, mask.to_bytes(4, "big")))
    text = ".".join(octets) + ("" if form == "no_slash" else f"/{length}")
    if form == "ipv6":
        address = ipaddress.IPv6Address(draw(st.binary(min_size=16, max_size=16)))
        shown = draw(st.sampled_from([address.compressed, address.exploded]))
        text = f"{shown}/{draw(st.integers(0, 129))}"
    elif form == "mapped":
        text = f"::ffff:{'.'.join(octets)}/{draw(st.integers(96, 128))}"
    damage = draw(st.sampled_from(["none", "none", "digit", "space"]))
    if damage == "digit":  # an ASCII digit as the same digit of another script
        at = draw(st.sampled_from([i for i, ch in enumerate(text) if ch.isdigit()]))
        zero = draw(st.sampled_from([0x660, 0x966, 0xFF10]))
        text = text[:at] + chr(zero + int(text[at])) + text[at + 1:]
    elif damage == "space":
        at = draw(st.integers(0, len(text)))
        text = text[:at] + draw(st.sampled_from([" ", "\t", "\n"])) + text[at:]
    return text


@settings(max_examples=500)
@given(prefix_texts())
@example("fe80::1%eth0/128")
def test_parse_agrees_with_ipaddress(text):
    try:
        net = ipaddress.ip_network(text)
    except ValueError as exc:
        with pytest.raises(ValueError) as refused:
            MobilePrefix.parse(text)
        assert str(refused.value) == str(exc)
        return
    p = MobilePrefix.parse(text)
    assert (p.family, p.address, p.prefix_len) == (
        net.version, net.network_address.packed, net.prefixlen)
    # the fields keep no IPv6 scope id, so ``str`` shows none
    scope = getattr(net.network_address, "scope_id", None)
    assert str(p) == (str(net) if scope is None else str(net).replace("%" + scope, ""))
    # a prefix made from its fields, or decoded, prints the parsed text
    twin = MobilePrefix(p.family, p.address, p.prefix_len)
    decoded = canonical_decode(canonical_encode(control_message(
        MessageKind.LRL_REQUEST, "20.1.1.1", "20.1.1.2", 0.0, (p,)))).payload[0]
    assert str(twin) == str(decoded) == str(p)
    assert twin == decoded == p and hash(twin) == hash(p)


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
