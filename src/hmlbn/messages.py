"""Control-plane message model and its canonical wire form.

Messages are immutable values.  The byte encoding is deliberately simple:
fixed field order per message kind, big-endian fixed-width integers and
length-prefixed strings, one leading magic byte.  Equal messages encode to
identical bytes and any truncation fails decoding rather than producing a
partial message.
"""

from __future__ import annotations

import ipaddress
import struct
from dataclasses import dataclass, field
from enum import Enum, IntEnum
from functools import cached_property

from .errors import DecodeError

MAGIC = 0xB1


class UpdateMode(IntEnum):
    SELECTIVE_DOWNSTREAM_PUSH = 1
    UNSOLICITED_DOWNSTREAM_PUSH = 2


class UpdateType(IntEnum):
    INTERNAL = 1
    EXTERNAL = 2


class MessageKind(str, Enum):
    BINDING_UPDATE = "BindingUpdate"
    BINDING_WITHDRAWAL = "BindingWithdrawal"
    BINDING_REQUEST = "BindingRequest"
    BINDING_REPLY_POSITIVE = "BindingReplyPositive"
    BINDING_REPLY_NEGATIVE = "BindingReplyNegative"
    LRL_REQUEST = "LrlRequest"
    LRL_REPLY = "LrlReply"
    ALER_FAILOVER_BLANKET = "AlerFailoverBlanket"


_KIND_CODE = {kind: i + 1 for i, kind in enumerate(MessageKind)}
_CODE_KIND = {v: k for k, v in _KIND_CODE.items()}


@dataclass(frozen=True)
class MobilePrefix:
    """IPv4/IPv6 host address or router-served prefix."""

    family: int  # 4 or 6
    address: bytes
    prefix_len: int

    @classmethod
    def parse(cls, text: str) -> "MobilePrefix":
        net = ipaddress.ip_network(text, strict=False)
        family = 4 if net.version == 4 else 6
        return cls(family, net.network_address.packed, net.prefixlen)

    @cached_property
    def _text(self) -> str:
        # rendered on first use and kept in the instance ``__dict__``;
        # equality, hash and repr stay on the fields
        return f"{ipaddress.ip_address(self.address)}/{self.prefix_len}"

    def __str__(self) -> str:
        return self._text

    def __post_init__(self):
        size = 4 if self.family == 4 else 16
        if self.family not in (4, 6):
            raise ValueError(f"bad address family {self.family}")
        if len(self.address) != size:
            raise ValueError("address length does not match family")
        if not 0 <= self.prefix_len <= size * 8:
            raise ValueError(f"bad prefix length {self.prefix_len}")

    def _network(self) -> int:
        """The address as an integer; ``ValueError`` if host bits are set."""
        value = int.from_bytes(self.address, "big")
        if value & ((1 << (len(self.address) * 8 - self.prefix_len)) - 1):
            raise ValueError(f"{self} has host bits set")
        return value

    def covered_by(self, ranges: list["MobilePrefix"]) -> bool:
        me = self._network()
        bits = len(self.address) * 8
        for r in ranges:
            other = r._network()
            if (r.family == self.family and r.prefix_len <= self.prefix_len
                    and (me ^ other) >> (bits - r.prefix_len) == 0):
                return True
        return False


@dataclass(frozen=True)
class MobilityBinding:
    """Association of a mobile prefix with an origin router and inner label."""

    prefix: MobilePrefix
    origin_next_hop: str
    label: int
    area_id: int
    update_mode: UpdateMode = UpdateMode.SELECTIVE_DOWNSTREAM_PUSH
    update_type: UpdateType = UpdateType.INTERNAL
    lifetime_s: float = 300.0

    def reoriginated(self, *, origin: str, label: int, update_type: UpdateType,
                     area_id: int | None = None,
                     update_mode: UpdateMode | None = None) -> "MobilityBinding":
        return MobilityBinding(
            prefix=self.prefix,
            origin_next_hop=origin,
            label=label,
            area_id=self.area_id if area_id is None else area_id,
            update_mode=self.update_mode if update_mode is None else update_mode,
            update_type=update_type,
            lifetime_s=self.lifetime_s,
        )


@dataclass
class LastRequestorList:
    """Who asked for a binding: external area ids and internal LER router ids."""

    external: list[int] = field(default_factory=list)
    internal: list[str] = field(default_factory=list)

    def add_external(self, area_id: int, own_area: int):
        if area_id != own_area and area_id not in self.external:
            self.external.append(area_id)

    def add_internal(self, router_id: str):
        if router_id not in self.internal:
            self.internal.append(router_id)


# ---------------------------------------------------------------- payloads

@dataclass(frozen=True)
class UpdatePayload:
    binding: MobilityBinding


@dataclass(frozen=True)
class WithdrawalPayload:
    prefix: MobilePrefix
    origin_next_hop: str


@dataclass(frozen=True)
class RequestPayload:
    prefix: MobilePrefix
    requestor_area: int


@dataclass(frozen=True)
class NegativeReplyPayload:
    prefix: MobilePrefix


@dataclass(frozen=True)
class LrlRequestPayload:
    prefix: MobilePrefix


@dataclass(frozen=True)
class LrlReplyPayload:
    prefix: MobilePrefix
    area_ids: tuple[int, ...]


@dataclass(frozen=True)
class FailoverBlanketPayload:
    survivor: str
    failed: str


@dataclass(frozen=True)
class ControlMessage:
    kind: MessageKind
    src: str
    dst: str
    send_time: float
    payload: object

    @property
    def prefix(self) -> MobilePrefix | None:
        direct = getattr(self.payload, "prefix", None)
        if direct is not None:
            return direct
        binding = getattr(self.payload, "binding", None)
        return binding.prefix if binding is not None else None


def make_withdrawal(binding: MobilityBinding, src: str = "", dst: str = "",
                    send_time: float = 0.0) -> ControlMessage:
    """Withdrawal for a previously issued binding (prefix + its origin)."""
    return ControlMessage(
        kind=MessageKind.BINDING_WITHDRAWAL,
        src=src,
        dst=dst,
        send_time=send_time,
        payload=WithdrawalPayload(binding.prefix, binding.origin_next_hop),
    )


class ControlNode:
    """Base of the LER, ALER and AMRR state machines.  ``handle`` routes a
    delivered control message to the method ``HANDLERS`` names for its kind,
    looked up on the instance at call time; other kinds are ignored."""

    HANDLERS: dict[MessageKind, str] = {}

    def handle(self, msg: ControlMessage):
        name = self.HANDLERS.get(msg.kind)
        if name is not None:
            getattr(self, name)(msg)


# ---------------------------------------------------------------- encoding

class _Reader:
    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def _take(self, n: int) -> bytes:
        if self.pos + n > len(self.data):
            raise DecodeError(f"truncated at byte {self.pos}, wanted {n} more")
        out = self.data[self.pos:self.pos + n]
        self.pos += n
        return out

    def u8(self) -> int:
        return self._take(1)[0]

    def u32(self) -> int:
        return struct.unpack(">I", self._take(4))[0]

    def f64(self) -> float:
        return struct.unpack(">d", self._take(8))[0]

    def text(self) -> str:
        n = struct.unpack(">H", self._take(2))[0]
        return self._take(n).decode("utf-8")

    def raw(self, n: int) -> bytes:
        return self._take(n)

    def expect_end(self):
        if self.pos != len(self.data):
            raise DecodeError(f"{len(self.data) - self.pos} trailing bytes")


def _read_prefix(r: _Reader) -> MobilePrefix:
    family = r.u8()
    if family not in (4, 6):
        raise DecodeError(f"bad address family byte {family}")
    plen = r.u8()
    addr = r.raw(4 if family == 4 else 16)
    try:
        return MobilePrefix(family, addr, plen)
    except ValueError as exc:
        raise DecodeError(str(exc))


def _read_binding(r: _Reader) -> MobilityBinding:
    prefix = _read_prefix(r)
    origin = r.text()
    label = r.u32()
    area = r.u32()
    try:
        mode = UpdateMode(r.u8())
        utype = UpdateType(r.u8())
    except ValueError as exc:
        raise DecodeError(str(exc))
    lifetime = r.f64()
    return MobilityBinding(prefix, origin, label, area, mode, utype, lifetime)


_HEADER = {kind: bytes((MAGIC, code)) for kind, code in _KIND_CODE.items()}
_U16 = struct.Struct(">H").pack
_U32 = struct.Struct(">I").pack
_F64 = struct.Struct(">d").pack
_PREFIX_HEAD = struct.Struct(">BB").pack
_BINDING_TAIL = struct.Struct(">IIBBd").pack  # label, area, mode, type, lifetime


def _text(s: str) -> bytes:
    raw = s.encode("utf-8")
    return _U16(len(raw)) + raw


def _prefix(p: MobilePrefix) -> bytes:
    return _PREFIX_HEAD(p.family, p.prefix_len) + p.address


def _binding(p: UpdatePayload) -> bytes:
    b = p.binding
    return (_prefix(b.prefix) + _text(b.origin_next_hop)
            + _BINDING_TAIL(b.label, b.area_id, b.update_mode, b.update_type,
                            b.lifetime_s))


def _lrl_reply(p: LrlReplyPayload) -> bytes:
    return (_prefix(p.prefix) + _U32(len(p.area_ids))
            + b"".join(map(_U32, p.area_ids)))


# payload bytes per kind, in the field order ``canonical_decode`` reads
_BODY = {
    MessageKind.BINDING_UPDATE: _binding,
    MessageKind.BINDING_REPLY_POSITIVE: _binding,
    MessageKind.BINDING_WITHDRAWAL:
        lambda p: _prefix(p.prefix) + _text(p.origin_next_hop),
    MessageKind.BINDING_REQUEST:
        lambda p: _prefix(p.prefix) + _U32(p.requestor_area),
    MessageKind.BINDING_REPLY_NEGATIVE: lambda p: _prefix(p.prefix),
    MessageKind.LRL_REQUEST: lambda p: _prefix(p.prefix),
    MessageKind.LRL_REPLY: _lrl_reply,
    MessageKind.ALER_FAILOVER_BLANKET:
        lambda p: _text(p.survivor) + _text(p.failed),
}


def canonical_encode(msg: ControlMessage) -> bytes:
    kind = msg.kind
    return b"".join((_HEADER[kind], _text(msg.src), _text(msg.dst),
                     _F64(msg.send_time), _BODY[kind](msg.payload)))


def canonical_decode(data: bytes) -> ControlMessage:
    r = _Reader(data)
    if r.u8() != MAGIC:
        raise DecodeError("bad magic byte")
    code = r.u8()
    if code not in _CODE_KIND:
        raise DecodeError(f"unknown message kind code {code}")
    kind = _CODE_KIND[code]
    src = r.text()
    dst = r.text()
    send_time = r.f64()
    if kind in (MessageKind.BINDING_UPDATE, MessageKind.BINDING_REPLY_POSITIVE):
        payload = UpdatePayload(_read_binding(r))
    elif kind is MessageKind.BINDING_WITHDRAWAL:
        payload = WithdrawalPayload(_read_prefix(r), r.text())
    elif kind is MessageKind.BINDING_REQUEST:
        payload = RequestPayload(_read_prefix(r), r.u32())
    elif kind is MessageKind.BINDING_REPLY_NEGATIVE:
        payload = NegativeReplyPayload(_read_prefix(r))
    elif kind is MessageKind.LRL_REQUEST:
        payload = LrlRequestPayload(_read_prefix(r))
    elif kind is MessageKind.LRL_REPLY:
        prefix = _read_prefix(r)
        count = r.u32()
        if count > 1 << 16:
            raise DecodeError("implausible LRL length")
        payload = LrlReplyPayload(prefix, tuple(r.u32() for _ in range(count)))
    else:
        payload = FailoverBlanketPayload(r.text(), r.text())
    r.expect_end()
    return ControlMessage(kind, src, dst, send_time, payload)
