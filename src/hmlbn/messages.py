"""Control-plane message model and its canonical wire form.

Messages, their payloads and bindings are immutable, hashable
``typing.NamedTuple`` values, cheap to build on the hot path; a changed
copy is made with ``_replace``.  A message's kind names its payload class
in ``LAYOUT``: senders pass the kind and the fields, and ``control_message``
builds the payload.  Equality is tuple equality and ignores the class
(``NegativeReplyPayload(p) == LrlRequestPayload(p) == (p,)``), so a
message's ``kind`` tells payloads of one shape apart.  ``MobilePrefix`` is
a frozen dataclass; its text and hash are kept in its instance ``__dict__``.
``parse`` sets the text of a canonical dotted quad ``a.b.c.d/n`` as it
reads it, without ``ipaddress``; any other prefix formats it on first use.

The byte encoding is deliberately simple: one leading magic byte and the
kind's code, then source, destination and send time, then the payload's
fields in order; big-endian fixed-width integers and length-prefixed
strings.  ``LAYOUT`` is the one place a kind's wire form is written: its
payload class and the wire type of each field (``BINDING``, ``PREFIX``,
``TEXT``, ``U32``, ``AREAS``), each a ``(write, read)`` pair.  The encoder
builds one payload writer per kind from it at import, and the decoder reads
the fields it lists into the class it names.  Equal messages encode to
identical bytes and any truncation fails decoding rather than producing a
partial message.
"""

from __future__ import annotations

import ipaddress
import re
import struct
from dataclasses import dataclass, field
from enum import Enum, IntEnum
from functools import cached_property, lru_cache
from typing import NamedTuple

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


_KINDS = dict(enumerate(MessageKind, 1))  # wire code -> kind

# a canonical dotted quad and prefix length: ASCII digits, no leading zeros
_OCTET = r"(25[0-5]|2[0-4][0-9]|1[0-9][0-9]|[1-9]?[0-9])"
_QUAD = re.compile(r"\.".join([_OCTET] * 4) + r"/(3[0-2]|[12]?[0-9])")


@dataclass(frozen=True)
class MobilePrefix:
    """IPv4/IPv6 host address or router-served prefix."""

    family: int  # 4 or 6
    address: bytes
    prefix_len: int

    @classmethod
    def parse(cls, text: str) -> "MobilePrefix":
        """The prefix ``text`` names; refused as ``ip_network`` refuses it."""
        if m := _QUAD.fullmatch(text):
            *quad, plen = map(int, m.groups())
            address = bytes(quad)
            if not int.from_bytes(address, "big") & (0xFFFFFFFF >> plen):
                prefix = cls(4, address, plen)
                vars(prefix)["_text"] = "%d.%d.%d.%d/%d" % (*quad, plen)
                return prefix
        net = ipaddress.ip_network(text)  # strict: host bits are refused
        return cls(net.version, net.network_address.packed, net.prefixlen)

    @cached_property
    def _text(self) -> str:
        # rendered on first use and kept in the instance ``__dict__``;
        # equality and repr stay on the fields
        return f"{ipaddress.ip_address(self.address)}/{self.prefix_len}"

    @cached_property
    def _hash(self) -> int:
        return hash((self.family, self.address, self.prefix_len))

    def __str__(self) -> str:
        return self._text

    def __hash__(self) -> int:
        return self._hash

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


class MobilityBinding(NamedTuple):
    """Association of a mobile prefix with an origin router and inner label."""

    prefix: MobilePrefix
    origin_next_hop: str
    label: int
    area_id: int
    update_mode: UpdateMode = UpdateMode.SELECTIVE_DOWNSTREAM_PUSH
    update_type: UpdateType = UpdateType.INTERNAL
    lifetime_s: float = 300.0


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

class UpdatePayload(NamedTuple):
    binding: MobilityBinding


class WithdrawalPayload(NamedTuple):
    prefix: MobilePrefix
    origin_next_hop: str


class RequestPayload(NamedTuple):
    prefix: MobilePrefix
    requestor_area: int


class NegativeReplyPayload(NamedTuple):
    prefix: MobilePrefix


class LrlRequestPayload(NamedTuple):
    prefix: MobilePrefix


class LrlReplyPayload(NamedTuple):
    prefix: MobilePrefix
    area_ids: tuple[int, ...]


class FailoverBlanketPayload(NamedTuple):
    survivor: str
    failed: str


class ControlMessage(NamedTuple):
    kind: MessageKind
    src: str
    dst: str
    send_time: float
    payload: object


class ControlNode:
    """Base of the LER, ALER and AMRR state machines.  ``handle`` routes a
    delivered control message to the method ``HANDLERS`` names for its kind,
    looked up on the instance at call time; other kinds are ignored.  The
    periodic expiry sweep calls the method ``EXPIRE`` names the same way."""

    HANDLERS: dict[MessageKind, str] = {}
    EXPIRE: str

    def handle(self, msg: ControlMessage):
        name = self.HANDLERS.get(msg.kind)
        if name is not None:
            getattr(self, name)(msg)


# ---------------------------------------------------------------- encoding

class _Reader:
    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.data):
            raise DecodeError(f"truncated at byte {self.pos}, wanted {n} more")
        out = self.data[self.pos:self.pos + n]
        self.pos += n
        return out

    def unpack(self, fmt: struct.Struct) -> tuple:
        return fmt.unpack(self.take(fmt.size))


_BB = struct.Struct(">BB")
_U16 = struct.Struct(">H")
_U32 = struct.Struct(">I")
_F64 = struct.Struct(">d")
_BINDING_TAIL = struct.Struct(">IIBBd")  # label, area, mode, type, lifetime


@lru_cache(maxsize=4096)  # router ids: a fixed set per run
def _write_text(s: str) -> bytes:
    raw = s.encode("utf-8")
    return _U16.pack(len(raw)) + raw


def _read_text(r: _Reader) -> str:
    return r.take(r.unpack(_U16)[0]).decode("utf-8")


def _write_prefix(p: MobilePrefix) -> bytes:
    return _BB.pack(p.family, p.prefix_len) + p.address


def _read_prefix(r: _Reader) -> MobilePrefix:
    family, plen = r.unpack(_BB)  # MobilePrefix rejects a bad family
    return MobilePrefix(family, r.take(4 if family == 4 else 16), plen)


def _write_binding(b: MobilityBinding) -> bytes:
    return (_write_prefix(b.prefix) + _write_text(b.origin_next_hop)
            + _BINDING_TAIL.pack(b.label, b.area_id, b.update_mode,
                                 b.update_type, b.lifetime_s))


def _read_binding(r: _Reader) -> MobilityBinding:
    prefix, origin = _read_prefix(r), _read_text(r)
    label, area, mode, utype, lifetime = r.unpack(_BINDING_TAIL)
    return MobilityBinding(prefix, origin, label, area, UpdateMode(mode),
                           UpdateType(utype), lifetime)


def _write_areas(ids: tuple[int, ...]) -> bytes:
    return _U32.pack(len(ids)) + b"".join(map(_U32.pack, ids))


def _read_areas(r: _Reader) -> tuple[int, ...]:
    count = r.unpack(_U32)[0]
    if count > 1 << 16:
        raise DecodeError("implausible LRL length")
    return struct.unpack(f">{count}I", r.take(4 * count))


# wire types, one (write, read) pair each
BINDING = (_write_binding, _read_binding)
PREFIX = (_write_prefix, _read_prefix)
TEXT = (_write_text, _read_text)
U32 = (_U32.pack, lambda r: r.unpack(_U32)[0])
AREAS = (_write_areas, _read_areas)

# each kind's payload class and the wire type of each payload field, in order
LAYOUT = {
    MessageKind.BINDING_UPDATE: (UpdatePayload, (BINDING,)),
    MessageKind.BINDING_WITHDRAWAL: (WithdrawalPayload, (PREFIX, TEXT)),
    MessageKind.BINDING_REQUEST: (RequestPayload, (PREFIX, U32)),
    MessageKind.BINDING_REPLY_POSITIVE: (UpdatePayload, (BINDING,)),
    MessageKind.BINDING_REPLY_NEGATIVE: (NegativeReplyPayload, (PREFIX,)),
    MessageKind.LRL_REQUEST: (LrlRequestPayload, (PREFIX,)),
    MessageKind.LRL_REPLY: (LrlReplyPayload, (PREFIX, AREAS)),
    MessageKind.ALER_FAILOVER_BLANKET: (FailoverBlanketPayload, (TEXT, TEXT)),
}


def _body(fields):
    """One layout's payload writer; it calls each field's writer directly,
    without a loop, so a layout has one or two fields."""
    if len(fields) == 1:
        ((write, _),) = fields
        return lambda p: write(p[0])
    (write0, _), (write1, _) = fields
    return lambda p: write0(p[0]) + write1(p[1])


def control_message(kind: MessageKind, src: str, dst: str, send_time: float,
                    fields: tuple) -> ControlMessage:
    """The ``kind`` message whose payload, of the class ``LAYOUT`` lists for
    the kind, holds ``fields``; a wrong field count raises ``TypeError``.
    ``fields`` is one tuple, not unpacked arguments: a call that unpacks
    costs more on the send path."""
    return ControlMessage(kind, src, dst, send_time, LAYOUT[kind][0](*fields))


# kind -> (magic and code bytes, payload writer), built once from LAYOUT
_WRITE = {kind: (bytes((MAGIC, code)), _body(LAYOUT[kind][1]))
          for code, kind in _KINDS.items()}


def canonical_encode(msg: ControlMessage) -> bytes:
    header, body = _WRITE[msg.kind]
    return b"".join((header, _write_text(msg.src), _write_text(msg.dst),
                     _F64.pack(msg.send_time), body(msg.payload)))


def canonical_decode(data: bytes) -> ControlMessage:
    r = _Reader(data)
    magic, code = r.unpack(_BB)
    if magic != MAGIC:
        raise DecodeError("bad magic byte")
    kind = _KINDS.get(code)
    if kind is None:
        raise DecodeError(f"unknown message kind code {code}")
    cls, fields = LAYOUT[kind]
    try:
        src, dst = _read_text(r), _read_text(r)
        send_time = r.unpack(_F64)[0]
        payload = cls(*[read(r) for _, read in fields])
    except ValueError as exc:  # bad UTF-8, prefix or enum value
        raise DecodeError(str(exc)) from exc
    if r.pos != len(data):
        raise DecodeError(f"{len(data) - r.pos} trailing bytes")
    return ControlMessage(kind, src, dst, send_time, payload)
