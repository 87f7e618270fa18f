"""Data-plane packet structures and hop-by-hop label switching.

A packet carries at most two labels: an infrastructure (top) label selecting
the LSP toward a router id, and a mobility (inner) label naming the mobile
prefix or the next LSP segment.  Intermediate nodes act on label position
and table lookups only; the tag on each label exists purely so traces are
readable.  Reading the destination prefix after ingress is recorded on the
packet, which lets tests prove that no interior node does an IP lookup.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import topology
from .messages import MobilePrefix

INFRA = "i"
MOBILITY = "m"


@dataclass
class Label:
    value: int
    tag: str  # INFRA or MOBILITY, diagnostic only

    def render(self) -> str:
        return f"{self.tag}{self.value}"


@dataclass
class DataPacket:
    flow_id: str
    seq: int
    src_prefix: MobilePrefix
    dst_prefix: MobilePrefix
    created_at: float
    stack: list[Label] = field(default_factory=list)
    hop_trace: list[tuple] = field(default_factory=list)  # (t, node name)
    ingressed: bool = False
    post_ingress_lookups: int = 0

    def dst(self) -> MobilePrefix:
        """Destination lookup; counted when it happens after ingress."""
        if self.ingressed:
            self.post_ingress_lookups += 1
        return self.dst_prefix

    def render_stack(self) -> str:
        return "/".join(label.render() for label in self.stack) or "-"

    def record_hop(self, t: float, node_name: str):
        self.hop_trace.append((t, node_name))

    def path_string(self) -> str:
        return ">".join(name for _, name in self.hop_trace)


class ForwardingEngine:
    """Applies per-node label operations and hands packets to node logic.

    ``transport`` supplies transmit/deliver/drop primitives owned by the
    event loop; ``node_of`` maps a router id to the LER/ALER state machine
    living there (LSRs have no state machine).
    """

    def __init__(self, graph: topology.NetworkGraph, lsp: topology.LspTable,
                 node_of, transport):
        self.graph = graph
        self.lsp = lsp
        self.node_of = node_of
        self.transport = transport

    def step(self, packet: DataPacket, node: str):
        role = self.graph.role_of(node)
        if not packet.stack:
            self.transport.drop(packet, node, "no_label_entry")
            return
        top = packet.stack[0]
        action = self.lsp.action(node, top.value)
        if action is None:
            self.transport.drop(packet, node, "no_label_entry")
            return
        if action[0] == topology.SWAP:
            _, out_label, next_hop = action
            packet.stack[0] = Label(out_label, INFRA)
            self.transport.transmit(packet, node, next_hop)
            return
        # top label pops here: this node terminates the LSP segment
        packet.stack.pop(0)
        handler = self.node_of(node)
        if role is topology.NodeRole.ALER and packet.stack:
            handler.forward_transit(packet)
        elif role is topology.NodeRole.LER and packet.stack:
            handler.egress_deliver(packet)
        else:
            self.transport.drop(packet, node, "no_label_entry")
