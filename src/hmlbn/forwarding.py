"""Data-plane packet structures and hop-by-hop label switching.

A packet carries at most two labels, top first.  As in MPLS (RFC 3032), a
label is a plain int and its position gives its role: the top label is the
infrastructure label selecting the LSP toward a router id, the one beneath
it the mobility label naming the mobile prefix or the next LSP segment.
Intermediate nodes act on label position and table lookups only.
``ForwardingEngine.step`` is the hop event, the one function a packet's
arrival at a node runs: a failed node drops it as ``node_failed``, any other
adds its name to the path and acts on the top label.  A transit node keeps
the label and passes the packet to its next hop, read by one subscript on
its self-filling row of ``LspTable.fec_next``; an ALER rewrites the inner
value and pushes the next segment's top value, so only imposition allocates
labels.  At a pop the node's role picks the handler: an ALER transits, a LER
delivers, any other pop drops as ``no_label_entry``.
Reading the destination prefix after ingress is recorded on the packet,
which lets tests prove that no interior node does an IP lookup.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import topology
from .messages import MobilePrefix
from .topology import POP

@dataclass(slots=True)
class DataPacket:
    flow_id: str
    seq: int
    dst_prefix: MobilePrefix
    created_at: float
    stack: list[int] = field(default_factory=list)  # top first
    hop_trace: list[str] = field(default_factory=list)  # node names
    ingressed: bool = False
    post_ingress_lookups: int = 0

    def dst(self) -> MobilePrefix:
        """Destination lookup; counted when it happens after ingress."""
        if self.ingressed:
            self.post_ingress_lookups += 1
        return self.dst_prefix

    def render_stack(self) -> str:
        """``i`` before the top label, ``m`` before each label beneath it."""
        return "/".join([f"{'m' if n else 'i'}{label}"
                         for n, label in enumerate(self.stack)]) or "-"

    def path_string(self) -> str:
        return ">".join(self.hop_trace)


class ForwardingEngine:
    """Applies per-node label operations and hands packets to node logic.

    ``transport`` supplies transmit/deliver/drop primitives owned by the
    event loop and the set of ``failed`` nodes; ``nodes`` maps a router id
    to the LER/ALER state machine living there (LSRs have none).
    """

    def __init__(self, graph: topology.NetworkGraph, lsp: topology.LspTable,
                 nodes: dict, transport):
        self.info = graph.nodes
        self.rows = lsp.fec_next
        self.nodes = nodes
        self.transport = transport
        self.failed = transport.failed

    def step(self, packet: DataPacket, node: str):
        """The hop event: ``packet`` arrives at ``node``."""
        if node in self.failed:
            self.transport.drop(packet, node, "node_failed")
            return
        info = self.info[node]
        packet.hop_trace.append(info.name)
        stack = packet.stack
        action = self.rows[node][stack[0]] if stack else None
        if action is None:
            self.transport.drop(packet, node, "no_label_entry")
            return
        if action is not POP:  # transit: the label stays as it is
            self.transport.transmit(packet, node, action)
            return
        # top label pops here: this node terminates the LSP segment
        del stack[0]
        if info.role is topology.NodeRole.ALER and stack:
            self.nodes[node].forward_transit(packet)
        elif info.role is topology.NodeRole.LER and stack:
            self.nodes[node].egress_deliver(packet)
        else:
            self.transport.drop(packet, node, "no_label_entry")
