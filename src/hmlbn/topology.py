"""Regionalized network graph and the infrastructure LSP mesh.

The graph carries four node roles.  LER, ALER and LSR nodes forward data
packets; AMRR nodes are control-plane only and never appear on a data path,
although their edges participate in control-message latency.  Every
forwarding node's router id is the FEC of one LSP in a full logical mesh.
The graph is immutable once built.  The mesh and the control-latency matrix
are filled on first use, one FEC or one source at a time, because a run only
ever sends over a few of them; every value equals what a full computation at
build time would give.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from enum import Enum

from .errors import (
    AreaWithoutAler,
    AreaWithoutAmrr,
    DisconnectedForwardingGraph,
    DuplicateRouterId,
    LabelSpaceExhausted,
    NoRouteToNextHop,
    TopologyError,
)
from .labels import LABEL_MAX, LABEL_MIN

RouterId = str  # dotted-quad text, e.g. "20.1.1.12"

DEFAULT_EDGE_LATENCY_MS = 1.0


class NodeRole(str, Enum):
    LER = "LER"
    ALER = "ALER"
    AMRR = "AMRR"
    LSR = "LSR"


FORWARDING_ROLES = {NodeRole.LER, NodeRole.ALER, NodeRole.LSR}


@dataclass(frozen=True)
class NodeInfo:
    router_id: RouterId
    name: str
    role: NodeRole
    area: int  # 0 only for LSR backbone nodes


@dataclass
class Region:
    name: str
    ler: RouterId
    cells: list[str]


@dataclass
class NetworkGraph:
    nodes: dict[RouterId, NodeInfo]
    edges: dict[RouterId, dict[RouterId, float]]  # symmetric, latency in ms
    regions: dict[str, Region]
    names: dict[str, RouterId] = field(default_factory=dict)

    def __post_init__(self):
        if not self.names:
            self.names = {info.name: rid for rid, info in self.nodes.items()}
        # the graph never changes after build_topology, so each adjacency is
        # sorted once; interface numbers are positions in that order
        self._neighbors = {rid: tuple(sorted(peers))
                           for rid, peers in self.edges.items()}

    def rid_of(self, name_or_rid: str) -> RouterId:
        if name_or_rid in self.nodes:
            return name_or_rid
        if name_or_rid in self.names:
            return self.names[name_or_rid]
        raise TopologyError(f"unknown node {name_or_rid!r}")

    def name_of(self, rid: RouterId) -> str:
        return self.nodes[rid].name

    def role_of(self, rid: RouterId) -> NodeRole:
        return self.nodes[rid].role

    def area_of(self, rid: RouterId) -> int:
        return self.nodes[rid].area

    def neighbors(self, rid: RouterId) -> tuple[RouterId, ...]:
        return self._neighbors.get(rid, ())

    def forwarding_nodes(self) -> list[RouterId]:
        return sorted(r for r, n in self.nodes.items() if n.role in FORWARDING_ROLES)

    def by_role(self, role: NodeRole, area: int | None = None) -> list[RouterId]:
        out = [r for r, n in self.nodes.items()
               if n.role is role and (area is None or n.area == area)]
        return sorted(out)

    def areas(self) -> list[int]:
        return sorted({n.area for n in self.nodes.values() if n.area >= 1})

    def ler_of_region(self, region: str) -> RouterId:
        if region not in self.regions:
            raise TopologyError(f"unknown region {region!r}")
        return self.regions[region].ler

    def interface_name(self, rid: RouterId, next_hop: RouterId) -> str:
        """Deterministic per-neighbor interface label used in FIB dumps."""
        try:
            index = self.neighbors(rid).index(next_hop)
        except ValueError:
            raise NoRouteToNextHop(f"{next_hop} is not adjacent to {rid}")
        return f"GIG0/0/{index}"


def build_topology(spec: dict) -> NetworkGraph:
    """Validate a topology description and construct the network graph.

    ``spec`` carries ``nodes`` (name/id/role/area), ``edges`` and a
    ``regions`` map from region name to serving LER plus RAN cell list.
    """
    nodes: dict[RouterId, NodeInfo] = {}
    names: dict[str, RouterId] = {}
    for entry in spec["nodes"]:
        rid = entry["id"]
        name = entry.get("name", rid)
        role = NodeRole(entry["role"])
        area = int(entry.get("area", 0))
        if rid in nodes or name in names:
            raise DuplicateRouterId(f"duplicate node {name!r} ({rid})")
        if role in (NodeRole.LER, NodeRole.ALER, NodeRole.AMRR) and area < 1:
            # a mobility node outside any real area leaves that area unserved
            raise AreaWithoutAler(f"{name} has role {role.value} but no area")
        nodes[rid] = NodeInfo(rid, name, role, area)
        names[name] = rid

    edges: dict[RouterId, dict[RouterId, float]] = {r: {} for r in nodes}
    for entry in spec["edges"]:
        a, b = entry["a"], entry["b"]
        rid_a = names.get(a, a)
        rid_b = names.get(b, b)
        if rid_a not in nodes or rid_b not in nodes:
            raise TopologyError(f"edge references unknown node {a!r}/{b!r}")
        if rid_a == rid_b:
            raise TopologyError(f"self edge at {a!r}")
        latency = float(entry.get("latency_ms", DEFAULT_EDGE_LATENCY_MS))
        if latency <= 0:
            raise TopologyError(f"edge {a}-{b} latency must be positive")
        edges[rid_a][rid_b] = latency
        edges[rid_b][rid_a] = latency

    regions: dict[str, Region] = {}
    for region_name, entry in spec.get("regions", {}).items():
        ler = names.get(entry["ler"], entry["ler"])
        if ler not in nodes or nodes[ler].role is not NodeRole.LER:
            raise TopologyError(f"region {region_name!r} serving node is not a LER")
        cells = list(entry.get("cells", ["cell0"]))
        regions[region_name] = Region(region_name, ler, cells)

    graph = NetworkGraph(nodes, edges, regions, names)

    areas_with = {r: set() for r in (NodeRole.LER, NodeRole.ALER, NodeRole.AMRR)}
    for info in nodes.values():
        if info.role in areas_with:
            areas_with[info.role].add(info.area)
    for area in sorted(areas_with[NodeRole.LER] | areas_with[NodeRole.ALER]):
        if area not in areas_with[NodeRole.ALER]:
            raise AreaWithoutAler(f"area {area} has no ALER")
        if area not in areas_with[NodeRole.AMRR]:
            raise AreaWithoutAmrr(f"area {area} has no AMRR")

    fwd = graph.forwarding_nodes()
    if fwd:
        seen = _bfs_distances(graph, fwd[0], FORWARDING_ROLES)
        missing = [graph.name_of(r) for r in fwd if r not in seen]
        if missing:
            raise DisconnectedForwardingGraph(
                f"forwarding nodes unreachable from {graph.name_of(fwd[0])}: {missing}")
    # control sessions need every mobility node reachable over the full graph
    everyone = sorted(nodes)
    if everyone:
        seen = _bfs_distances(graph, everyone[0], None)
        missing = [graph.name_of(r) for r in everyone if r not in seen]
        if missing:
            raise DisconnectedForwardingGraph(f"nodes unreachable in full graph: {missing}")
    return graph


def _bfs_distances(graph: NetworkGraph, source: RouterId,
                   roles: set[NodeRole] | None) -> dict[RouterId, int]:
    """Hop distances from ``source``, optionally restricted to some roles."""
    dist = {source: 0}
    frontier = [source]
    while frontier:
        nxt = []
        for node in frontier:
            for peer in graph.neighbors(node):
                if roles is not None and graph.nodes[peer].role not in roles:
                    continue
                if peer not in dist:
                    dist[peer] = dist[node] + 1
                    nxt.append(peer)
        frontier = nxt
    return dist


POP = "pop"
SWAP = "swap"


class LspTable:
    """Per-node infrastructure label state for the node-to-node LSP mesh.

    Every node binds the same label to a FEC: ``16 + i`` for the ``i``-th
    forwarding node in router-id order, which is what one monotonic
    allocator per node hands out when the FECs are visited in that order.
    Labels are therefore computed, not stored.

    ``fec_next[node][fec]`` gives the (out_label, next_hop) used to inject a
    packet at ``node`` toward the router-id FEC; the first lookup of a FEC
    fills its entry at every node from one hop-count BFS.
    ``in_actions[node][label]`` resolves an arriving top label to a swap or
    a pop at the FEC owner; each entry is filled on its first lookup.
    """

    def __init__(self, graph: NetworkGraph):
        self.fecs = graph.forwarding_nodes()
        if len(self.fecs) > LABEL_MAX - LABEL_MIN + 1:
            raise LabelSpaceExhausted(
                f"{len(self.fecs)} FECs need more labels than 16..{LABEL_MAX}")
        self._label = {fec: LABEL_MIN + i for i, fec in enumerate(self.fecs)}
        self._unfilled = set(self.fecs)
        self._adjacency = {
            node: [p for p in graph.neighbors(node)
                   if graph.nodes[p].role in FORWARDING_ROLES]
            for node in self.fecs}
        self.fec_next: dict[RouterId, dict[RouterId, tuple[int, RouterId]]] = {
            node: {} for node in self.fecs}
        self.in_actions: dict[RouterId, dict[int, tuple]] = {
            node: {} for node in self.fecs}

    def next_hop(self, node: RouterId, fec: RouterId) -> tuple[int, RouterId]:
        try:
            return self.fec_next[node][fec]
        except KeyError:
            if fec not in self._unfilled:
                raise NoRouteToNextHop(f"{node} has no trail toward {fec}")
        self._fill(fec)
        return self.next_hop(node, fec)

    def _fill(self, fec: RouterId):
        """Shortest paths toward ``fec`` by hop count over the forwarding
        subgraph; equal-cost ties resolve to the lowest next-hop router id
        so runs are reproducible.

        One BFS from ``fec`` visits each level in ascending router id, so
        the first node to reach a peer is its lowest-id neighbour one hop
        closer to ``fec``: the peer's next hop.
        """
        self._unfilled.discard(fec)
        label = self._label[fec]
        fec_next = self.fec_next
        adjacency = self._adjacency
        seen = {fec}
        level = [fec]
        while level:
            reached = []
            for node in level:
                for peer in adjacency[node]:
                    if peer not in seen:
                        seen.add(peer)
                        fec_next[peer][fec] = (label, node)
                        reached.append(peer)
            level = sorted(reached)

    def action(self, node: RouterId, label: int) -> tuple | None:
        row = self.in_actions.get(node)
        if row is None:
            return None  # not a forwarding node
        act = row.get(label)
        if act is None and 0 <= label - LABEL_MIN < len(self.fecs):
            fec = self.fecs[label - LABEL_MIN]
            act = (POP,) if node == fec else (SWAP, label, self.next_hop(node, fec)[1])
            row[label] = act
        return act

    def in_label_for(self, node: RouterId, fec: RouterId) -> int:
        return self._label[fec]

    def trail(self, src: RouterId, fec: RouterId) -> list[RouterId]:
        """Node sequence src..fec, following the tables; raises on loops."""
        path = [src]
        node = src
        seen = {src}
        while node != fec:
            _, node = self.next_hop(node, fec)
            if node in seen:
                raise NoRouteToNextHop(f"label trail loop at {node} for FEC {fec}")
            seen.add(node)
            path.append(node)
        return path


def compute_infrastructure_lsps(graph: NetworkGraph) -> LspTable:
    """The full mesh of node-to-node LSPs over the forwarding subgraph,
    computed FEC by FEC as lookups need it."""
    return LspTable(graph)


class _LatencyRows(dict):
    """Source -> {destination: ms}; a missing row is computed on first use.

    Each row is a Dijkstra from its own source, never mirrored from another
    row: float sums taken in another order could differ in the last bit.
    Nodes are numbered in router-id order, so equal distances leave the
    heap in router-id order.
    """

    def __init__(self, graph: NetworkGraph):
        super().__init__()
        self._rids = sorted(graph.nodes)
        self._index = {rid: i for i, rid in enumerate(self._rids)}
        self._links = [[(self._index[peer], graph.edges[rid][peer])
                        for peer in graph.neighbors(rid)]
                       for rid in self._rids]

    def __missing__(self, src: RouterId) -> dict[RouterId, float]:
        links = self._links
        inf = float("inf")
        dist = [inf] * len(links)
        start = self._index[src]
        dist[start] = 0.0
        heap = [(0.0, start)]
        pop, push = heapq.heappop, heapq.heappush
        while heap:
            d, node = pop(heap)
            if d > dist[node]:
                continue
            for peer, latency in links[node]:
                nd = d + latency
                if nd < dist[peer]:
                    dist[peer] = nd
                    push(heap, (nd, peer))
        row = self[src] = {rid: d for rid, d in zip(self._rids, dist) if d < inf}
        return row


def control_latency_matrix(graph: NetworkGraph) -> dict[RouterId, dict[RouterId, float]]:
    """All-pairs minimum latency (ms) over the full graph, AMRR edges included.

    Control sessions ride these values; the matrix is symmetric.  Rows are
    computed when first indexed, so iterating the result shows only those.
    """
    return _LatencyRows(graph)
