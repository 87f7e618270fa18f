"""Regionalized network graph and the infrastructure LSP mesh.

The graph carries four node roles.  LER, ALER and LSR nodes forward data
packets; AMRR nodes are control-plane only and never appear on a data path,
although their edges participate in control-message latency.  Every
forwarding node's router id is the FEC of one LSP in a full logical mesh.
The graph is immutable once built.  A run only ever sends over a few paths,
so each FEC of the mesh keeps one BFS and each row of the control-latency
matrix one Dijkstra, resumed by a missing entry just until it is found;
every value equals what a full computation at build time would give.  A
node's LSP rows, latency row and links are made on its first read (a
``Memo``), so set-up follows the nodes a run reaches, not the graph's size.
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass
from enum import Enum

from .errors import (
    AreaWithoutAler,
    AreaWithoutAmrr,
    DisconnectedForwardingGraph,
    DuplicateRouterId,
    LabelSpaceExhausted,
    NoRouteToNextHop,
    TopologyError,
    VertexNotFound,
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
    names: dict[str, RouterId]  # node name -> its router id

    def __post_init__(self):
        # the graph never changes after build_topology, so each adjacency is
        # sorted once; interface numbers are positions in that order
        self._neighbors = {rid: tuple(sorted(peers))
                           for rid, peers in self.edges.items()}
        # forwarding node -> its forwarding neighbours, in the same order
        self.forwarding_adjacency = {
            rid: [p for p in self.neighbors(rid)
                  if self.nodes[p].role in FORWARDING_ROLES]
            for rid in self.forwarding_nodes()}
        self._by_role = {}  # (role, area or None) -> its ids, sorted
        for rid, info in sorted(self.nodes.items()):
            for key in ((info.role, None), (info.role, info.area)):
                self._by_role.setdefault(key, []).append(rid)

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
        return list(self._by_role.get((role, area), ()))

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
    for entry in spec.get("nodes", []):
        rid = entry["id"]
        name = entry.get("name", rid)
        role = NodeRole(entry["role"])
        area = int(entry.get("area", 0))
        if rid in nodes or name in names:
            raise DuplicateRouterId(f"duplicate node {name!r} ({rid})")
        if role in (NodeRole.LER, NodeRole.ALER, NodeRole.AMRR) and area < 1:
            # a mobility node outside any real area leaves that area unserved
            raise AreaWithoutAler(f"{name} has role {role.value} but no area")
        nodes[rid] = NodeInfo(name, role, area)
        names[name] = rid

    edges: dict[RouterId, dict[RouterId, float]] = {r: {} for r in nodes}
    for entry in spec.get("edges", []):
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
        seen = bfs_hops(graph.forwarding_adjacency, fwd[0])
        missing = [graph.name_of(r) for r in fwd if r not in seen]
        if missing:
            raise DisconnectedForwardingGraph(
                f"forwarding nodes unreachable from {graph.name_of(fwd[0])}: {missing}")
    # control sessions need every mobility node reachable over the full graph
    everyone = sorted(nodes)
    if everyone:
        seen = bfs_hops(graph.edges, everyone[0])
        missing = [graph.name_of(r) for r in everyone if r not in seen]
        if missing:
            raise DisconnectedForwardingGraph(f"nodes unreachable in full graph: {missing}")
    return graph


def bfs_hops(adjacency: dict, source) -> dict:
    """Edge-count distances from ``source`` over an adjacency mapping."""
    if source not in adjacency:
        raise VertexNotFound(f"vertex {source!r} not in graph")
    dist = {source: 0}
    frontier = deque([source])
    while frontier:
        node = frontier.popleft()
        for peer in adjacency[node]:
            if peer not in dist:
                dist[peer] = dist[node] + 1
                frontier.append(peer)
    return dist


class Memo(dict):
    """``memo[key]`` is ``make(key)``, made on first use only.  ``made`` is a
    plain dict of the same entries, whose subscript CPython specialises: a
    hot path reads it and ``memo[key]`` only on a ``KeyError``."""

    def __init__(self, make):
        self.make, self.made = make, {}

    def __missing__(self, key):
        value = self.made[key] = self[key] = self.make(key)
        return value


POP = object()  # the in_actions entry at a FEC's owner; no router id is it


class LspTable:
    """Per-node infrastructure label state for the node-to-node LSP mesh.

    Every node binds the same label to a FEC: ``16 + i`` for the ``i``-th
    forwarding node in router-id order, which is what one monotonic
    allocator per node hands out when the FECs are visited in that order.
    Labels are therefore computed, not stored, and a transit hop keeps its
    label, as an SR-MPLS CONTINUE does under one label block.

    ``fec_next[node][fec]`` gives the (label, next_hop) used to inject a
    packet at ``node`` toward the router-id FEC; a FEC has entries only at
    nodes no farther from it than the farthest node looked up.
    ``in_actions[node][label]`` resolves an arriving top label to the next
    hop toward its FEC, or ``POP`` at its owner; each row fills an entry on
    its first lookup, and gives ``None`` for a label outside the mesh.  A
    node's rows in both are made on its first read; a node that forwards
    nothing has none, and reading one raises ``KeyError``.
    """

    def __init__(self, graph: NetworkGraph):
        self.fecs = graph.forwarding_nodes()
        if len(self.fecs) > LABEL_MAX - LABEL_MIN + 1:
            raise LabelSpaceExhausted(
                f"{len(self.fecs)} FECs need more labels than 16..{LABEL_MAX}")
        self._label = {fec: LABEL_MIN + i for i, fec in enumerate(self.fecs)}
        self._adjacency = graph.forwarding_adjacency
        # fec -> (nodes seen, next level to expand) of its paused BFS
        self._searches: dict[RouterId, tuple[set, list]] = {}
        self.fec_next: dict[RouterId, dict[RouterId, tuple[int, RouterId]]] = Memo(
            lambda node: self._row(node, {}))
        self.in_actions: dict[RouterId, _ActionRow] = Memo(
            lambda node: self._row(node, _ActionRow(self, node)))

    def _row(self, node: RouterId, row: dict) -> dict:
        if node not in self._label:  # it forwards nothing
            raise KeyError(node)
        return row

    def next_hop(self, node: RouterId, fec: RouterId) -> tuple[int, RouterId]:
        try:
            return self.fec_next.made[node][fec]
        except KeyError:
            if node == fec or node not in self._label or fec not in self._label:
                raise NoRouteToNextHop(f"{node} has no trail toward {fec}")
        return self._search(node, fec)

    def _search(self, node: RouterId, fec: RouterId) -> tuple[int, RouterId]:
        """Resume the hop-count BFS from ``fec`` over the forwarding
        subgraph until ``node`` has its next hop.

        Each level is visited whole and in ascending router id, so the first
        node to reach a peer is its lowest-id neighbour one hop closer to
        ``fec``: ties resolve the same in every run.  The search pauses only
        between levels, so every entry is the one an uninterrupted BFS sets.
        """
        label = self._label[fec]
        fec_next = self.fec_next
        adjacency = self._adjacency
        row = fec_next[node]
        seen, level = self._searches.get(fec) or ({fec}, [fec])
        while level and fec not in row:
            reached = []
            for hop in level:
                for peer in adjacency[hop]:
                    if peer not in seen:
                        seen.add(peer)
                        fec_next[peer][fec] = (label, hop)
                        reached.append(peer)
            level = sorted(reached)
        self._searches[fec] = (seen, level)
        if fec not in row:
            raise NoRouteToNextHop(f"{node} has no trail toward {fec}")
        return row[fec]

    def label(self, fec: RouterId) -> int:
        return self._label[fec]


class _ActionRow(dict):
    """Arriving top label -> next hop toward its FEC, or ``POP``, at one
    node; a missing label in the mesh's range is resolved and stored, any
    other gives ``None``."""
    __slots__ = ("table", "node")

    def __init__(self, table: LspTable, node: RouterId):
        self.table, self.node = table, node

    def __missing__(self, label: int) -> RouterId | object | None:
        table, node = self.table, self.node
        if not 0 <= label - LABEL_MIN < len(table.fecs):
            return None
        fec = table.fecs[label - LABEL_MIN]
        act = self[label] = (POP if node == fec
                             else table.next_hop(node, fec)[1])
        return act


def compute_infrastructure_lsps(graph: NetworkGraph) -> LspTable:
    """The full mesh of node-to-node LSPs over the forwarding subgraph,
    computed FEC by FEC as lookups need it."""
    return LspTable(graph)


class _LatencyRow(dict):
    """Destination -> ms for the nodes one source's Dijkstra has popped; a
    missing destination resumes it until that node is popped.  A popped
    distance is final and a resumed search runs the same pops and
    relaxations as an uninterrupted one, so every value is the same.

    Each row is a Dijkstra from its own source, never mirrored from another
    row: float sums taken in another order could differ in the last bit.
    Nodes are numbered in router-id order, so equal distances leave the
    heap in router-id order.
    """

    def __init__(self, rids: list, index: dict, links: Memo, start: int):
        super().__init__()
        self._rids, self._index, self._links = rids, index, links
        self._dist = [float("inf")] * len(rids)
        self._dist[start] = 0.0
        self._heap = [(0.0, start)]

    def __missing__(self, dst: RouterId) -> float:
        target = self._index[dst]
        rids, links = self._rids, self._links
        dist, heap = self._dist, self._heap
        pop, push = heapq.heappop, heapq.heappush
        while heap:
            d, node = pop(heap)
            if d > dist[node]:
                continue
            self[rids[node]] = d
            for peer, latency in links[node]:
                nd = d + latency
                if nd < dist[peer]:
                    dist[peer] = nd
                    push(heap, (nd, peer))
            if node == target:
                return d
        raise KeyError(dst)


def control_latency_matrix(graph: NetworkGraph) -> dict[RouterId, dict[RouterId, float]]:
    """All-pairs minimum latency (ms) over the full graph, AMRR edges included.

    Control sessions ride these values; the matrix is symmetric.  A source's
    row, and a node's list of (number, ms) links, is made on its first read;
    iterating the result shows only the rows and entries indexed so far.
    """
    rids = sorted(graph.nodes)
    index = {rid: i for i, rid in enumerate(rids)}
    links = Memo(lambda i: [(index[peer], graph.edges[rids[i]][peer])
                            for peer in graph.neighbors(rids[i])])
    return Memo(lambda src: _LatencyRow(rids, index, links, index[src]))
