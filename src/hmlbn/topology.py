"""Regionalized network graph and the infrastructure LSP mesh.

The graph carries four node roles.  LER, ALER and LSR nodes forward data
packets; AMRR nodes are control-plane only and never appear on a data path,
although their edges participate in control-message latency.  Every
forwarding node's router id is the FEC of one LSP in a full logical mesh.

Set-up walks the topology once: ``build_topology`` checks each entry,
reports every problem at its entry's path (``topology.edges[7]``), and
builds the immutable graph in the same pass.  Made on first use (``Memo``)
are each forwarding node's one LSP row, each latency row and links, and
the ``by_role`` lists; no neighbour list is kept, and ``neighbors`` and an
LSP search read ``edges``.  Each FEC keeps one BFS and each latency row one
Dijkstra, resumed until the entry read is found, so every value equals a
full computation's.  Only interface numbers show an order, a node's
neighbours by router id: id lists are sorted, a BFS visits each level by
router id and Dijkstra breaks ties by router id.
"""

from __future__ import annotations

import heapq
import sys
from dataclasses import dataclass
from enum import Enum
from functools import cached_property

from .errors import (LabelSpaceExhausted, NoRouteToNextHop, ScenarioInvalid,
                     VertexNotFound)
from .labels import LABEL_MAX, LABEL_MIN

RouterId = str  # dotted-quad text, e.g. "20.1.1.12"

DEFAULT_EDGE_LATENCY_MS = 1.0


class NodeRole(str, Enum):
    LER = "LER"
    ALER = "ALER"
    AMRR = "AMRR"
    LSR = "LSR"


FORWARDING_ROLES = {NodeRole.LER, NodeRole.ALER, NodeRole.LSR}


@dataclass(slots=True)
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
        self.rids = sorted(self.nodes)  # every router id, in order

    @cached_property
    def _by_role(self) -> dict:
        """(role, area or None) -> its router ids, in order."""
        by_role = {}
        for rid in self.rids:
            info = self.nodes[rid]
            for key in ((info.role, None), (info.role, info.area)):
                by_role.setdefault(key, []).append(rid)
        return by_role

    def rid_of(self, name_or_rid: str) -> RouterId:
        rid = name_or_rid if name_or_rid in self.nodes else self.names.get(name_or_rid)
        if rid is None:
            raise VertexNotFound(f"unknown node {name_or_rid!r}")
        return rid

    def name_of(self, rid: RouterId) -> str:
        return self.nodes[rid].name

    def role_of(self, rid: RouterId) -> NodeRole:
        return self.nodes[rid].role

    def area_of(self, rid: RouterId) -> int:
        return self.nodes[rid].area

    def neighbors(self, rid: RouterId) -> tuple[RouterId, ...]:
        """In router-id order, which numbers a node's interfaces."""
        return tuple(sorted(self.edges[rid]))

    def forwarding_nodes(self) -> list[RouterId]:
        return [r for r in self.rids if self.nodes[r].role in FORWARDING_ROLES]

    def by_role(self, role: NodeRole, area: int | None = None) -> list[RouterId]:
        return list(self._by_role.get((role, area), ()))

    def areas(self) -> list[int]:
        return sorted({n.area for n in self.nodes.values() if n.area >= 1})

    def interface_name(self, rid: RouterId, next_hop: RouterId) -> str:
        """Deterministic per-neighbor interface label used in FIB dumps."""
        try:
            index = self.neighbors(rid).index(next_hop)
        except ValueError:
            raise NoRouteToNextHop(f"{next_hop} is not adjacent to {rid}")
        return f"GIG0/0/{index}"


_TYPES = {  # the keys of each topology section's entries and their types
    "nodes": {"id": str, "name": str, "role": str, "area": int},
    "edges": {"a": str, "b": str, "latency_ms": float},  # float: any number
    "regions": {"ler": str, "cells": list},
}
_REQUIRED = {"id", "role", "a", "b", "ler"}
_ROLES = {role.value: role for role in NodeRole}
_ROLES_BY_EQ = tuple(_ROLES)  # searched by ==: an unhashable value is no error
_CELLS = ["cell0"]  # a region's cells if it names none
_QUICK = {  # a test an entry of the section passes when its types are right
    "nodes": lambda e: (
        type(e.get("id")) is str and type(e.get("name", "")) is str
        and e.get("role") in _ROLES_BY_EQ and type(e.get("area", 0)) is int),
    "edges": lambda e: (
        type(e.get("a")) is str and type(e.get("b")) is str
        and type(ms := e.get("latency_ms", DEFAULT_EDGE_LATENCY_MS)) in (int, float)
        and abs(ms) <= sys.float_info.max),
    "regions": lambda e: (
        type(e.get("ler")) is str and type(cells := e.get("cells", _CELLS)) is list
        and cells and "" not in cells and all(type(c) is str for c in cells)),
}


def type_problem(value, kind) -> str | None:
    """Why ``value`` is no ``kind`` (``float``: a finite number), or None."""
    if kind is float and type(value) is not bool and isinstance(value, (int, float)):
        return None if abs(value) <= sys.float_info.max else "must be finite"
    if type(value) is bool or not isinstance(value, kind):
        wanted = "number" if kind is float else kind.__name__
        return f"expected {wanted}, got {type(value).__name__}"
    return None


def _fits(entry, section: str, key, found: list) -> bool:
    """Whether a topology entry has the right keys and value types; if not,
    each problem goes to ``found``, at a path made only then."""
    types = _TYPES[section]
    if isinstance(entry, dict) and entry.keys() <= types.keys() and _QUICK[section](entry):
        return True
    path = f"topology.regions.{key}" if section == "regions" else f"topology.{section}[{key}]"
    if not isinstance(entry, dict):
        found.append((path, "expected object"))
        return False
    before = len(found)
    found += [(f"{path}.{k}", "unknown key") for k in entry if k not in types]
    found += [(f"{path}.{k}", "missing") for k in types if k in _REQUIRED and k not in entry]
    found += [(f"{path}.{k}", problem) for k, kind in types.items()
              if k in entry and (problem := type_problem(entry[k], kind))]
    if isinstance(entry.get("role"), str) and entry["role"] not in _ROLES:
        found.append((f"{path}.role", f"unknown role {entry['role']!r}"))
    cells = entry.get("cells")
    if isinstance(cells, list) and not (
            cells and all(isinstance(cell, str) and cell for cell in cells)):
        found.append((f"{path}.cells", "expected a non-empty list of cell names"))
    return len(found) == before


def build_topology(spec: dict, problems: list | None = None) -> NetworkGraph:
    """Check a topology description and build its graph in one walk.

    ``spec`` has ``nodes`` (id/name/role/area), ``edges`` (a/b/latency_ms)
    and ``regions`` (name -> ler/cells).  Each problem is a ``(path,
    message)`` pair; without a ``problems`` list to append them to, they
    raise ``ScenarioInvalid``.  Unknown node names, areas and reachability
    are checked only if every node entry passed, and reachability only if
    every edge joins known nodes, so that one fault is one problem.
    """
    found, nodes, names, edges, regions = [], {}, {}, {}, {}
    if not isinstance(spec, dict):
        found.append(("topology", "missing or not an object"))
        spec = {}
    found += [(f"topology.{key}", "unknown key") for key in spec if key not in _TYPES]
    node_list, edge_list, region_map = (  # each None if not of its kind
        value if isinstance(value := spec.get(section, kind()), kind)
        else found.append((f"topology.{section}", f"expected {kind.__name__}"))
        for section, kind in (("nodes", list), ("edges", list), ("regions", dict)))
    whole = node_list is not None  # every node entry passed
    linked = edge_list is not None  # every edge joins two known nodes
    served = {role: set() for role in NodeRole}  # role -> areas it has nodes in
    joined = {}  # (lower, higher router id) -> the index of the edge joining them
    for i, entry in enumerate(node_list or ()):
        if not _fits(entry, "nodes", i, found):
            whole = False
            continue
        rid, role, area = entry["id"], _ROLES[entry["role"]], entry.get("area", 0)
        name = entry.get("name", rid)
        if rid in nodes or name in names or name in nodes or rid in names:
            found.append((f"topology.nodes[{i}]", f"duplicate node {name!r} ({rid})"))
        elif role is not NodeRole.LSR and area < 1:  # it would serve no area
            found.append((f"topology.nodes[{i}].area",
                          f"{name} has role {role.value} but no area"))
        else:
            nodes[rid], names[name], edges[rid] = NodeInfo(name, role, area), rid, {}
            served[role].add(area)
            continue
        whole = False
    for i, entry in enumerate(edge_list or ()):
        if not _fits(entry, "edges", i, found):
            linked = False
            continue
        a, b = entry["a"], entry["b"]
        rid_a, rid_b = names.get(a, a), names.get(b, b)
        if rid_a not in nodes or rid_b not in nodes:
            linked = False
            found += [(f"topology.edges[{i}].{key}", f"unknown node {end!r}")
                      for key, end in (("a", a), ("b", b))
                      if whole and names.get(end, end) not in nodes]
        elif rid_a == rid_b:
            found.append((f"topology.edges[{i}]", f"self edge at {a!r}"))
        elif (j := joined.setdefault(
                (rid_a, rid_b) if rid_a < rid_b else (rid_b, rid_a), i)) != i:
            found.append((f"topology.edges[{i}]",
                          f"{a!r} and {b!r} already joined at edges[{j}]"))
        else:
            ms = float(entry.get("latency_ms", DEFAULT_EDGE_LATENCY_MS))
            edges[rid_a][rid_b] = edges[rid_b][rid_a] = ms
            if ms <= 0:
                found.append((f"topology.edges[{i}].latency_ms", "must be positive"))
    for name, entry in (region_map or {}).items():
        if not _fits(entry, "regions", name, found):
            continue
        ler = entry["ler"]
        rid = names.get(ler, ler)
        if rid in nodes and nodes[rid].role is not NodeRole.LER:
            found.append((f"topology.regions.{name}.ler",
                          f"{ler!r} has role {nodes[rid].role.value}, not LER"))
        elif rid not in nodes and whole:
            found.append((f"topology.regions.{name}.ler", f"unknown node {ler!r}"))
        regions[name] = Region(name, rid, list(entry.get("cells", _CELLS)))
    graph = NetworkGraph(nodes, edges, regions, names)
    if whole:
        found += [("topology.nodes", f"area {area} has no {role.value}")
                  for area in sorted(served[NodeRole.LER] | served[NodeRole.ALER])
                  for role in (NodeRole.ALER, NodeRole.AMRR) if area not in served[role]]
    if whole and linked and nodes:  # every node reachable, forwarding ones by data
        fwd = graph.forwarding_nodes()
        start = (fwd or graph.rids)[0]
        anyhow = bfs_hops(edges, start)
        forwarding = bfs_hops(edges, start, set(fwd)) if fwd else {}
        if len(anyhow) + len(forwarding) < len(nodes) + len(fwd):
            found += [(f"topology.nodes[{i}]", f"unreachable from {nodes[start].name}"
                       + " over forwarding nodes" * (rid in anyhow))
                      for i, rid in enumerate(entry["id"] for entry in node_list)
                      if rid not in anyhow or (rid not in forwarding
                                               and nodes[rid].role in FORWARDING_ROLES)]
    if problems is not None:
        problems += found
    elif found:
        raise ScenarioInvalid(found)
    return graph


def bfs_hops(adjacency: dict, source, within=None) -> dict:
    """Edge-count distances from ``source`` over an adjacency mapping,
    through nodes in ``within`` only, if given."""
    if source not in adjacency:
        raise VertexNotFound(f"vertex {source!r} not in graph")
    within = adjacency if within is None else within
    dist, order = {source: 0}, [source]
    for node in order:  # grows as it is walked: first in, first out
        for peer in adjacency[node]:
            if peer not in dist and peer in within:
                dist[peer] = dist[node] + 1
                order.append(peer)
    return dist


class Memo(dict):
    """``memo[key]`` is ``make(key)``, made on first use only."""

    def __init__(self, make):
        self.make = make

    def __missing__(self, key):
        value = self[key] = self.make(key)
        return value


POP = object()  # a FEC's label at its owner; no router id is it


class LspTable:
    """Per-node infrastructure label state for the node-to-node LSP mesh.

    Every node binds the same label to a FEC: ``16 + i`` for the ``i``-th
    forwarding node in router-id order, which is what one monotonic
    allocator per node hands out when the FECs are visited in that order.
    Labels are therefore computed, not stored, and a transit hop keeps its
    label, as an SR-MPLS CONTINUE does under one label block.

    ``fec_next[node]`` is the node's one row, its incoming label map: a
    FEC's label gives the next hop toward the FEC, or ``POP`` at its owner,
    and any label outside the mesh gives ``None``, unstored.  A missing
    label resumes its FEC's BFS, which fills every row it reaches, so a FEC
    has entries only at nodes no farther from it than the farthest node
    looked up.  A node's row is made on its first read; a node that
    forwards nothing has none, and reading one raises ``KeyError``.
    """

    def __init__(self, graph: NetworkGraph):
        self.fecs = graph.forwarding_nodes()
        if len(self.fecs) > LABEL_MAX - LABEL_MIN + 1:
            raise LabelSpaceExhausted(
                f"{len(self.fecs)} FECs need more labels than 16..{LABEL_MAX}")
        self._label = {fec: LABEL_MIN + i for i, fec in enumerate(self.fecs)}
        self._adjacency = graph.edges  # a search skips the nodes in no FEC
        # fec -> (nodes seen, next level to expand) of its paused BFS
        self._searches: dict[RouterId, tuple[set, list]] = {}
        self.fec_next: dict[RouterId, _ActionRow] = Memo(
            lambda node: _ActionRow(self, node))

    def next_hop(self, node: RouterId, fec: RouterId) -> tuple[int, RouterId]:
        labels = self._label
        if node == fec or node not in labels or fec not in labels:
            raise NoRouteToNextHop(f"{node} has no trail toward {fec}")
        label = labels[fec]
        return label, self.fec_next[node][label]

    def _search(self, row: _ActionRow, label: int) -> RouterId:
        """Resume the hop-count BFS from the FEC of ``label`` over the
        forwarding subgraph until ``row``'s node has its next hop.

        Each level is visited whole and in ascending router id, so the first
        node to reach a peer is its lowest-id neighbour one hop closer to
        the FEC: ties resolve the same in every run.  The search pauses only
        between levels, so every entry is the one an uninterrupted BFS sets.
        """
        fec = self.fecs[label - LABEL_MIN]
        labels, fec_next, adjacency = self._label, self.fec_next, self._adjacency
        seen, level = self._searches.get(fec) or ({fec}, [fec])
        while level and label not in row:
            reached = []
            for hop in level:
                for peer in adjacency[hop]:
                    if peer not in seen and peer in labels:
                        seen.add(peer)
                        fec_next[peer][label] = hop
                        reached.append(peer)
            level = sorted(reached)
        self._searches[fec] = (seen, level)
        if label not in row:
            raise NoRouteToNextHop(f"{row.node} has no trail toward {fec}")
        return row[label]

    def label(self, fec: RouterId) -> int:
        return self._label[fec]


class _ActionRow(dict):
    """Arriving top label -> next hop toward its FEC, or ``POP``, at one
    node; a missing label in the mesh's range is resolved and stored, any
    other gives ``None``."""
    __slots__ = ("table", "node")

    def __init__(self, table: LspTable, node: RouterId):
        if node not in table._label:  # it forwards nothing
            raise KeyError(node)
        self.table, self.node = table, node

    def __missing__(self, label: int) -> RouterId | object | None:
        table = self.table
        if not 0 <= label - LABEL_MIN < len(table.fecs):
            return None
        if table.fecs[label - LABEL_MIN] != self.node:
            return table._search(self, label)
        self[label] = POP
        return POP


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
    rids = graph.rids
    index = {rid: i for i, rid in enumerate(rids)}
    links = Memo(lambda i: [(index[peer], ms)
                            for peer, ms in graph.edges[rids[i]].items()])
    return Memo(lambda src: _LatencyRow(rids, index, links, index[src]))
