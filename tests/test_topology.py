import heapq
import ipaddress

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hmlbn.errors import (
    AreaWithoutAler,
    AreaWithoutAmrr,
    DisconnectedForwardingGraph,
    DuplicateRouterId,
    LabelSpaceExhausted,
    NoRouteToNextHop,
)
from hmlbn.labels import LABEL_MAX, LabelAllocator
from hmlbn.scenarios import CN, MN, base_topology, startup_scenario
from hmlbn.topology import (
    FORWARDING_ROLES,
    NodeRole,
    build_topology,
    compute_infrastructure_lsps,
    control_latency_matrix,
)

from conftest import floyd_warshall, run


# ----------------------------------------------------------- label space

def test_allocator_starts_at_reserved_floor():
    alloc = LabelAllocator()
    assert alloc.allocate() == 16
    assert alloc.allocate() == 17


def test_allocator_exhaustion_at_20_bit_bound():
    alloc = LabelAllocator(start=LABEL_MAX)
    assert alloc.allocate() == LABEL_MAX
    with pytest.raises(LabelSpaceExhausted):
        alloc.allocate()


@given(st.integers(min_value=1, max_value=500))
def test_allocator_never_repeats(count):
    alloc = LabelAllocator()
    values = [alloc.allocate() for _ in range(count)]
    assert len(set(values)) == count
    assert values == sorted(values)
    assert all(16 <= v <= LABEL_MAX for v in values)


# ------------------------------------------------------------ validation

def test_reference_layout_builds():
    graph = build_topology(base_topology())
    assert len(graph.regions) == 9
    assert graph.areas() == [1, 2, 3]
    assert len(graph.by_role(NodeRole.ALER)) == 3
    assert len(graph.by_role(NodeRole.AMRR)) == 3


@pytest.mark.parametrize("n_areas,lers_per_area,ha_area", [
    (3, 11, None), (26, 2, 5), (30, 10, 30), (120, 1, 101), (260, 1, 7),
    (1, 300, 1)])
def test_base_topology_ids_and_names_distinct_at_any_size(
        n_areas, lers_per_area, ha_area):
    spec = base_topology(n_areas, lers_per_area, ha_area=ha_area)
    graph = build_topology(spec)  # raises DuplicateRouterId on a clash
    for rid in graph.nodes:
        ipaddress.IPv4Address(rid)
    assert len(spec["regions"]) == n_areas * lers_per_area
    assert len(graph.by_role(NodeRole.LER)) == n_areas * lers_per_area


def test_minimal_single_area_graph(minimal_topology):
    graph = build_topology(minimal_topology)
    assert graph.by_role(NodeRole.LER) == ["10.0.0.1"]


def test_ler_without_area_rejected(minimal_topology):
    minimal_topology["nodes"][0]["area"] = 0
    with pytest.raises(AreaWithoutAler):
        build_topology(minimal_topology)


def test_area_without_amrr_rejected(minimal_topology):
    minimal_topology["nodes"] = minimal_topology["nodes"][:2]
    minimal_topology["edges"] = minimal_topology["edges"][:1]
    with pytest.raises(AreaWithoutAmrr):
        build_topology(minimal_topology)


def test_duplicate_router_id_rejected(minimal_topology):
    minimal_topology["nodes"].append(
        {"id": "10.0.0.1", "name": "E2", "role": "LER", "area": 1})
    with pytest.raises(DuplicateRouterId):
        build_topology(minimal_topology)


def test_disconnected_forwarding_graph_rejected(minimal_topology):
    minimal_topology["nodes"].append(
        {"id": "10.0.0.9", "name": "E9", "role": "LSR"})
    with pytest.raises(DisconnectedForwardingGraph):
        build_topology(minimal_topology)


# --------------------------------------------------------------- the mesh

def test_own_fec_is_local_delivery():
    graph = build_topology(base_topology())
    lsp = compute_infrastructure_lsps(graph)
    rid = graph.rid_of("LER12")
    assert lsp.trail(rid, rid) == [rid]


def test_reference_trails_exist_and_are_loop_free():
    graph = build_topology(base_topology())
    lsp = compute_infrastructure_lsps(graph)
    t1 = lsp.trail(graph.rid_of("LER33"), graph.rid_of("ALER3"))
    assert [graph.name_of(r) for r in t1] == ["LER33", "P3", "ALER3"]
    t2 = lsp.trail(graph.rid_of("ALER3"), graph.rid_of("ALER1"))
    assert [graph.name_of(r) for r in t2] == ["ALER3", "P0", "ALER1"]


def test_mesh_covers_every_ordered_pair():
    graph = build_topology(base_topology())
    lsp = compute_infrastructure_lsps(graph)
    fwd = graph.forwarding_nodes()
    for src in fwd:
        for dst in fwd:
            if src == dst:
                continue
            trail = lsp.trail(src, dst)
            assert trail[0] == src and trail[-1] == dst
            # the last in-label pops at the owner
            assert lsp.action(dst, lsp.in_label_for(dst, dst))[0] == "pop"


def test_trail_lengths_match_independent_oracle():
    graph = build_topology(base_topology())
    lsp = compute_infrastructure_lsps(graph)
    fwd = graph.forwarding_nodes()
    adjacency = {r: [p for p in graph.neighbors(r) if p in set(fwd)]
                 for r in fwd}
    oracle = floyd_warshall(adjacency)
    for src in fwd:
        for dst in fwd:
            assert len(lsp.trail(src, dst)) - 1 == oracle[src][dst]


@st.composite
def random_area_graph(draw):
    """Connected single-area graph: 1 ALER + 1 AMRR + LERs + LSRs."""
    n_ler = draw(st.integers(min_value=1, max_value=5))
    n_lsr = draw(st.integers(min_value=0, max_value=5))
    nodes = [{"id": "9.0.0.1", "name": "A", "role": "ALER", "area": 1},
             {"id": "9.0.0.2", "name": "RR", "role": "AMRR", "area": 1}]
    names = ["A"]
    for i in range(n_ler):
        nodes.append({"id": f"9.0.1.{i}", "name": f"E{i}", "role": "LER",
                      "area": 1})
        names.append(f"E{i}")
    for i in range(n_lsr):
        nodes.append({"id": f"9.0.2.{i}", "name": f"P{i}", "role": "LSR"})
        names.append(f"P{i}")
    edges = [{"a": "RR", "b": "A"}]
    seen = set()
    for i, name in enumerate(names[1:], start=1):
        peer = names[draw(st.integers(min_value=0, max_value=i - 1))]
        edges.append({"a": name, "b": peer})  # random tree keeps it connected
        seen.add(frozenset((name, peer)))
    extra = draw(st.integers(min_value=0, max_value=4))
    for _ in range(extra):
        a = names[draw(st.integers(min_value=0, max_value=len(names) - 1))]
        b = names[draw(st.integers(min_value=0, max_value=len(names) - 1))]
        if a != b and frozenset((a, b)) not in seen:
            seen.add(frozenset((a, b)))
            edges.append({"a": a, "b": b})
    regions = {f"MR{i}": {"ler": f"E{i}", "cells": ["c1"]}
               for i in range(n_ler)}
    return {"nodes": nodes, "edges": edges, "regions": regions}


@settings(max_examples=60, deadline=None)
@given(random_area_graph())
def test_mesh_complete_and_optimal_on_random_graphs(spec):
    graph = build_topology(spec)
    lsp = compute_infrastructure_lsps(graph)
    fwd = graph.forwarding_nodes()
    adjacency = {r: [p for p in graph.neighbors(r) if p in set(fwd)]
                 for r in fwd}
    oracle = floyd_warshall(adjacency)
    for src in fwd:
        for dst in fwd:
            trail = lsp.trail(src, dst)  # raises on loops
            assert len(trail) - 1 == oracle[src][dst]


def test_control_latency_symmetric_and_covers_amrrs():
    graph = build_topology(base_topology())
    latency = control_latency_matrix(graph)
    a1 = graph.rid_of("AMRR1")
    a3 = graph.rid_of("AMRR3")
    assert latency[a1][a3] == latency[a3][a1] > 0


def test_interface_names_follow_sorted_neighbors():
    graph = build_topology(base_topology())
    aler1 = graph.rid_of("ALER1")
    neighbors = graph.neighbors(aler1)
    assert graph.interface_name(aler1, neighbors[0]) == "GIG0/0/0"
    assert graph.interface_name(aler1, neighbors[-1]) == \
        f"GIG0/0/{len(neighbors) - 1}"


# ------------------------------------------- lazy tables vs the full mesh

def _eager_hop_distances(graph, source):
    dist = {source: 0}
    frontier = [source]
    while frontier:
        nxt = []
        for node in frontier:
            for peer in sorted(graph.edges[node]):
                if graph.nodes[peer].role in FORWARDING_ROLES and peer not in dist:
                    dist[peer] = dist[node] + 1
                    nxt.append(peer)
        frontier = nxt
    return dist


def eager_mesh(graph):
    """The full mesh as it was built before the first event: one monotonic
    label allocator per node, one BFS per FEC, lowest-router-id ties."""
    fwd = graph.forwarding_nodes()
    allocators = {node: LabelAllocator() for node in fwd}
    fec_next = {n: {} for n in fwd}
    in_actions = {n: {} for n in fwd}
    in_label = {}
    for fec in fwd:
        dist = _eager_hop_distances(graph, fec)
        labels = {node: allocators[node].allocate() for node in fwd}
        in_label[fec] = labels
        in_actions[fec][labels[fec]] = ("pop",)
        for node in fwd:
            if node == fec:
                continue
            nh = min(p for p in sorted(graph.edges[node])
                     if graph.nodes[p].role in FORWARDING_ROLES and p in dist
                     and dist[p] == dist[node] - 1)
            fec_next[node][fec] = (labels[nh], nh)
            in_actions[node][labels[node]] = ("swap", labels[nh], nh)
    return fec_next, in_actions, in_label


def eager_latencies(graph):
    """All-pairs Dijkstra over the full graph, every source up front."""
    out = {}
    for src in sorted(graph.nodes):
        dist = {src: 0.0}
        heap = [(0.0, src)]
        while heap:
            d, node = heapq.heappop(heap)
            if d > dist.get(node, float("inf")):
                continue
            for peer in sorted(graph.edges[node]):
                nd = d + graph.edges[node][peer]
                if nd < dist.get(peer, float("inf")):
                    dist[peer] = nd
                    heapq.heappush(heap, (nd, peer))
        out[src] = dist
    return out


def assert_lazy_tables_match_eager(graph):
    fec_next, in_actions, in_label = eager_mesh(graph)
    fwd = graph.forwarding_nodes()
    # one table answers next hops first, the other answers actions first,
    # so both fill orders are exercised
    by_fec = compute_infrastructure_lsps(graph)
    for fec in reversed(fwd):
        for node in fwd:
            assert by_fec.in_label_for(node, fec) == in_label[fec][node]
            if node == fec:
                with pytest.raises(NoRouteToNextHop):
                    by_fec.next_hop(node, fec)
            else:
                assert by_fec.next_hop(node, fec) == fec_next[node][fec]
    by_label = compute_infrastructure_lsps(graph)
    labels = range(15, 16 + len(fwd) + 1)  # both ends of the label range
    for node in sorted(graph.nodes):  # AMRRs forward nothing
        for label in labels:
            expected = in_actions.get(node, {}).get(label)
            assert by_label.action(node, label) == expected
            assert by_fec.action(node, label) == expected

    latency = control_latency_matrix(graph)
    for src, row in sorted(eager_latencies(graph).items(), reverse=True):
        assert latency[src] == row
    with pytest.raises(KeyError):
        latency["no-such-node"]


@st.composite
def shuffled_ids(draw, graphs):
    """A drawn graph with its router ids permuted, so that BFS discovery
    order no longer follows router-id order."""
    spec = draw(graphs)
    ids = draw(st.permutations([node["id"] for node in spec["nodes"]]))
    for node, rid in zip(spec["nodes"], ids):
        node["id"] = rid
    return spec


@settings(max_examples=60, deadline=None)
@given(shuffled_ids(random_area_graph()))
def test_lazy_tables_match_eager_mesh_on_random_graphs(spec):
    assert_lazy_tables_match_eager(build_topology(spec))


def crossed_ladder():
    """E0 reaches Y over two equal paths, E0-A-Z-Y and E0-B-C-Y.  Z is found
    before C although C has the lower router id, so Y's next hop toward E0
    is C only if each BFS level is visited in router-id order."""
    nodes = [("E0", "9.0.1.0", "LER"), ("A", "9.0.2.1", "LSR"),
             ("B", "9.0.2.2", "LSR"), ("Z", "9.0.2.9", "LSR"),
             ("C", "9.0.2.3", "LSR"), ("Y", "9.0.2.5", "LSR"),
             ("AL", "9.0.0.1", "ALER"), ("RR", "9.0.0.2", "AMRR")]
    links = ["E0-A", "E0-B", "A-Z", "B-C", "Z-Y", "C-Y", "Y-AL", "AL-RR"]
    return {
        "nodes": [{"id": rid, "name": name, "role": role, "area": 1}
                  if role != "LSR" else {"id": rid, "name": name, "role": role}
                  for name, rid, role in nodes],
        "edges": [dict(zip("ab", link.split("-"))) for link in links],
        "regions": {"MR0": {"ler": "E0", "cells": ["c1"]}},
    }


@pytest.mark.parametrize("spec", [base_topology(), base_topology(ha_area=1),
                                  crossed_ladder()],
                         ids=["base", "base_ha", "crossed_ladder"])
def test_lazy_tables_match_eager_mesh(spec):
    assert_lazy_tables_match_eager(build_topology(spec))


def test_startup_run_fills_only_the_fecs_and_rows_it_uses():
    doc = startup_scenario()
    doc["topology"] = base_topology(n_areas=20, lers_per_area=15)
    doc["mobility"]["attach"] = [
        {"t": 0.0, "prefix": MN, "region": "MR1_2"},
        {"t": 0.0, "prefix": CN, "region": "MR3_3"},
    ]
    sim = run(doc)
    row = sim.metrics.finalize()["cn-to-mn"]
    assert row["ingress"] > 0 and row["delivered"] == row["ingress"]
    fwd = sim.graph.forwarding_nodes()
    assert len(fwd) >= 300
    filled = {fec for fecs in sim.lsp.fec_next.values() for fec in fecs}
    assert 0 < len(filled) < len(fwd)
    assert 0 < len(sim.latency) < len(sim.graph.nodes)
