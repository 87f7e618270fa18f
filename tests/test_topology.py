import heapq
import ipaddress
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hmlbn.errors import LabelSpaceExhausted, NoRouteToNextHop, ScenarioInvalid
from hmlbn.labels import LABEL_MAX, LabelAllocator
from hmlbn.scenarios import CN, MN, base_topology, startup_scenario
from hmlbn.topology import (
    FORWARDING_ROLES,
    POP,
    NodeRole,
    build_topology,
    compute_infrastructure_lsps,
    control_latency_matrix,
)

from helpers import floyd_warshall, run, trail


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
    graph = build_topology(spec)  # raises ScenarioInvalid on a clash
    for rid in graph.nodes:
        ipaddress.IPv4Address(rid)
    assert len(spec["regions"]) == n_areas * lers_per_area
    assert len(graph.by_role(NodeRole.LER)) == n_areas * lers_per_area


def test_minimal_single_area_graph(minimal_topology):
    graph = build_topology(minimal_topology)
    assert graph.by_role(NodeRole.LER) == ["10.0.0.1"]


@pytest.mark.parametrize("spec", [base_topology(),
                                  base_topology(12, 4, ha_area=2)])
def test_by_role_equals_a_sorted_scan(spec):
    graph = build_topology(spec)
    areas = sorted({info.area for info in graph.nodes.values()})
    assert 0 in areas
    for role in NodeRole:
        for area in [None, *areas, max(areas) + 1]:
            scan = sorted(rid for rid, info in graph.nodes.items()
                          if info.role is role
                          and (area is None or info.area == area))
            assert graph.by_role(role, area) == scan, (role, area)


def test_by_role_returns_a_list_of_its_own(minimal_topology):
    graph = build_topology(minimal_topology)
    for role, area in ((NodeRole.LER, None), (NodeRole.LER, 1),
                       (NodeRole.LSR, None), (NodeRole.LER, 2)):
        before = list(graph.by_role(role, area))
        mutated = graph.by_role(role, area)
        mutated.append("10.9.9.9")
        assert graph.by_role(role, area) == before
        mutated.clear()
        assert graph.by_role(role, area) == before


def problems_of(spec) -> list:
    """The problems ``build_topology`` refuses ``spec`` with."""
    with pytest.raises(ScenarioInvalid) as refused:
        build_topology(spec)
    return refused.value.problems


def test_ler_without_area_rejected(minimal_topology):
    minimal_topology["nodes"][0]["area"] = 0
    assert problems_of(minimal_topology) == [
        ("topology.nodes[0].area", "E1 has role LER but no area")]


def test_area_without_amrr_rejected(minimal_topology):
    minimal_topology["nodes"] = minimal_topology["nodes"][:2]
    minimal_topology["edges"] = minimal_topology["edges"][:1]
    assert problems_of(minimal_topology) == [
        ("topology.nodes", "area 1 has no AMRR")]


def test_duplicate_router_id_rejected(minimal_topology):
    minimal_topology["nodes"].append(
        {"id": "10.0.0.1", "name": "E2", "role": "LER", "area": 1})
    assert problems_of(minimal_topology) == [
        ("topology.nodes[3]", "duplicate node 'E2' (10.0.0.1)")]
    # a name that is another node's router id would name two nodes
    minimal_topology["nodes"][3] = {"id": "10.0.0.4", "name": "10.0.0.2",
                                    "role": "LSR"}
    assert problems_of(minimal_topology) == [
        ("topology.nodes[3]", "duplicate node '10.0.0.2' (10.0.0.4)")]


def test_disconnected_forwarding_graph_rejected(minimal_topology):
    minimal_topology["nodes"].append(
        {"id": "10.0.0.9", "name": "E9", "role": "LSR"})
    assert problems_of(minimal_topology) == [
        ("topology.nodes[3]", "unreachable from E1")]
    # reached through the AMRR only: no data path
    minimal_topology["edges"].append({"a": "E9", "b": "R1"})
    assert problems_of(minimal_topology) == [
        ("topology.nodes[3]", "unreachable from E1 over forwarding nodes")]


def test_every_topology_problem_is_reported_at_once(minimal_topology):
    minimal_topology["nodes"].append(
        {"id": "10.0.0.2", "name": "A2", "role": "ALER", "area": 1})
    minimal_topology["edges"] += [{"a": "E1", "b": "E1"},
                                  {"a": "E1", "b": "R1", "latency_ms": -1}]
    minimal_topology["regions"]["MR2"] = {"ler": "R1", "cells": []}
    assert problems_of(minimal_topology) == [
        ("topology.nodes[3]", "duplicate node 'A2' (10.0.0.2)"),
        ("topology.edges[2]", "self edge at 'E1'"),
        ("topology.edges[3].latency_ms", "must be positive"),
        ("topology.regions.MR2.cells", "expected a non-empty list of cell names"),
    ]


# --------------------------------------------------------------- the mesh

def test_own_fec_is_local_delivery():
    graph = build_topology(base_topology())
    lsp = compute_infrastructure_lsps(graph)
    rid = graph.rid_of("LER12")
    assert trail(lsp, rid, rid) == [rid]


def test_reference_trails_exist_and_are_loop_free():
    graph = build_topology(base_topology())
    lsp = compute_infrastructure_lsps(graph)
    t1 = trail(lsp, graph.rid_of("LER33"), graph.rid_of("ALER3"))
    assert [graph.name_of(r) for r in t1] == ["LER33", "P3", "ALER3"]
    t2 = trail(lsp, graph.rid_of("ALER3"), graph.rid_of("ALER1"))
    assert [graph.name_of(r) for r in t2] == ["ALER3", "P0", "ALER1"]


def test_mesh_covers_every_ordered_pair():
    graph = build_topology(base_topology())
    lsp = compute_infrastructure_lsps(graph)
    fwd = graph.forwarding_nodes()
    for src in fwd:
        for dst in fwd:
            if src == dst:
                continue
            path = trail(lsp, src, dst)
            assert path[0] == src and path[-1] == dst
            # the last in-label pops at the owner
            assert lsp.fec_next[dst][lsp.label(dst)] is POP


def test_trail_lengths_match_independent_oracle():
    graph = build_topology(base_topology())
    lsp = compute_infrastructure_lsps(graph)
    fwd = graph.forwarding_nodes()
    adjacency = {r: [p for p in graph.neighbors(r) if p in set(fwd)]
                 for r in fwd}
    oracle = floyd_warshall(adjacency)
    for src in fwd:
        for dst in fwd:
            assert len(trail(lsp, src, dst)) - 1 == oracle[src][dst]


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
            path = trail(lsp, src, dst)  # raises on loops
            assert len(path) - 1 == oracle[src][dst]


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
    label allocator per node, one BFS per FEC, lowest-router-id ties.
    Every node binds the same label to a FEC, so a node's row maps the
    label to the next hop, the label staying as it is, or to ``POP`` at the
    FEC's owner."""
    fwd = graph.forwarding_nodes()
    allocators = {node: LabelAllocator() for node in fwd}
    rows = {n: {} for n in fwd}
    in_label = {}
    for fec in fwd:
        dist = _eager_hop_distances(graph, fec)
        labels = {node: allocators[node].allocate() for node in fwd}
        assert len(set(labels.values())) == 1, (fec, labels)
        in_label[fec] = labels
        rows[fec][labels[fec]] = POP
        for node in fwd:
            if node == fec:
                continue
            nh = min(p for p in sorted(graph.edges[node])
                     if graph.nodes[p].role in FORWARDING_ROLES and p in dist
                     and dist[p] == dist[node] - 1)
            assert labels[nh] == labels[node]
            rows[node][labels[node]] = nh
    return rows, in_label


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


def seeded_shuffle(pairs):
    return random.Random(0).sample(pairs, len(pairs))


def assert_lazy_tables_match_eager(graph, permute=seeded_shuffle):
    """Every lookup, and then every whole table, equals the eager one.

    The (node, fec) and (src, dst) pairs are read in ``permute`` order and
    the latencies once more in descending order, so that paused searches
    are resumed from the middle.
    """
    rows, in_label = eager_mesh(graph)
    fwd = graph.forwarding_nodes()
    # one table answers next hops first, the other answers labels first,
    # so both fill orders are exercised
    by_fec = compute_infrastructure_lsps(graph)
    for node, fec in permute([(node, fec) for node in fwd for fec in fwd]):
        label = in_label[fec][node]
        assert by_fec.label(fec) == label
        if node == fec:
            with pytest.raises(NoRouteToNextHop):
                by_fec.next_hop(node, fec)
        else:
            assert by_fec.next_hop(node, fec) == (label, rows[node][label])
    # next-hop reads fill every entry but the owners' POPs
    assert by_fec.fec_next == {node: {label: hop for label, hop in row.items()
                                      if hop is not POP}
                               for node, row in rows.items()}
    by_label = compute_infrastructure_lsps(graph)
    labels = range(15, 16 + len(fwd) + 1)  # both ends of the label range
    for node in sorted(graph.nodes):
        if node not in rows:  # AMRRs forward nothing
            assert node not in by_label.fec_next
            assert node not in by_fec.fec_next
            continue
        for label in labels:
            expected = rows[node].get(label)
            assert by_label.fec_next[node][label] == expected
            assert by_fec.fec_next[node][label] == expected
    assert by_label.fec_next == by_fec.fec_next == rows

    eager = eager_latencies(graph)
    pairs = [(src, dst) for src in eager for dst in eager[src]]
    for order in (sorted(pairs, reverse=True), permute(pairs)):
        latency = control_latency_matrix(graph)
        for src, dst in order:
            assert latency[src][dst] == eager[src][dst]
        for src, row in eager.items():
            assert latency[src] == row
        with pytest.raises(KeyError):
            latency["no-such-node"]
        with pytest.raises(KeyError):
            latency[src]["no-such-node"]


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
@given(shuffled_ids(random_area_graph()), st.data())
def test_lazy_tables_match_eager_mesh_on_random_graphs(spec, data):
    assert_lazy_tables_match_eager(
        build_topology(spec), lambda pairs: data.draw(st.permutations(pairs)))


@st.composite
def shuffled_documents(draw, graphs):
    """A drawn graph with latencies, and the same graph with its nodes,
    edges, edge ends and regions each in a drawn order."""
    spec = draw(graphs)
    for edge in spec["edges"]:
        edge["latency_ms"] = draw(st.sampled_from([0.1, 0.2, 0.3, 0.7, 1.0]))
    edges = [dict(zip("ab", draw(st.permutations([e["a"], e["b"]]))),
                  latency_ms=e["latency_ms"])
             for e in draw(st.permutations(spec["edges"]))]
    regions = dict(draw(st.permutations(list(spec["regions"].items()))))
    return spec, {"nodes": draw(st.permutations(spec["nodes"])),
                  "edges": edges, "regions": regions}


@settings(max_examples=60, deadline=None)
@given(shuffled_documents(random_area_graph()))
def test_entry_order_reaches_no_table(specs):
    """Every table a user can see equals an eager, sorted recomputation
    from the document, whatever the order of its entries."""
    spec, shuffled = specs
    rid = {node["name"]: node["id"] for node in spec["nodes"]}
    peers = {node["id"]: set() for node in spec["nodes"]}
    for edge in spec["edges"]:
        a, b = rid[edge["a"]], rid[edge["b"]]
        peers[a].add(b)
        peers[b].add(a)
    graph = build_topology(spec)
    rows, in_label = eager_mesh(graph)
    eager = eager_latencies(graph)
    for built in (graph, build_topology(shuffled)):
        for node, near in peers.items():
            assert built.neighbors(node) == tuple(sorted(near))
            for k, peer in enumerate(sorted(near)):
                assert built.interface_name(node, peer) == f"GIG0/0/{k}"
        for role in NodeRole:
            for area in (None, 0, 1):
                assert built.by_role(role, area) == sorted(
                    node["id"] for node in spec["nodes"]
                    if node["role"] == role.value
                    and area in (None, node.get("area", 0)))
        lsp = compute_infrastructure_lsps(built)
        for fec, labels in in_label.items():
            for node, label in labels.items():
                if node != fec:
                    assert lsp.next_hop(node, fec) == (label, rows[node][label])
        for node, row in rows.items():
            for label, action in row.items():
                assert lsp.fec_next[node][label] == action
        latency = control_latency_matrix(built)
        for src, row in eager.items():
            assert {dst: latency[src][dst] for dst in row} == row


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


LAZY_SPEC = base_topology(n_areas=4, lers_per_area=3, ha_area=2)


def test_latency_row_fills_only_up_to_the_destination_read():
    graph = build_topology(LAZY_SPEC)
    eager = eager_latencies(graph)
    src = graph.rid_of("LER21")
    for dst in sorted(graph.nodes):
        latency = control_latency_matrix(graph)
        assert latency[src][dst] == eager[src][dst]
        assert list(latency) == [src]
        assert {node for node, ms in eager[src].items()
                if ms <= eager[src][dst]} >= set(latency[src])
    latency = control_latency_matrix(graph)
    latency[src][graph.rid_of("ALER2")]
    assert 1 < len(latency[src]) < len(graph.nodes) // 2
    before = dict(latency[src])
    with pytest.raises(KeyError):
        latency[src]["no-such-node"]
    assert latency[src] == before


def test_fec_fills_only_up_to_the_node_read():
    graph = build_topology(LAZY_SPEC)
    fec = graph.rid_of("ALER2")
    hops = _eager_hop_distances(graph, fec)
    for node in graph.forwarding_nodes():
        if node == fec:
            continue
        lsp = compute_infrastructure_lsps(graph)
        lsp.next_hop(node, fec)
        filled = {n for n, row in lsp.fec_next.items() if row}
        assert all(set(lsp.fec_next[n]) == {lsp.label(fec)} for n in filled)
        assert {n for n in hops if hops[n] <= hops[node]} >= filled
    nearest = graph.rid_of("LER21")
    lsp = compute_infrastructure_lsps(graph)
    lsp.next_hop(nearest, fec)
    assert 0 < sum(map(len, lsp.fec_next.values())) < len(hops) - 1


def test_failed_lookups_leave_the_fill_as_it_was():
    graph = build_topology(LAZY_SPEC)
    fec, amrr = graph.rid_of("ALER2"), graph.rid_of("AMRR2")
    for warm in (False, True):
        lsp = compute_infrastructure_lsps(graph)
        if warm:
            lsp.next_hop(graph.rid_of("LER21"), fec)
        before = {node: dict(row) for node, row in lsp.fec_next.items()}
        for node, target in ((fec, fec), (amrr, fec), (fec, amrr)):
            with pytest.raises(NoRouteToNextHop):
                lsp.next_hop(node, target)
            assert lsp.fec_next == before


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
    filled = {label for row in sim.lsp.fec_next.values() for label in row}
    assert 0 < len(filled) < len(fwd)
    assert 0 < len(sim.latency) < len(sim.graph.nodes)
