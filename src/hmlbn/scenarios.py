"""Bundled scenario library.

One builder per exercised procedure: cold start with an on-demand remote
fill, the three hand-off flavors, binding withdrawal after a reset-and-move
race, ALER fail-over, and parametric area scaling.  All builders return raw
scenario documents (plain JSON-compatible dicts) so they can be written to
disk verbatim and fed back through the validating loader.

The shared topology is a three-level build: per-area LERs behind an ALER
(area 3 and above reach the ALER through a regional LSR), every ALER on a
single backbone LSR ``P0``, and one AMRR hanging off each ALER.
"""

from __future__ import annotations

MN = "10.1.1.1/32"
CN = "10.3.3.1/32"
MOBILITY_RANGE = ["10.0.0.0/8"]


def _router_id(role_octet: int, number: int) -> str:
    """Dotted-quad id ``20.1.<role>.<number>`` for numbers below 256; larger
    numbers carry into the second octet and then the first, so the ids of
    one role never collide."""
    high, low = divmod(number, 256)
    first, second = divmod(high, 255)
    if first > 235:
        raise ValueError(f"router number {number} is out of range")
    return f"{20 + first}.{1 + second}.{role_octet}.{low}"


def _decade(n: int) -> int:
    """The smallest power of ten above ``n``."""
    return 10 ** len(str(n))


def base_topology(n_areas: int = 3, lers_per_area: int = 3,
                  ha_area: int | None = None) -> dict:
    """Router ids and names are distinct at any size.  With at most nine
    LERs per area, LER ``i`` of area ``a`` is named ``LER<a><i>`` and serves
    region ``MR<a><i>``; with more, an underscore separates the numbers."""
    sep = "" if lers_per_area < 10 else "_"
    ler_stride = _decade(lers_per_area)
    spare = max(100, _decade(n_areas))  # a number above every area's
    nodes = [{"id": _router_id(4, spare), "name": "P0", "role": "LSR"}]
    edges = []
    regions = {}
    for area in range(1, n_areas + 1):
        aler = f"ALER{area}"
        nodes.append({"id": _router_id(2, area), "name": aler, "role": "ALER",
                      "area": area})
        edges.append({"a": aler, "b": "P0"})
        nodes.append({"id": _router_id(3, area), "name": f"AMRR{area}",
                      "role": "AMRR", "area": area})
        edges.append({"a": f"AMRR{area}", "b": aler})
        behind_lsr = area >= 3
        if behind_lsr:
            nodes.append({"id": _router_id(4, area), "name": f"P{area}",
                          "role": "LSR"})
            edges.append({"a": f"P{area}", "b": aler})
        for i in range(1, lers_per_area + 1):
            ler = f"LER{area}{sep}{i}"
            nodes.append({"id": _router_id(1, area * ler_stride + i),
                          "name": ler, "role": "LER", "area": area})
            edges.append({"a": ler, "b": f"P{area}" if behind_lsr else aler})
            regions[f"MR{area}{sep}{i}"] = {"ler": ler, "cells": ["c1", "c2"]}
    if ha_area is not None:
        twin = f"ALER{ha_area}B"
        nodes.append({"id": _router_id(2, spare + ha_area), "name": twin,
                      "role": "ALER", "area": ha_area})
        edges.append({"a": twin, "b": "P0"})
        edges.append({"a": f"AMRR{ha_area}", "b": twin})
        for i in range(1, lers_per_area + 1):
            edges.append({"a": f"LER{ha_area}{sep}{i}", "b": twin})
    return {"nodes": nodes, "edges": edges, "regions": regions}


def _skeleton(name: str, duration: float, seed: int = 7, **extra) -> dict:
    doc = {
        "name": name,
        "seed": seed,
        "duration_s": duration,
        "mobility_range": list(MOBILITY_RANGE),
        "topology": base_topology(),
        "mobility": {"attach": [], "move": [], "detach": []},
        "flows": [],
    }
    doc.update(extra)
    return doc


def startup_scenario() -> dict:
    """Mobile registers in area 1, correspondent in area 3 resolves it on
    demand and traffic runs the full segmented path."""
    doc = _skeleton("startup", duration=0.15)
    doc["mobility"]["attach"] = [
        {"t": 0.0, "prefix": MN, "region": "MR12"},
        {"t": 0.0, "prefix": CN, "region": "MR33"},
    ]
    doc["flows"] = [{"id": "cn-to-mn", "src": CN, "dst": MN,
                     "rate_pps": 500, "start_s": 0.05, "stop_s": 0.1}]
    return doc


def local_handoff_scenario() -> dict:
    """Mobile hops between RAN cells of one region mid-flow; pure tracking."""
    doc = _skeleton("local_handoff", duration=0.3)
    doc["mobility"]["attach"] = [
        {"t": 0.0, "prefix": MN, "region": "MR12", "cell": "c1"},
        {"t": 0.0, "prefix": CN, "region": "MR33"},
    ]
    doc["mobility"]["move"] = [
        {"t": 0.15, "prefix": MN, "region": "MR12", "cell": "c2"},
    ]
    doc["flows"] = [{"id": "cn-to-mn", "src": CN, "dst": MN,
                     "rate_pps": 200, "start_s": 0.05, "stop_s": 0.25}]
    return doc


def intra_area_scenario() -> dict:
    """Hand-off between two LERs behind the same ALER."""
    doc = _skeleton("intra_area_handoff", duration=0.4)
    doc["mobility"]["attach"] = [
        {"t": 0.0, "prefix": MN, "region": "MR12"},
        {"t": 0.0, "prefix": CN, "region": "MR33"},
    ]
    doc["mobility"]["move"] = [
        {"t": 0.2, "prefix": MN, "region": "MR13"},
    ]
    doc["flows"] = [{"id": "cn-to-mn", "src": CN, "dst": MN,
                     "rate_pps": 200, "start_s": 0.05, "stop_s": 0.35}]
    doc["flags"] = {"overlap_attach": True}
    return doc


def inter_area_scenario() -> dict:
    """Hand-off across areas: requestor-list exchange with the old area and
    the two-stage path migration (old, interim via the old ALER, new)."""
    doc = _skeleton("inter_area_handoff", duration=0.35)
    doc["mobility"]["attach"] = [
        {"t": 0.0, "prefix": MN, "region": "MR13"},
        {"t": 0.0, "prefix": CN, "region": "MR33"},
    ]
    doc["mobility"]["move"] = [
        {"t": 0.2, "prefix": MN, "region": "MR21"},
    ]
    doc["flows"] = [{"id": "cn-to-mn", "src": CN, "dst": MN,
                     "rate_pps": 1000, "start_s": 0.05, "stop_s": 0.3}]
    doc["flags"] = {"overlap_attach": True}
    return doc


def withdrawal_scenario() -> dict:
    """Reset-then-move race: the mobile silently resets in area 1, starts
    over in area 2, and the dead-time withdrawal cleans the stale state."""
    doc = _skeleton("withdrawal", duration=5.0)
    doc["timers"] = {"keepalive_s": 0.5, "dead_s": 1.5, "lifetime_s": 15.0}
    doc["mobility"]["attach"] = [
        {"t": 0.0, "prefix": MN, "region": "MR12"},
        {"t": 1.3, "prefix": MN, "region": "MR21"},
        {"t": 0.0, "prefix": CN, "region": "MR33"},
    ]
    doc["mobility"]["detach"] = [
        {"t": 1.0, "prefix": MN},
    ]
    doc["flows"] = [{"id": "cn-to-mn", "src": CN, "dst": MN,
                     "rate_pps": 50, "start_s": 0.05, "stop_s": 4.5}]
    return doc


def ha_failover_scenario() -> dict:
    """ALER pair in area 1; the one carrying a live remote flow fails."""
    doc = _skeleton("ha_failover", duration=0.4)
    doc["topology"] = base_topology(ha_area=1)
    doc["mobility"]["attach"] = [
        {"t": 0.0, "prefix": MN, "region": "MR11"},
        {"t": 0.0, "prefix": CN, "region": "MR33"},
    ]
    doc["flows"] = [{"id": "cn-to-mn", "src": CN, "dst": MN,
                     "rate_pps": 500, "start_s": 0.05, "stop_s": 0.35}]
    doc["failures"] = [{"t": 0.2, "node": "ALER1"}]
    doc["flags"] = {"ha_pairs": [["ALER1", "ALER1B"]]}
    return doc


def scaling_intra_scenario(n_areas: int) -> dict:
    """Intra-area hand-off with a variable number of uninvolved areas."""
    return _scaled(intra_area_scenario(), "scaling_intra", n_areas)


def scaling_inter_scenario(n_areas: int) -> dict:
    """Inter-area hand-off with a variable number of uninvolved areas."""
    return _scaled(inter_area_scenario(), "scaling_inter", n_areas)


def _scaled(doc: dict, name: str, n_areas: int) -> dict:
    doc["name"] = f"{name}_{n_areas}"
    doc["topology"] = base_topology(n_areas=n_areas)
    return doc


def random_walk_scenario() -> dict:
    """Stochastic mobile roaming over the nine regions for longer-horizon
    smoke runs; traffic rides along to exercise resolution under movement."""
    adjacency = {}
    order = [f"MR{a}{i}" for a in (1, 2, 3) for i in (1, 2, 3)]
    for idx, region in enumerate(order):
        nbrs = []
        if idx > 0:
            nbrs.append(order[idx - 1])
        if idx < len(order) - 1:
            nbrs.append(order[idx + 1])
        adjacency[region] = nbrs
    doc = _skeleton("random_walk", duration=40.0, seed=11)
    doc["timers"] = {"keepalive_s": 0.5, "dead_s": 1.5, "lifetime_s": 15.0}
    doc["mobility"]["attach"] = [
        {"t": 0.0, "prefix": MN, "region": "MR11"},
        {"t": 0.0, "prefix": CN, "region": "MR33"},
    ]
    doc["mobility"]["model"] = {"mu": 0.5, "p": 0.5, "prefixes": [MN],
                                "adjacency": adjacency}
    doc["flows"] = [{"id": "cn-to-mn", "src": CN, "dst": MN,
                     "rate_pps": 20, "start_s": 0.5, "stop_s": 39.0}]
    doc["flags"] = {"overlap_attach": True}
    return doc


def penalty_probe_scenario() -> dict:
    """Single-flow scenario used by the path-penalty cross check; the
    designated anchor node stands in for a home-agent detour."""
    doc = _skeleton("penalty_probe", duration=0.2)
    doc["mobility"]["attach"] = [
        {"t": 0.0, "prefix": MN, "region": "MR12"},
        {"t": 0.0, "prefix": CN, "region": "MR33"},
    ]
    doc["flows"] = [{"id": "cn-to-mn", "src": CN, "dst": MN,
                     "rate_pps": 200, "start_s": 0.05, "stop_s": 0.15}]
    doc["analysis"] = {"ha_node": "LER21"}
    return doc


BUNDLED_SCENARIOS = {
    "startup": startup_scenario,
    "local_handoff": local_handoff_scenario,
    "intra_area_handoff": intra_area_scenario,
    "inter_area_handoff": inter_area_scenario,
    "withdrawal": withdrawal_scenario,
    "ha_failover": ha_failover_scenario,
    "random_walk": random_walk_scenario,
    "penalty_probe": penalty_probe_scenario,
}
