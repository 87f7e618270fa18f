"""Bundled scenario library.

One builder per exercised procedure: cold start with an on-demand remote
fill, the three hand-off flavors, binding withdrawal after a reset-and-move
race, ALER fail-over, and parametric area scaling.  Each adds its moves,
timers, flags or failures to one skeleton: a mobile ``MN`` and a
correspondent ``CN`` in area 3 that sends it one flow.  All builders return
raw scenario documents (plain JSON-compatible dicts) so they can be written
to disk verbatim and fed back through the validating loader.  The pattern
builders give the records ``trace.assert_sequence`` finds, in order, in the
startup and the two area hand-off runs.

The shared topology is a three-level build: per-area LERs behind an ALER
(area 3 and above reach the ALER through a regional LSR), every ALER on a
single backbone LSR ``P0``, and one AMRR hanging off each ALER.
"""

from __future__ import annotations

MN = "10.1.1.1/32"
CN = "10.3.3.1/32"
MOBILITY_RANGE = ["10.0.0.0/8"]
# short enough for dead-time withdrawal and lifetime expiry within a run
FAST_TIMERS = {"keepalive_s": 0.5, "dead_s": 1.5, "lifetime_s": 15.0}


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


def _entry(t: float, prefix: str, region: str, cell: str | None = None) -> dict:
    """An attach or move entry; ``cell`` is written only when given."""
    cells = {} if cell is None else {"cell": cell}
    return {"t": t, "prefix": prefix, "region": region, **cells}


def _skeleton(name: str, duration: float, mn_region: str, rate: int,
              start: float, stop: float, *, seed: int = 7,
              cell: str | None = None, moves=(), **extra) -> dict:
    """The document each bundled scenario starts from.  ``MN`` attaches in
    ``mn_region`` (in ``cell``, if given) and ``CN`` in MR33, both at t = 0;
    one ``cn-to-mn`` flow sends ``rate`` packets/s from ``start`` to
    ``stop``; ``MN`` moves at each ``(t, region[, cell])`` of ``moves``, in
    order.  ``extra`` sets top-level keys: ``topology`` in its place, any
    other after ``flows`` in the order given."""
    return {"name": name, "seed": seed, "duration_s": duration,
            "mobility_range": list(MOBILITY_RANGE),
            "topology": base_topology(),
            "mobility": {"attach": [_entry(0.0, MN, mn_region, cell),
                                    _entry(0.0, CN, "MR33")],
                         "move": [_entry(t, MN, *at) for t, *at in moves],
                         "detach": []},
            "flows": [{"id": "cn-to-mn", "src": CN, "dst": MN,
                       "rate_pps": rate, "start_s": start, "stop_s": stop}],
            **extra}


def startup_scenario() -> dict:
    """Mobile registers in area 1, correspondent in area 3 resolves it on
    demand and traffic runs the full segmented path."""
    return _skeleton("startup", 0.15, "MR12", 500, 0.05, 0.1)


def local_handoff_scenario() -> dict:
    """Mobile hops between RAN cells of one region mid-flow; pure tracking."""
    return _skeleton("local_handoff", 0.3, "MR12", 200, 0.05, 0.25, cell="c1",
                     moves=[(0.15, "MR12", "c2")])


def intra_area_scenario() -> dict:
    """Hand-off between two LERs behind the same ALER."""
    return _skeleton("intra_area_handoff", 0.4, "MR12", 200, 0.05, 0.35,
                     moves=[(0.2, "MR13")], flags={"overlap_attach": True})


def inter_area_scenario() -> dict:
    """Hand-off across areas: requestor-list exchange with the old area and
    the two-stage path migration (old, interim via the old ALER, new)."""
    return _skeleton("inter_area_handoff", 0.35, "MR13", 1000, 0.05, 0.3,
                     moves=[(0.2, "MR21")], flags={"overlap_attach": True})


def withdrawal_scenario() -> dict:
    """Reset-then-move race: the mobile silently resets in area 1, starts
    over in area 2, and the dead-time withdrawal cleans the stale state."""
    doc = _skeleton("withdrawal", 5.0, "MR12", 50, 0.05, 4.5,
                    timers=dict(FAST_TIMERS))
    doc["mobility"]["attach"].insert(1, _entry(1.3, MN, "MR21"))
    doc["mobility"]["detach"].append({"t": 1.0, "prefix": MN})
    return doc


def ha_failover_scenario() -> dict:
    """ALER pair in area 1; the one carrying a live remote flow fails."""
    return _skeleton("ha_failover", 0.4, "MR11", 500, 0.05, 0.35,
                     topology=base_topology(ha_area=1),
                     failures=[{"t": 0.2, "node": "ALER1"}],
                     flags={"ha_pairs": [["ALER1", "ALER1B"]]})


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
    order = [f"MR{a}{i}" for a in (1, 2, 3) for i in (1, 2, 3)]
    doc = _skeleton("random_walk", 40.0, "MR11", 20, 0.5, 39.0, seed=11,
                    timers=dict(FAST_TIMERS), flags={"overlap_attach": True})
    doc["mobility"]["model"] = {
        "mu": 0.5, "p": 0.5, "prefixes": [MN],
        "adjacency": {region: order[max(i - 1, 0):i] + order[i + 1:i + 2]
                      for i, region in enumerate(order)}}
    return doc


def penalty_probe_scenario() -> dict:
    """Single-flow scenario used by the path-penalty cross check; the
    designated anchor node stands in for a home-agent detour."""
    return _skeleton("penalty_probe", 0.2, "MR12", 200, 0.05, 0.15,
                     analysis={"ha_node": "LER21"})


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


def startup_pattern(prefix: str = MN) -> list:
    """Control sequence of a cold registration plus a remote on-demand fill."""
    return [
        {"event": "ctl_send", "msg": "BindingUpdate", "update_type": "INTERNAL",
         "src_role": "LER", "dst_role": "AMRR", "prefix": prefix},
        {"event": "ctl_send", "msg": "BindingUpdate", "update_type": "INTERNAL",
         "src_role": "AMRR", "dst_role": "ALER", "prefix": prefix},
        {"event": "ctl_send", "msg": "BindingUpdate", "update_type": "EXTERNAL",
         "src_role": "ALER", "dst_role": "AMRR", "prefix": prefix},
        {"event": "ctl_send", "msg": "BindingRequest",
         "src_role": "LER", "dst_role": "AMRR", "prefix": prefix},
        {"event": "ctl_send", "msg": "BindingRequest",
         "src_role": "AMRR", "dst_role": "AMRR", "prefix": prefix},
        {"event": "ctl_send", "msg": "BindingRequest",
         "src_role": "AMRR", "dst_role": "AMRR", "prefix": prefix},
        {"event": "ctl_send", "msg": "BindingReplyPositive",
         "src_role": "AMRR", "dst_role": "AMRR", "prefix": prefix},
        {"event": "ctl_send", "msg": "BindingUpdate", "update_type": "EXTERNAL",
         "src_role": "AMRR", "dst_role": "ALER", "prefix": prefix},
        {"event": "ctl_send", "msg": "BindingUpdate", "update_type": "INTERNAL",
         "src_role": "ALER", "dst_role": "AMRR", "prefix": prefix},
        {"event": "ctl_send", "msg": "BindingReplyPositive",
         "src_role": "AMRR", "dst_role": "LER", "prefix": prefix},
    ]


def intra_area_pattern(prefix: str = MN) -> list:
    """Hand-off between LERs behind one ALER: one update in, one reflect."""
    return [
        {"event": "ctl_send", "msg": "BindingUpdate", "update_type": "INTERNAL",
         "src": "LER13", "dst": "AMRR1", "prefix": prefix},
        {"event": "ctl_send", "msg": "BindingUpdate", "update_type": "INTERNAL",
         "src": "AMRR1", "dst": "ALER1", "prefix": prefix},
        {"event": "fib_update", "src": "ALER1", "origin": "LER13",
         "prefix": prefix},
    ]


def inter_area_pattern(prefix: str = MN) -> list:
    """Two-stage inter-area hand-off with the interim reroute via the old
    area's ALER visible between the stages."""
    return [
        {"event": "ctl_send", "msg": "BindingUpdate", "update_type": "INTERNAL",
         "src": "LER21", "dst": "AMRR2", "prefix": prefix},
        {"event": "ctl_send", "msg": "BindingUpdate", "update_type": "INTERNAL",
         "src": "AMRR2", "dst": "ALER2", "prefix": prefix},
        {"event": "ctl_send", "msg": "BindingUpdate", "update_type": "EXTERNAL",
         "src": "ALER2", "dst": "AMRR2", "prefix": prefix},
        {"event": "ctl_send", "msg": "BindingUpdate", "update_type": "EXTERNAL",
         "src": "AMRR2", "dst": "AMRR1", "prefix": prefix},
        {"event": "ctl_send", "msg": "LrlRequest",
         "src": "AMRR2", "dst": "AMRR1", "prefix": prefix},
        {"event": "ctl_send", "msg": "BindingUpdate", "update_type": "EXTERNAL",
         "src": "AMRR1", "dst": "ALER1", "prefix": prefix},
        {"event": "ctl_send", "msg": "LrlReply",
         "src": "AMRR1", "dst": "AMRR2", "prefix": prefix},
        {"event": "data_hop", "src": "ALER1", "dst": "P0"},
        {"event": "ctl_send", "msg": "BindingUpdate", "update_type": "EXTERNAL",
         "src": "AMRR2", "dst": "AMRR3", "prefix": prefix},
        {"event": "ctl_send", "msg": "BindingUpdate", "update_type": "EXTERNAL",
         "src": "AMRR3", "dst": "ALER3", "prefix": prefix},
        {"event": "fib_update", "src": "ALER3", "origin": "ALER2",
         "prefix": prefix},
    ]


BUNDLED_PATTERNS = {
    "startup": startup_pattern,
    "intra_area": intra_area_pattern,
    "inter_area": inter_area_pattern,
}
