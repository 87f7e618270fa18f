"""Seeded scenario generator for the benchmark workloads.

Every workload is a scenario document built here from a seed; the program
under test only ever sees the JSON file written from it.  Router ids and
names are collision-free at any size: ids encode a role and a 16-bit
running index, names separate area and index with an underscore.

Topology, for ``areas`` areas of ``lers`` LERs each: one backbone LSR
``P0``; per area an ALER on ``P0``, an AMRR on the ALER, and a regional LSR
on the ALER that every LER of the area hangs off.  Forwarding nodes number
``areas * lers + 2 * areas + 1``.
"""

from __future__ import annotations

import ipaddress
import random
from dataclasses import dataclass

MOBILITY_RANGE = "10.0.0.0/8"

# second octet of a router id, by role
_ROLE_OCTET = {"LER": 1, "ALER": 2, "AMRR": 3, "LSR": 4}


def router_id(role: str, index: int) -> str:
    """Unique dotted-quad id for the ``index``-th node of ``role``."""
    if not 0 <= index < 1 << 16:
        raise ValueError(f"router index {index} out of range")
    return f"20.{_ROLE_OCTET[role]}.{index >> 8}.{index & 0xFF}"


def mobile_prefix(index: int) -> str:
    """Host prefix of the ``index``-th mobile, inside the mobility range."""
    base = int(ipaddress.IPv4Address("10.0.0.1"))
    return f"{ipaddress.IPv4Address(base + index)}/32"


def region_name(area: int, ler: int) -> str:
    return f"MR{area}_{ler}"


def topology(areas: int, lers: int) -> dict:
    nodes = [{"id": router_id("LSR", 0), "name": "P0", "role": "LSR"}]
    edges = []
    regions = {}
    for area in range(1, areas + 1):
        aler, amrr, lsr = f"ALER{area}", f"AMRR{area}", f"P{area}"
        nodes.append({"id": router_id("ALER", area), "name": aler,
                      "role": "ALER", "area": area})
        nodes.append({"id": router_id("AMRR", area), "name": amrr,
                      "role": "AMRR", "area": area})
        nodes.append({"id": router_id("LSR", area), "name": lsr, "role": "LSR"})
        edges += [{"a": aler, "b": "P0"}, {"a": amrr, "b": aler},
                  {"a": lsr, "b": aler}]
        for i in range(1, lers + 1):
            name = f"LER{area}_{i}"
            nodes.append({"id": router_id("LER", (area - 1) * lers + i),
                          "name": name, "role": "LER", "area": area})
            edges.append({"a": name, "b": lsr})
            regions[region_name(area, i)] = {"ler": name, "cells": ["c1", "c2"]}
    return {"nodes": nodes, "edges": edges, "regions": regions}


@dataclass(frozen=True)
class Workload:
    """Sizes of one workload; ``movers`` of the mobiles roam on a ring."""

    name: str
    why: str
    areas: int
    lers: int
    mobiles: int
    flows: int
    rate_pps: float
    duration_s: float
    movers: int = 0
    mu: float = 1.0
    p: float = 0.0

    @property
    def ingress(self) -> int:
        """Packets every flow sends, from 0.5 s to 0.5 s before the end."""
        return self.flows * round(self.rate_pps * (self.duration_s - 1.0))

    def document(self, seed: int) -> dict:
        """The scenario for ``seed``; equal seeds give equal documents.

        Mobiles are spread evenly over the regions, and so over the areas,
        in a seed-shuffled order.  Each flow runs between two mobiles that
        start in different areas, so every packet crosses the backbone
        through two ALERs.  Flows send from 0.5 s, after start-up
        registration, to 0.5 s before the end, so the ingress count is the
        same for every seed.
        """
        rng = random.Random(seed)
        area = {region_name(a, i): a for a in range(1, self.areas + 1)
                for i in range(1, self.lers + 1)}
        regions = list(area)
        prefixes = [mobile_prefix(k) for k in range(self.mobiles)]
        slots = [regions[k * len(regions) // self.mobiles]
                 for k in range(self.mobiles)]
        rng.shuffle(slots)
        home = dict(zip(prefixes, slots))
        if len({area[r] for r in slots}) < 2:
            raise ValueError("flows need mobiles in at least two areas")

        flows = []
        for f in range(self.flows):
            while True:
                src, dst = rng.sample(prefixes, 2)
                if area[home[src]] != area[home[dst]]:
                    break
            flows.append({"id": f"f{f}", "src": src, "dst": dst,
                          "rate_pps": self.rate_pps, "start_s": 0.5,
                          "stop_s": self.duration_s - 0.5})

        mobility = {"attach": [{"t": 0.0, "prefix": p, "region": home[p]}
                               for p in prefixes],
                    "move": [], "detach": []}
        if self.movers:
            ring = {r: sorted({regions[i - 1], regions[(i + 1) % len(regions)]})
                    for i, r in enumerate(regions)}
            mobility["model"] = {"mu": self.mu, "p": self.p,
                                 "prefixes": prefixes[:self.movers],
                                 "adjacency": ring}
        return {
            "name": f"bench_{self.name}",
            "seed": seed,
            "duration_s": self.duration_s,
            "mobility_range": [MOBILITY_RANGE],
            "timers": {"keepalive_s": 0.5, "dead_s": 1.5, "lifetime_s": 15.0},
            "topology": topology(self.areas, self.lers),
            "mobility": mobility,
            "flows": flows,
            "flags": {"overlap_attach": True},
        }


WORKLOADS = {w.name: w for w in (
    Workload(
        "steady_flows",
        "stationary mobiles with heavy flows: forwarding, LER cache hits, "
        "event heap and trace serialisation dominate; control plane idle",
        areas=4, lers=4, mobiles=32, flows=32, rate_pps=50.0, duration_s=4.0),
    Workload(
        "roaming",
        "every mobile roams a ring of regions: binding writes in AMRR, ALER "
        "and LER plus message encoding dominate; few data packets",
        areas=10, lers=10, mobiles=200, flows=160, rate_pps=1.0,
        duration_s=5.0, movers=200, mu=2.0, p=0.9),
    Workload(
        "wide_mesh",
        "361 forwarding nodes, light traffic: the O(F^2) LSP mesh and control "
        "latency matrix dominate set-up time and memory",
        areas=18, lers=18, mobiles=36, flows=20, rate_pps=20.0, duration_s=4.0),
)}
