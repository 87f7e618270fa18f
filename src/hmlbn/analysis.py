"""Triangular-routing penalty model.

Detour routing through an anchor (home-agent style) costs extra router
hops.  This module computes the per-position hop difference on arbitrary
graphs, the stationary distribution and mean of the mobility Markov chain
over those differences, worst-case bounds as a function of network
diameter, and the resulting delay/loss penalties.  A Monte Carlo chain
simulator provides the independent check for the closed forms, and a
simulator-backed probe cross-validates graph numbers against measured
packet paths.

Hop counting convention: a distance in router hops counts the routers a
packet crosses, so the diameter of a single-router network is 1 and the
worst-case detour bound 2*(k - 1) is exact (it is attained by placing the
mobile at the correspondent's own router).
"""

from __future__ import annotations

import math
import random
from enum import Enum

from .errors import InvalidDm, VertexNotFound
from .topology import bfs_hops


class PathKind(str, Enum):
    FIXED_TO_MOBILE = "fixedToMobile"
    MOBILE_TO_MOBILE = "mobileToMobile"


# ------------------------------------------------------------ graph side

def hop_difference(adjacency: dict, cn, ha, mn) -> tuple[int, int, int]:
    """(direct hops, detour hops via ha, their difference) for one layout."""
    for vertex in (cn, ha, mn):
        if vertex not in adjacency:
            raise VertexNotFound(f"vertex {vertex!r} not in graph")
    from_cn = bfs_hops(adjacency, cn)
    from_ha = bfs_hops(adjacency, ha)
    if mn not in from_cn or mn not in from_ha or cn not in from_ha:
        raise VertexNotFound("graph is not connected over cn/ha/mn")
    k_optimal = from_cn[mn]
    k_triangular = from_ha[cn] + from_ha[mn]
    return k_optimal, k_triangular, k_triangular - k_optimal


def router_hop_diameter(adjacency: dict) -> int:
    """Network diameter in router hops (vertices on the longest shortest
    path, i.e. edge diameter + 1)."""
    best = 0
    for source in adjacency:
        dist = bfs_hops(adjacency, source)
        best = max(best, max(dist.values()))
    return best + 1


# ------------------------------------------------------- chain closed form

def stationary_distribution(d_m: int) -> list[float]:
    """Equilibrium occupancy of the hop-difference chain: uniform."""
    if d_m < 1:
        raise InvalidDm(f"need at least two states, got d_m={d_m}")
    return [1.0 / (d_m + 1)] * (d_m + 1)


def expected_penalty(d_m: int) -> float:
    """Mean hop difference at equilibrium: d_m / 2."""
    if d_m < 0:
        raise InvalidDm(f"hop difference bound must be >= 0, got {d_m}")
    return d_m / 2.0


def dm_upper_bound(k: int, kind: PathKind) -> tuple[int, float]:
    """Worst-case hop difference and its equilibrium mean for diameter k."""
    if k < 1:
        raise InvalidDm(f"diameter must be >= 1, got {k}")
    kind = PathKind(kind)
    if kind is PathKind.FIXED_TO_MOBILE:
        d_m = 2 * (k - 1)
    else:
        d_m = 3 * k - 2
    return d_m, d_m / 2.0


def delay_penalty(mean_hops: float, per_hop_mean_ms: float,
                  per_hop_std_ms: float) -> tuple[float, float]:
    """Cumulative extra delay: mean scales with the hop count, the standard
    deviation with its square root (independent per-hop delays)."""
    if not (mean_hops >= 0 and per_hop_mean_ms >= 0 and per_hop_std_ms >= 0):
        raise ValueError("hop count and per-hop delays must be >= 0, not NaN")
    return per_hop_mean_ms * mean_hops, per_hop_std_ms * math.sqrt(mean_hops)


def loss_penalty(mean_hops: float, per_hop_loss: float) -> float:
    """Probability of losing a packet over the extra hops."""
    if not 0.0 <= per_hop_loss <= 1.0:
        raise ValueError("per-hop loss probability must lie in [0, 1]")
    if not mean_hops >= 0:  # a NaN too
        raise ValueError("hop count must be >= 0")
    return 1.0 - (1.0 - per_hop_loss) ** mean_hops


# ------------------------------------------------------ Monte Carlo oracle

def monte_carlo_ctmc(d_m: int, eta: float, jumps: int,
                     seed: int) -> tuple[list[float], float]:
    """Simulate the difference chain directly: exponential(eta) holding
    times, uniform next state over 0..d_m.  Returns the time-weighted
    empirical distribution and mean."""
    if d_m < 1:
        raise InvalidDm(f"need at least two states, got d_m={d_m}")
    if jumps < 1:
        raise ValueError("need at least one jump")
    if eta <= 0:
        raise ValueError("jump rate must be positive")
    rng = random.Random(seed)
    occupancy = [0.0] * (d_m + 1)
    state = 0
    for _ in range(jumps):
        occupancy[state] += rng.expovariate(eta)
        state = rng.randrange(d_m + 1)
    total = math.fsum(occupancy)
    pi = [t / total for t in occupancy]
    mean = math.fsum(j * p for j, p in enumerate(pi))
    return pi, mean


# --------------------------------------------------------- penalty tables

def penalty_table(k_min: int, k_max: int, *, alpha: float = 5.0,
                  zeta: float = 2.0, p_loss: float = 0.005,
                  trials: int | None = None, seed: int = 0) -> list[dict]:
    """Rows behind the penalty-vs-diameter curves, one per (k, kind)."""
    rows = []
    for k in range(k_min, k_max + 1):
        for kind in (PathKind.FIXED_TO_MOBILE, PathKind.MOBILE_TO_MOBILE):
            d_m, mean_hops = dm_upper_bound(k, kind)
            delay_mean, delay_std = delay_penalty(mean_hops, alpha, zeta)
            row = {
                "k": k,
                "kind": kind.value,
                "dm_upper": d_m,
                "mean_hop_penalty": mean_hops,
                "delay_mean_ms": delay_mean,
                "delay_std_ms": delay_std,
                "loss_prob": loss_penalty(mean_hops, p_loss),
            }
            if trials and d_m >= 1:
                pi, mc_mean = monte_carlo_ctmc(d_m, 1.0, trials,
                                               seed + 1000 * k + int(kind is PathKind.MOBILE_TO_MOBILE))
                row["mc_mean"] = mc_mean
                row["mc_max_bin_err"] = max(
                    abs(p - 1.0 / (d_m + 1)) for p in pi)
            rows.append(row)
    return rows


def penalty_table_csv(rows: list[dict]) -> str:
    columns = ["k", "kind", "dm_upper", "mean_hop_penalty", "delay_mean_ms",
               "delay_std_ms", "loss_prob"]
    if any("mc_mean" in row for row in rows):
        columns += ["mc_mean", "mc_max_bin_err"]
    lines = [",".join(columns)]
    for row in rows:
        cells = []
        for col in columns:
            value = row.get(col, "")  # no Monte Carlo run of a one-state chain
            cells.append(f"{value:.6f}" if isinstance(value, float) else str(value))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


# ------------------------------------------------- simulator cross check

def measure_simulated_penalty(scenario) -> list[dict]:
    """Walk the mobile through every region of a one-flow scenario and
    compare measured packet paths with the graph model.

    Per region: the converged path hop count measured from delivered
    packets, the direct shortest path between the serving edge routers, and
    the hypothetical detour through the scenario's ``analysis.ha_node``,
    checked against :func:`hop_difference` on the same graph.
    """
    from .scenario import parse_scenario
    from .simulator import run_scenario

    base = parse_scenario(scenario) if isinstance(scenario, dict) else scenario
    if len(base.flows) != 1:
        raise ValueError("penalty probe needs exactly one flow")
    flow = base.flows[0]
    ha_name = base.analysis.get("ha_node")
    if not ha_name:
        raise ValueError("no anchor vertex designated")
    graph = base.graph
    ha_rid = graph.rid_of(str(ha_name))
    fwd = set(graph.forwarding_nodes())
    adjacency = {rid: [p for p in graph.edges[rid] if p in fwd] for rid in fwd}
    cn_region = next(a.region for a in base.attaches
                     if str(a.prefix) == str(flow.src))
    cn_ler = graph.regions[cn_region].ler
    rows = []
    for region in sorted(graph.regions):
        doc = dict(base.raw)
        doc["mobility"] = {
            "attach": [
                {"t": 0.0, "prefix": str(flow.dst), "region": region},
                {"t": 0.0, "prefix": str(flow.src), "region": cn_region},
            ]
        }
        sim = run_scenario(parse_scenario(doc))
        delivered = [e for e in sim.trace if e["kind"] == "data_deliver"]
        if not delivered:
            raise ValueError(f"no deliveries with mobile in {region}")
        path = delivered[-1]["detail"]["path"]
        measured = len(path.split(">")) - 1
        mn_ler = graph.regions[region].ler
        direct, k_t, diff = hop_difference(adjacency, cn_ler, ha_rid, mn_ler)
        rows.append({
            "region": region,
            "measured_hops": measured,
            "direct_hops": direct,
            "network_extra_hops": measured - direct,
            "same_area": graph.area_of(cn_ler) == graph.area_of(mn_ler),
            "triangular_hops": k_t,
            "triangular_extra_hops": diff,
        })
    return rows
