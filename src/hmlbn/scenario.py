"""Scenario files: schema, validation and parsed form.

A scenario is a single JSON document with topology, timer, mobility,
traffic, failure and flag sections plus a seed.  Validation is strict:
unknown keys are rejected, each list entry is checked on its own, every
number must be finite (``json.load`` accepts NaN and Infinity, RFC 8259 does
not), a flow's packet count ``(stop_s - start_s) * rate_pps`` must be below
2**53, where floats stop telling consecutive packet indices apart, and every
problem is reported with its field path.  Timer sanity enforces lifetime >=
10 * dead-time >= 30 * keepalive.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass, field

from .errors import ScenarioInvalid, TopologyError
from .messages import MobilePrefix
from .topology import NetworkGraph, NodeRole, build_topology

_TOP_KEYS = {"name", "seed", "duration_s", "mobility_range", "timers",
             "topology", "mobility", "flows", "failures", "flags", "analysis"}
_FLAG_KEYS = {"reflect_to_previous_ler", "overlap_attach", "overlap_s",
              "ha_pairs"}
_ENTRY_TYPES = {  # the keys of each topology entry and the types they take
    "nodes": {"id": str, "name": str, "role": str, "area": int},
    "edges": {"a": str, "b": str, "latency_ms": float},  # float: via number()
    "regions": {"ler": str, "cells": list},
}
_REQUIRED = {"id", "role", "a", "b", "ler"}
_ROLES = {role.value for role in NodeRole}


@dataclass
class Timers:
    keepalive_s: float = 3.0
    dead_s: float = 9.0
    lifetime_s: float = 300.0


@dataclass
class Flags:
    """Protocol options.  ``overlap_attach`` is the make-before-break window:
    after a move the old attachment stays reachable for ``overlap_s``."""

    reflect_to_previous_ler: bool = False
    overlap_attach: bool = False
    overlap_s: float = 1.0
    ha_pairs: list = field(default_factory=list)


@dataclass
class AttachSpec:
    t: float
    prefix: MobilePrefix
    region: str
    cell: str | None
    l2: str


@dataclass
class MoveSpec:
    t: float
    prefix: MobilePrefix
    region: str
    cell: str | None


@dataclass
class DetachSpec:
    t: float
    prefix: MobilePrefix


@dataclass
class MovementModel:
    mu: float
    p: float
    prefixes: list
    adjacency: dict


@dataclass
class FlowSpec:
    flow_id: str
    src: MobilePrefix
    dst: MobilePrefix
    rate_pps: float
    start_s: float
    stop_s: float

    def send_time(self, i: int) -> float | None:
        """When packet ``i`` enters; None if the flow stops first."""
        t = self.start_s + i / self.rate_pps
        return t if t < self.stop_s - 1e-12 else None


@dataclass
class FailureSpec:
    t: float
    node: str


@dataclass
class Scenario:
    name: str
    seed: int
    duration_s: float
    mobility_ranges: list
    timers: Timers
    graph: NetworkGraph  # built once, by validation; immutable
    attaches: list
    moves: list
    detaches: list
    model: MovementModel | None
    flows: list
    failures: list
    flags: Flags
    analysis: dict
    raw: dict


class _Checker:
    def __init__(self):
        self.problems = []
        self._prefixes = {}  # text -> its MobilePrefix, parsed once per parse

    def err(self, path, msg):
        self.problems.append((path, msg))

    @staticmethod
    def at(path, key):
        """The path of ``key`` inside ``path``; ``""`` is the top level."""
        return f"{path}.{key}" if path else key

    def obj(self, obj, path, allowed) -> bool:
        """Whether ``obj`` is an object; if not, or a key is not ``allowed``,
        that is a problem."""
        if not isinstance(obj, dict):
            self.err(path or "$", "expected object")
            return False
        for key in obj:
            if key not in allowed:
                self.err(self.at(path, key), "unknown key")
        return True

    def number(self, obj, path, key, default=None, minimum=None, positive=False):
        where = self.at(path, key)
        if key not in obj:
            if default is None:
                self.err(where, "missing")
            return default
        v = obj[key]
        if isinstance(v, bool) or not isinstance(v, (int, float)):
            self.err(where, f"expected number, got {type(v).__name__}")
            return None
        if not abs(v) <= sys.float_info.max:  # NaN, ±Infinity, a too big int
            self.err(where, "must be finite")
            return None
        if positive and v <= 0:
            self.err(where, "must be positive")
            return None
        if minimum is not None and v < minimum:
            self.err(where, f"must be >= {minimum}")
            return None
        return float(v)

    def items(self, obj, path, key) -> list:
        """``obj[key]``, a list (missing: empty); anything else is a problem."""
        value = obj.get(key, [])
        if not isinstance(value, list):
            self.err(self.at(path, key), "expected list")
            return []
        return value

    def entries(self, obj, path, key, allowed):
        """``(i, path, entry)`` for each object in the list ``obj[key]``."""
        for i, entry in enumerate(self.items(obj, path, key)):
            where = f"{self.at(path, key)}[{i}]"
            if self.obj(entry, where, allowed):
                yield i, where, entry

    def node(self, graph, name, path):
        """The router id of the node ``name``; if there is none, a problem."""
        try:
            return graph.rid_of(str(name))
        except TopologyError:
            self.err(path, f"unknown node {name!r}")
            return None

    def prefix(self, text, path):
        if (text := str(text)) not in self._prefixes:
            try:
                self._prefixes[text] = MobilePrefix.parse(text)
            except ValueError as exc:
                self.err(path, f"bad prefix: {exc}")
                return None
        return self._prefixes[text]


def validate_scenario(data: dict) -> list:
    """Return the problem list for a raw scenario document (empty if valid)."""
    try:
        parse_scenario(data)
        return []
    except ScenarioInvalid as exc:
        return exc.problems


def load_scenario(path) -> Scenario:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ScenarioInvalid([("$", f"cannot read: {exc}")])
    except json.JSONDecodeError as exc:
        raise ScenarioInvalid([("$", f"not valid JSON: {exc}")])
    return parse_scenario(data)


def parse_scenario(data: dict) -> Scenario:
    c = _Checker()
    if not isinstance(data, dict):
        raise ScenarioInvalid([("$", "scenario must be a JSON object")])
    c.obj(data, "", _TOP_KEYS)
    name = str(data.get("name", "scenario"))
    seed = data.get("seed", 0)
    if isinstance(seed, bool) or not isinstance(seed, int):
        c.err("seed", "expected integer")
        seed = 0
    duration = c.number(data, "", "duration_s", positive=True) or 1.0

    ranges = []
    for i, text in enumerate(c.items(data, "", "mobility_range")):
        p = c.prefix(text, f"mobility_range[{i}]")
        if p:
            ranges.append(p)
    if not ranges:
        c.err("mobility_range", "at least one mobility prefix range required")

    timers = _parse_timers(data.get("timers", {}), c)
    graph, regions = _parse_topology(data.get("topology"), c)
    attaches, moves, detaches, model = _parse_mobility(
        data.get("mobility", {}), c, regions, ranges)
    flows = _parse_flows(data, c)
    failures = _parse_failures(data, c, graph)
    flags = _parse_flags(data.get("flags", {}), c, graph)
    analysis = data.get("analysis", {})
    if not c.obj(analysis, "analysis", {"ha_node"}):
        analysis = {}
    elif graph and "ha_node" in analysis:
        c.node(graph, analysis["ha_node"], "analysis.ha_node")

    if c.problems:
        raise ScenarioInvalid(c.problems)
    return Scenario(name, seed, duration, ranges, timers, graph,
                    attaches, moves, detaches, model, flows, failures,
                    flags, analysis, data)


def _parse_timers(obj, c) -> Timers:
    defaults = vars(Timers())
    if not c.obj(obj, "timers", defaults):
        return Timers()
    k, d, life = (c.number(obj, "timers", name, default, positive=True)
                  for name, default in defaults.items())
    if k and d and d < 3 * k:
        c.err("timers.dead_s", f"dead time {d} must be >= 3x keepalive {k}")
    if d and life and life < 10 * d:
        c.err("timers.lifetime_s", f"lifetime {life} must be >= 10x dead time {d}")
    return Timers(k, d, life)  # None only beside a problem: never used


def _parse_topology(obj, c):
    before = len(c.problems)  # problems of the sections before this one
    if not isinstance(obj, dict):
        c.err("topology", "missing or not an object")
        return None, {}
    c.obj(obj, "topology", _ENTRY_TYPES)
    for section, kind in (("nodes", list), ("edges", list), ("regions", dict)):
        if not isinstance(obj.get(section, kind()), kind):
            c.err(f"topology.{section}", f"expected {kind.__name__}")
            return None, {}
    entries = [(f"topology.{section}[{i}]", section, entry)
               for section in ("nodes", "edges")
               for i, entry in enumerate(obj.get(section, []))]
    entries += [(f"topology.regions.{name}", "regions", entry)
                for name, entry in obj.get("regions", {}).items()]
    for path, section, entry in entries:
        if not c.obj(entry, path, _ENTRY_TYPES[section]):
            return None, {}
        for key, kind in _ENTRY_TYPES[section].items():
            if key not in entry:
                if key in _REQUIRED:
                    c.err(f"{path}.{key}", "missing")
            elif kind is float:
                c.number(entry, path, key)
            elif type(value := entry[key]) is bool or not isinstance(value, kind):
                c.err(f"{path}.{key}",
                      f"expected {kind.__name__}, got {type(value).__name__}")
        if isinstance(entry.get("role"), str) and entry["role"] not in _ROLES:
            c.err(f"{path}.role", f"unknown role {entry['role']!r}")
        cells = entry.get("cells")  # missing: build_topology's default
        if isinstance(cells, list) and not (
                cells and all(isinstance(cell, str) and cell for cell in cells)):
            c.err(f"{path}.cells", "expected a non-empty list of cell names")
    if len(c.problems) > before:
        return None, {}
    try:
        graph = build_topology(obj)
    except TopologyError as exc:
        c.err("topology", f"{type(exc).__name__}: {exc}")
        return None, {}
    return graph, graph.regions


def _parse_mobility(obj, c, regions, ranges):
    if not c.obj(obj, "mobility", {"attach", "move", "detach", "model"}):
        return [], [], [], None
    attaches, moves, detaches = [], [], []
    known_prefixes = set()

    def check_region(path, entry):
        region = entry.get("region")
        if not isinstance(region, str) or region not in regions:
            c.err(f"{path}.region", f"unknown region {region!r}")
            return None, None
        cell = entry.get("cell")
        if cell is not None and cell not in regions[region].cells:
            c.err(f"{path}.cell", f"region {region} has no cell {cell!r}")
            return region, None
        return region, cell

    for _, path, entry in c.entries(obj, "mobility", "attach",
                                    {"t", "prefix", "region", "cell", "l2"}):
        t = c.number(entry, path, "t", 0.0, minimum=0.0)
        prefix = c.prefix(entry.get("prefix"), f"{path}.prefix")
        region, cell = check_region(path, entry)
        if prefix and not prefix.covered_by(ranges):
            c.err(f"{path}.prefix", "outside the mobility address range")
        if t is not None and prefix and region:
            known_prefixes.add(str(prefix))
            attaches.append(AttachSpec(t, prefix, region, cell,
                                       str(entry.get("l2", f"mac-{prefix}"))))
    for _, path, entry in c.entries(obj, "mobility", "move",
                                    {"t", "prefix", "region", "cell"}):
        t = c.number(entry, path, "t", minimum=0.0)
        prefix = c.prefix(entry.get("prefix"), f"{path}.prefix")
        region, cell = check_region(path, entry)
        if prefix and str(prefix) not in known_prefixes:
            c.err(f"{path}.prefix", "moves a prefix that never attaches")
        if t is not None and prefix and region:
            moves.append(MoveSpec(t, prefix, region, cell))
    for _, path, entry in c.entries(obj, "mobility", "detach", {"t", "prefix"}):
        t = c.number(entry, path, "t", minimum=0.0)
        prefix = c.prefix(entry.get("prefix"), f"{path}.prefix")
        if t is not None and prefix:
            detaches.append(DetachSpec(t, prefix))

    model = None
    path = "mobility.model"
    if "model" in obj and c.obj(entry := obj["model"], path,
                                {"mu", "p", "prefixes", "adjacency"}):
        mu = c.number(entry, path, "mu", positive=True)
        p = c.number(entry, path, "p", minimum=0.0)
        if p is not None and p > 1.0:
            c.err(f"{path}.p", "transition probability must be <= 1")
        prefixes = []
        for j, text in enumerate(c.items(entry, path, "prefixes")):
            pfx = c.prefix(text, f"{path}.prefixes[{j}]")
            if pfx:
                if str(pfx) not in known_prefixes:
                    c.err(f"{path}.prefixes[{j}]", "prefix never attaches")
                prefixes.append(pfx)
        adjacency = entry.get("adjacency", {})
        if not isinstance(adjacency, dict):
            c.err(f"{path}.adjacency", "expected object")
            adjacency = {}
        for region in adjacency:
            if region not in regions:
                c.err(f"{path}.adjacency.{region}", "unknown region")
            for nbr in c.items(adjacency, f"{path}.adjacency", region):
                if not isinstance(nbr, str) or nbr not in regions:
                    c.err(f"{path}.adjacency.{region}",
                          f"unknown neighbor region {nbr!r}")
        if mu is not None and p is not None:
            model = MovementModel(mu, p, prefixes, adjacency)
    for specs in (attaches, moves, detaches):
        specs.sort(key=lambda spec: spec.t)
    return attaches, moves, detaches, model


def _parse_flows(data, c):
    flows, ids = [], set()
    for i, path, entry in c.entries(data, "", "flows", {
            "id", "src", "dst", "rate_pps", "start_s", "stop_s"}):
        flow_id = str(entry.get("id", f"f{i}"))
        if flow_id in ids:
            c.err(f"{path}.id", f"duplicate flow id {flow_id!r}")
        ids.add(flow_id)
        src = c.prefix(entry.get("src"), f"{path}.src")
        dst = c.prefix(entry.get("dst"), f"{path}.dst")
        rate = c.number(entry, path, "rate_pps", positive=True)
        start = c.number(entry, path, "start_s", minimum=0.0)
        stop = c.number(entry, path, "stop_s")
        if start is not None and stop is not None:
            if stop <= start:
                c.err(f"{path}.stop_s", "must be after start_s")
            elif rate and not (stop - start) * rate < 2 ** 53:
                c.err(path, "(stop_s - start_s) * rate_pps must be below 2**53")
        if src and dst and rate and start is not None and stop is not None:
            flows.append(FlowSpec(flow_id, src, dst, rate, start, stop))
    return flows


def _parse_failures(data, c, graph):
    out = []
    for _, path, entry in c.entries(data, "", "failures", {"t", "node"}):
        t = c.number(entry, path, "t", minimum=0.0)
        if "node" not in entry:
            c.err(f"{path}.node", "missing")
        elif graph is not None:
            node = c.node(graph, entry["node"], f"{path}.node")
            if t is not None and node:
                out.append(FailureSpec(t, node))
    return out


def _parse_flags(obj, c, graph) -> Flags:
    if not c.obj(obj, "flags", _FLAG_KEYS):
        return Flags()
    flags = Flags()
    for key in ("reflect_to_previous_ler", "overlap_attach"):
        if key in obj:
            if not isinstance(obj[key], bool):
                c.err(f"flags.{key}", "expected boolean")
            else:
                setattr(flags, key, obj[key])
    flags.overlap_s = c.number(obj, "flags", "overlap_s", 1.0, positive=True) or 1.0
    for i, pair in enumerate(c.items(obj, "flags", "ha_pairs")):
        path = f"flags.ha_pairs[{i}]"
        if not isinstance(pair, list) or len(pair) != 2:
            c.err(path, "expected a two-node list")
            continue
        if graph is None:
            continue
        a, b = (c.node(graph, member, path) for member in pair)
        if a and b:
            if (graph.role_of(a) is not NodeRole.ALER
                    or graph.role_of(b) is not NodeRole.ALER):
                c.err(path, "high-availability pairs must be ALER nodes")
            elif graph.area_of(a) != graph.area_of(b):
                c.err(path, "pair members must share an area")
            elif a == b:
                c.err(path, "an ALER cannot pair with itself")
            elif {a, b} & {rid for paired in flags.ha_pairs for rid in paired}:
                c.err(path, "an ALER can be in one pair only")
            else:
                flags.ha_pairs.append((a, b))
    return flags
