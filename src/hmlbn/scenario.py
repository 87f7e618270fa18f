"""Scenario files: schema, validation and parsed form.

A scenario is a single JSON document with topology, timer, mobility,
traffic, failure and flag sections plus a seed.  Validation is strict:
unknown keys are rejected, each list entry is checked on its own, every
number must be finite (``json.load`` accepts NaN and Infinity, RFC 8259 does
not), a flow's packet count ``(stop_s - start_s) * rate_pps`` must be below
2**53, where floats stop telling consecutive packet indices apart, no flow
stop or event time may pass ``duration_s``, no node fails twice (none
recovers), no prefix has host bits set, no move finds its prefix detached,
and each problem names its field path.  Timers need lifetime >=
10 * dead-time >= 30 * keepalive, the products taken of the numbers as
written: 0.3 is three times 0.1.

Set-up walks the topology once, in ``topology.build_topology``, which
reports every topology problem at its entry's path; later sections check
region names whenever the regions parsed.  The graph's neighbour lists,
``by_role`` lists, LSP rows and latency rows are made on first use.  Two
orders of the document show: problems follow it, and events at one time
keep their entries' order; the order of topology entries shows nowhere.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from decimal import Decimal

from .errors import ScenarioInvalid, VertexNotFound
from .messages import MobilePrefix
from .topology import NetworkGraph, NodeRole, build_topology, type_problem

_TOP_KEYS = {"name", "seed", "duration_s", "mobility_range", "timers",
             "topology", "mobility", "flows", "failures", "flags", "analysis"}


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
class Placement:
    """Where a mobile attaches, or moves to, at ``t``: a region and, unless
    None, one of its cells."""

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
        self.duration = None  # duration_s, unless it is a problem itself

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
        if problem := type_problem(v, float):  # NaN, ±Infinity, a too big int
            self.err(where, problem)
            return None
        if positive and v <= 0:
            self.err(where, "must be positive")
            return None
        if minimum is not None and v < minimum:
            self.err(where, f"must be >= {minimum}")
            return None
        return float(v)

    def by_end(self, t, where):
        """``t``, a problem at ``where`` if after ``duration_s``: the event
        loop would run its event past the run's end."""
        if t is not None and self.duration is not None and t > self.duration:
            self.err(where, "must be <= duration_s")
        return t

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
        except VertexNotFound:
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
    name = data.get("name", "scenario")
    if not isinstance(name, str):
        c.err("name", "expected string")
    seed = data.get("seed", 0)
    if isinstance(seed, bool) or not isinstance(seed, int):
        c.err("seed", "expected integer")
        seed = 0
    duration = c.duration = c.number(data, "", "duration_s", positive=True)

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
    if k and d and Decimal(repr(d)) < 3 * Decimal(repr(k)):
        c.err("timers.dead_s", f"dead time {d} must be >= 3x keepalive {k}")
    if d and life and Decimal(repr(life)) < 10 * Decimal(repr(d)):
        c.err("timers.lifetime_s", f"lifetime {life} must be >= 10x dead time {d}")
    return Timers(k, d, life)  # None only beside a problem: never used


def _parse_topology(obj, c):
    """The graph, None if the topology has a problem, and its regions, None
    if a region entry has one: then region names go unchecked."""
    before = len(c.problems)
    graph = build_topology(obj, c.problems)
    raw = obj.get("regions", {}) if isinstance(obj, dict) else None
    whole = isinstance(raw, dict) and len(raw) == len(graph.regions)
    return (graph if len(c.problems) == before else None,
            graph.regions if whole else None)


def _parse_mobility(obj, c, regions, ranges):
    if not c.obj(obj, "mobility", {"attach", "move", "detach", "model"}):
        return [], [], [], None

    def known(region) -> bool:  # any text, if the regions did not parse
        return isinstance(region, str) and (regions is None or region in regions)

    attaches, moves, detaches, moved = [], [], [], []
    attach_times, detach_times = {}, {}  # prefix text -> times of entries kept

    def attached(t, prefix, path, verb) -> bool:  # else it would be skipped
        first = min(attach_times.get(str(prefix), ()), default=None)
        if first is None:
            c.err(f"{path}.prefix", f"{verb} a prefix that never attaches")
        elif t is not None and t < first:  # attaches at t go first
            c.err(f"{path}.t", f"before its prefix first attaches, at {first}")
        return first is not None and t is not None and t >= first

    for section, specs in (("attach", attaches), ("move", moves)):
        attach = section == "attach"  # else a move, whose time is required
        for _, path, entry in c.entries(obj, "mobility", section,
                                        {"t", "prefix", "region", "cell"}):
            t = c.by_end(c.number(entry, path, "t", 0.0 if attach else None,
                                  minimum=0.0), f"{path}.t")
            prefix = c.prefix(entry.get("prefix"), f"{path}.prefix")
            region, cell = entry.get("region"), entry.get("cell")
            if not known(region):
                c.err(f"{path}.region", f"unknown region {region!r}")
                region = None
            elif (cell is not None and regions is not None
                  and cell not in regions[region].cells):
                c.err(f"{path}.cell", f"region {region} has no cell {cell!r}")
            if prefix and attach and not prefix.covered_by(ranges):
                c.err(f"{path}.prefix", "outside the mobility address range")
            elif prefix and not attach and attached(t, prefix, path, "moves"):
                moved.append((path, t, str(prefix)))
            if t is not None and prefix and region:
                if attach:
                    attach_times.setdefault(str(prefix), []).append(t)
                specs.append(Placement(t, prefix, region, cell))
    for _, path, entry in c.entries(obj, "mobility", "detach", {"t", "prefix"}):
        t = c.by_end(c.number(entry, path, "t", minimum=0.0), f"{path}.t")
        prefix = c.prefix(entry.get("prefix"), f"{path}.prefix")
        if prefix:
            attached(t, prefix, path, "detaches")
        if t is not None and prefix:
            detaches.append(DetachSpec(t, prefix))
            detach_times.setdefault(str(prefix), []).append(t)
    for path, t, key in moved:  # at one time moves go before detaches
        gone = max((d for d in detach_times.get(key, ()) if d < t), default=None)
        if gone is not None and not any(gone < a <= t for a in attach_times[key]):
            c.err(f"{path}.t", f"after its prefix detaches, at {gone}")

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
                if str(pfx) not in attach_times:
                    c.err(f"{path}.prefixes[{j}]", "prefix never attaches")
                prefixes.append(pfx)
        adjacency = entry.get("adjacency", {})
        if not isinstance(adjacency, dict):
            c.err(f"{path}.adjacency", "expected object")
            adjacency = {}
        for region in adjacency:
            if not known(region):
                c.err(f"{path}.adjacency.{region}", "unknown region")
            for j, nbr in enumerate(c.items(adjacency, f"{path}.adjacency", region)):
                if not known(nbr):
                    c.err(f"{path}.adjacency.{region}[{j}]",
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
            else:
                c.by_end(stop, f"{path}.stop_s")
        if src and dst and rate and start is not None and stop is not None:
            flows.append(FlowSpec(flow_id, src, dst, rate, start, stop))
    return flows


def _parse_failures(data, c, graph):
    out, first = [], {}  # node -> the index of the entry that fails it
    for i, path, entry in c.entries(data, "", "failures", {"t", "node"}):
        known = len(c.problems)
        t = c.by_end(c.number(entry, path, "t", minimum=0.0), f"{path}.t")
        if "node" not in entry:
            c.err(f"{path}.node", "missing")
        elif graph is not None:
            node = c.node(graph, entry["node"], f"{path}.node")
            if len(c.problems) > known:  # an entry refused fails no node
                continue
            if (j := first.setdefault(node, i)) != i:  # none recovers
                c.err(f"{path}.node", f"already fails at failures[{j}]")
            else:
                out.append(FailureSpec(t, node))
    return out


def _parse_flags(obj, c, graph) -> Flags:
    flags = Flags()
    if not c.obj(obj, "flags", vars(flags)):
        return flags
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
