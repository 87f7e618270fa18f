"""Shared helpers: an independent all-pairs oracle, a walk along the LSP
mesh, a recording services stub for node-level tests, scenario runners
with trace filters, and the golden output files.

A module of its own, not ``conftest``: ``bench/tests`` has a conftest too,
and both would be imported under the one name ``conftest``."""

from __future__ import annotations

import json
from pathlib import Path
from weakref import WeakKeyDictionary

from hmlbn.errors import NoRouteToNextHop
from hmlbn.messages import ControlMessage, MobilePrefix, control_message
from hmlbn.scenario import parse_scenario
from hmlbn.simulator import run_scenario
from hmlbn.trace import LABEL_PAIR, TRACE_KEYS

GOLDEN = Path(__file__).resolve().parent / "golden"


def golden(name: str) -> str:
    """The text of ``tests/golden/<name>``, byte for byte: a pinned run's
    ``metrics.csv`` or ``hmlbn dump`` output, recorded beside its hash."""
    return (GOLDEN / name).read_bytes().decode("utf-8")


def floyd_warshall(adjacency: dict) -> dict:
    """All-pairs shortest hop counts, computed the slow independent way."""
    nodes = sorted(adjacency)
    INF = float("inf")
    dist = {a: {b: (0 if a == b else INF) for b in nodes} for a in nodes}
    for a in nodes:
        for b in adjacency[a]:
            dist[a][b] = 1
    for k in nodes:
        for i in nodes:
            dik = dist[i][k]
            if dik == INF:
                continue
            row_k = dist[k]
            row_i = dist[i]
            for j in nodes:
                alt = dik + row_k[j]
                if alt < row_i[j]:
                    row_i[j] = alt
    return dist


def trail(lsp, src: str, fec: str) -> list[str]:
    """The nodes from ``src`` to ``fec`` along ``lsp.next_hop``; raises
    ``NoRouteToNextHop`` on a loop."""
    path, seen = [src], {src}
    while path[-1] != fec:
        _, node = lsp.next_hop(path[-1], fec)
        if node in seen:
            raise NoRouteToNextHop(f"label trail loop at {node} for FEC {fec}")
        seen.add(node)
        path.append(node)
    return path


class FakeServices:
    """Collects everything a node tries to do; time is set directly."""

    def __init__(self, rid: str, t: float = 0.0, trails=None):
        self.rid = rid
        self.t = t
        self.sent: list[ControlMessage] = []
        self.events: list[tuple] = []
        self.transmitted: list[tuple] = []
        self.dropped: list[tuple] = []
        self.delivered: list[tuple] = []
        self.trails = trails or {}
        self.areas = {}

    def now(self):
        return self.t

    def send(self, kind, dst, *fields):
        """Keep the message ``Simulation.send_control`` would queue: the
        ``kind`` payload built from ``fields`` by ``control_message``."""
        msg = control_message(kind, self.rid, dst, self.t, fields)
        self.sent.append(msg)
        return msg

    def emit(self, name, *values):
        # kept as its kind and the dict its TRACE_KEYS entry names; the
        # count must be the entry's, a two-label stack counting as two
        keys = TRACE_KEYS[name]
        assert len(values) == len(keys) + (name == LABEL_PAIR), \
            (name, values)
        self.events.append((name.partition("/")[0], dict(zip(keys, values))))

    def transmit(self, packet, from_node, to_node):
        self.transmitted.append((packet, from_node, to_node))

    def drop(self, packet, node, reason):
        self.dropped.append((packet, node, reason))

    def deliver_local(self, packet, ler, record):
        self.delivered.append((packet, record))

    def infra_path(self, rid, origin):
        """``trails[(rid, origin)]``, a (label, next_hop) pair, if set."""
        return self.trails.get((rid, origin), (17, f"nh-{origin}"))

    def area_of(self, rid):
        return self.areas.get(rid, 0)


def prefix(text: str) -> MobilePrefix:
    return MobilePrefix.parse(text)


def run(doc: dict, seed=None):
    return run_scenario(parse_scenario(doc), seed=seed)


def with_token(doc: dict, path: str, token: str) -> dict:
    """``doc`` through JSON text with the bare ``token``, such as ``NaN`` or
    ``Infinity``, at ``path``, such as ``flows[0].rate_pps``: ``json.loads``
    reads those tokens, as ``json.load`` does."""
    *keys, last = [int(k) if k.isdigit() else k
                   for k in path.replace("[", ".").replace("]", "").split(".")]
    target = doc
    for key in keys:
        target = target[key]
    target[last] = "@TOKEN@"
    return json.loads(json.dumps(doc).replace('"@TOKEN@"', token))


# simulation -> (its record count, its trace parsed at that count)
_PARSED = WeakKeyDictionary()


def parsed_trace(sim) -> list[dict]:
    """``sim.trace``, parsed once per simulation and record count; callers
    share the dicts and must not change them."""
    count = len(sim._records)
    cached = _PARSED.get(sim)
    if cached is None or cached[0] != count:
        cached = _PARSED[sim] = (count, sim.trace)
    return cached[1]


def ctl_sends(sim, prefix_text=None, t_min=None):
    out = []
    for e in parsed_trace(sim):
        if e["kind"] != "ctl_send":
            continue
        if prefix_text and e["detail"].get("prefix") != prefix_text:
            continue
        if t_min is not None and e["t"] < t_min:
            continue
        out.append(e)
    return out


def delivered_paths(sim, flow_id=None):
    out = []
    for e in parsed_trace(sim):
        if e["kind"] != "data_deliver":
            continue
        if flow_id and e["detail"]["flow"] != flow_id:
            continue
        out.append((e["t"], e["detail"]["path"]))
    return out
