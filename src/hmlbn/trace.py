"""The run's records: their format and text, the metrics counted beside
them, and the patterns matched against them.

Every record enters through ``Simulation.trace_event`` as one flat tuple,
``(now, name, src, dst, *values)``, of atomic values only, router ids raw;
``TRACE_KEYS[name]`` names its values.  A name is the record's kind, or its
kind and a variant after a "/".  ``render`` alone writes records, each by
the one f-string generated at import for its name, naming router ids as it
goes; ``parse`` reads its lines back into dicts.  ``assert_sequence``
matches a pattern, a list of items, in order as a subsequence of them: an
item may constrain the kind (``event``), the endpoint names (``src``,
``dst``), their roles (``src_role``, ``dst_role``) and any detail key, and
``"*"`` or an absent key matches anything.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii

from .forwarding import DataPacket
from .messages import LAYOUT, MessageKind, UpdateType
from .topology import Memo


# detail keys of each record by name, sorted as trace.jsonl writes them.  A
# name is the line's kind, or the kind, a "/" and a variant, for a kind
# recorded with more than one key set.  Kinds, variants and keys are written
# into the line functions' generated source, so each must be an ASCII
# identifier.
TRACE_KEYS = {
    "attach": ("area_hint", "cell", "prefix", "region"),
    "ctl_drop": ("msg", "why"),
    "ctl_recv": ("msg",),
    "ctl_send": ("area_crossing", "area_id", "hex", "label", "msg", "origin",
                 "prefix", "update_type"),
    "ctl_send/blanket": ("area_crossing", "hex", "msg"),
    "ctl_send/prefix": ("area_crossing", "hex", "msg", "prefix"),
    "data_deliver": ("flow", "interface", "path", "replica", "seq"),
    "data_drop": ("flow", "reason", "replica", "seq"),
    "data_hop": ("flow", "seq", "stack"),
    "data_hop/text": ("flow", "seq", "stack"),
    "data_ingress": ("flow", "seq"),
    "data_ingress/unattached": ("flow", "ler", "seq"),
    "detach": ("prefix",),
    "fib_update": ("cml", "lml", "origin", "prefix", "what"),
    "ignored_withdrawal": ("from", "prefix"),
    "local_handoff": ("interface", "prefix"),
    "move": ("from_region", "prefix", "region", "same_ler"),
    "node_fail": (),
    "register": ("area_sent", "interface", "label", "prefix"),
    "warn/area": ("area", "prefix", "what"),
    "warn/from": ("from", "prefix", "what"),
    "warn/node": ("node", "what"),
    "warn/prefix": ("prefix", "what"),
}
# detail keys that hold a router id, named at render; and the text of each
# enum, read as a plain value
ROUTER_KEYS = ("origin", "node", "from")
MSG_TEXT = {kind: kind.value for kind in MessageKind}
UPDATE_TYPE_TEXT = {utype: utype.name for utype in UpdateType}
# the entries rendered from stems, each with the detail keys whose values
# change from record to record, plain values all (no router id, hex or
# stack).  Only data_hop recurs enough to pay, as every packet of a flow
# takes the same hops under the same labels; a stem would only cost a kind
# whose other values seldom come back.
STEMMED = {"data_hop": ("seq",)}
# the entry whose "stack" is two labels deep, kept as two values, the top
# label and the inner one, and written "i{top}/m{inner}".  Any other stack
# is a text.
LABEL_PAIR = "data_hop"
CHUNK_LINES = 512  # trace lines joined at a time, then the chunks


def _line_factories(schema: dict) -> dict:
    """``(factory, n)`` per ``schema`` entry: ``factory(R, *memos)``, one
    value memo for each of its ``n`` value slots, returns ``line(record,
    seq, t)``, one f-string naming routers through ``R``.  Only kinds and
    keys enter the source.  A ``LABEL_PAIR`` stack is written literally as
    ``i{top}/m{inner}``, each label an int as its str.

    A ``STEMMED`` entry's line function, for as long as it lives, keys each
    record by its values but the changing ones.  A key's first record is
    rendered whole and only marks the key, so a record that never recurs
    costs no stem; its second makes the stem, the text between the changing
    values, which it and every later record of the key fill in.  Equal keys
    must render alike: ``transmit`` records texts and int labels, never a
    bool or float that equals an int."""
    factories = {}
    for name, keys in schema.items():
        if not all(n.isidentifier() and n.isascii()
                   for n in (*name.split("/", 1), *keys)):
            raise ValueError(f"not ASCII identifiers: {name!r}, {keys!r}")
        changing = STEMMED.get(name, ())
        # the line as f-string source in parts: at odd indices what changes
        # from record to record (a changing value, the record's seq, t), at
        # even ones the stable text between
        parts, slots, cuts, i = ['{{"detail": {{'], [], [], 4
        for n, key in enumerate(keys):
            parts[-1] += ", " * (n > 0) + '"%s": ' % key
            if key == "stack" and name == LABEL_PAIR:
                parts[-1] += '"i{r[%d]!s}/m{r[%d]!s}"' % (i, i + 1)
                i += 1
            elif key in ROUTER_KEYS:
                parts[-1] += "{R[r[%d]]}" % i
            elif key == "hex":  # seldom repeated: encoded anew each time
                parts[-1] += "{A(r[%d])}" % i
            else:
                slots.append(i)
                if key in changing:
                    parts += ["{s%d[r[%d]]}" % (i, i), ""]
                    cuts.append(i)
                else:
                    parts[-1] += "{s%d[r[%d]]}" % (i, i)
            i += 1
        parts[-1] += ('}}, "dst": {R[r[3]]}, "kind": "%s", "seq": '
                      % name.partition("/")[0])
        parts += ["{seq}", ', "src": {R[r[2]]}, "t": ', "{t}", "}}\\n"]
        line = "f'%s'" % "".join(parts)
        source = f"    return lambda r, seq, t: {line}"
        if changing:  # keyed by the record's values but the changing ones
            key = "".join(f"r[{j}], " for j in range(2, i) if j not in cuts)
            stem = "".join(f"f'{part}', " for part in parts[:-1:2])
            filled = "".join(part if n % 2 else "{x[%d]}" % (n // 2)
                             for n, part in enumerate(parts[:-1])) + parts[-1]
            source = f"""\
    stems = {{}}
    get = stems.get
    def line(r, seq, t):
        k = ({key})
        x = get(k)
        if x:
            return f'{filled}'
        if x is None:  # a first sighting, marked by ()
            stems[k] = ()
            return {line}
        stems[k] = x = ({stem})  # a second: the stem is made
        return f'{filled}'
    return line"""
        params = "".join(f", s{i}" for i in slots)
        exec(f"def factory(R{params}):\n{source}",
             namespace := {"A": encode_basestring_ascii})
        factories[name] = namespace["factory"], len(slots)
    return factories


LINE_FACTORIES = _line_factories(TRACE_KEYS)


class _Values(dict):
    """``values[v]`` is ``json.dumps(v)``, rendered on first use only; a str
    or an int straight by the function ``json.dumps`` reaches for it."""

    def __missing__(self, value, by_type={str: encode_basestring_ascii,
                                          int: int.__repr__}.get):
        text = self[value] = by_type(type(value), json.dumps)(value)
        return text


def render(records: list, nodes: dict) -> str:
    """One line per record, byte for byte what ``json.dumps(sort_keys=
    True)`` writes for its dict (``t`` rounded to 9 places, each router id
    ``nodes`` holds named, a time that is not finite as ``NaN``).  The
    ``LINE_FACTORIES`` lines and their ``_Values`` memos are made anew on
    each call, so each value is rendered once per call, by its exact type,
    and no stem outlives the call; a wire hex, seldom repeated, is encoded
    on every use.  A record whose time is the previous record's time object
    reuses its text; other nonzero float times are memoised by value, zero
    and int times not: 3 and 3.0, or 0.0 and -0.0, are one key but two
    texts.  ``CHUNK_LINES`` lines are joined at a time, so no list of every
    line outlives its chunk."""
    encode = json.dumps
    router = Memo(lambda rid: encode(nodes[rid].name if rid in nodes else rid))
    lines_of = {name: factory(router, *[_Values() for _ in range(n)])
                for name, (factory, n) in LINE_FACTORIES.items()}
    times = {}  # nonzero float times: their texts

    def time_text(t):
        return repr(round(t, 9)) if t - t == 0 else encode(t)

    chunks, seq, last = [], 0, object()
    for start in range(0, len(records), CHUNK_LINES):
        lines = []
        append = lines.append
        for rec in records[start:start + CHUNK_LINES]:
            seq += 1
            if rec[0] is not last:  # else one event's time: same text
                last = t = rec[0]
                if type(t) is float and t:
                    text = times.get(t)
                    if text is None:
                        text = times[t] = time_text(t)
                else:
                    text = time_text(t)
            append(lines_of[rec[1]](rec, seq, text))
        chunks.append("".join(lines))
    return "".join(chunks)


def parse(text: str) -> list[dict]:
    """``render`` text as dicts; a line holds no line break but its own."""
    return [json.loads(line) for line in text.split("\n")[:-1]]


def _send_binding(sim, src, dst, crossing, wire, text, b):
    sim.trace_event("ctl_send", src, dst, crossing, b.area_id, wire, b.label,
                    text, b.origin_next_hop, str(b.prefix),
                    UPDATE_TYPE_TEXT[b.update_type])


def _send_prefix(sim, src, dst, crossing, wire, text, prefix):
    sim.trace_event("ctl_send/prefix", src, dst, crossing, wire, text,
                    str(prefix))


def _send_blanket(sim, src, dst, crossing, wire, text, _):
    sim.trace_event("ctl_send/blanket", src, dst, crossing, wire, text)


# the function that records a kind's ctl_send line, chosen by the name of
# its payload's first field, which it is given
SEND_RECORD = {kind: {"binding": _send_binding, "prefix": _send_prefix}.get(
    cls._fields[0], _send_blanket) for kind, (cls, _) in LAYOUT.items()}


DROP_REASONS = (
    "queue_overflow", "no_binding", "unknown_mobility_label",
    "unknown_local_mobility_label", "no_label_entry", "stale_location",
    "node_failed", "source_not_attached", "non_mobile",
)


class Metrics:
    """Per-flow counters.  A packet counts once at ingress and once when it
    ends, delivered or dropped; ``in_flight`` is what is left.  Latencies are
    kept by seq and summed in seq order; deliveries come in time order."""

    def __init__(self):
        self.flows: dict[str, dict] = Memo(lambda flow_id: {
            "ingress": 0, "drops": Counter(), "hops": Counter(),
            "latencies": {}, "max_gap_s": 0.0, "last": None})
        self.control_by_kind: Counter[str] = Counter()
        self.control_crossing = 0
        self.post_ingress_ip_lookups = 0
        self.stack_violations = 0

    def record_ingress(self, flow_id: str):
        self.flows[flow_id]["ingress"] += 1

    def record_drop(self, packet: DataPacket, reason: str):
        self._end(packet)["drops"][reason] += 1

    def record_delivery(self, packet: DataPacket, t: float):
        flow = self._end(packet)
        flow["hops"][len(packet.hop_trace) - 1] += 1
        flow["latencies"][packet.seq] = t - packet.created_at
        if flow["last"] is not None:
            flow["max_gap_s"] = max(flow["max_gap_s"], t - flow["last"])
        flow["last"] = t

    def _end(self, packet: DataPacket) -> dict:
        self.post_ingress_ip_lookups += packet.post_ingress_lookups
        return self.flows[packet.flow_id]

    @property
    def control_total(self) -> int:
        return sum(self.control_by_kind.values())

    def finalize(self) -> dict:
        """Each flow's row: counts, drops by reason (every ``DROP_REASONS``
        entry first), a histogram of hop counts and latencies in seq order."""
        rows = {}
        for flow_id in sorted(self.flows):
            flow = self.flows[flow_id]
            drops = {**dict.fromkeys(DROP_REASONS, 0), **flow["drops"]}
            latencies = [flow["latencies"][seq] for seq in sorted(flow["latencies"])]
            rows[flow_id] = {
                "ingress": flow["ingress"], "delivered": len(latencies),
                "in_flight": (flow["ingress"] - len(latencies)
                              - sum(drops.values())),
                "drops": drops, "hops": flow["hops"], "latencies": latencies,
                "max_gap_s": flow["max_gap_s"]}
        return rows

    def to_csv(self) -> str:
        rows = self.finalize()
        drop_cols = [f"drop_{r}" for r in DROP_REASONS]
        header = (["flow", "ingress", "delivered", "in_flight"] + drop_cols
                  + ["mean_hops", "mean_latency_ms", "max_gap_s",
                     "ctl_total", "ctl_area_crossing", "ctl_intra_area"])
        lines = [",".join(header)]
        totals = [0] * (3 + len(DROP_REASONS))
        for flow_id, row in rows.items():
            counts = ([row["ingress"], row["delivered"], row["in_flight"]]
                      + [row["drops"][r] for r in DROP_REASONS])
            totals = [a + b for a, b in zip(totals, counts)]
            mean_hops = (sum(h * n for h, n in row["hops"].items())
                         / row["delivered"] if row["delivered"] else 0.0)
            mean_lat = (sum(row["latencies"]) / len(row["latencies"]) * 1000.0
                        if row["latencies"] else 0.0)
            lines.append(",".join(
                [flow_id, *map(str, counts), f"{mean_hops:.4f}",
                 f"{mean_lat:.4f}", f"{row['max_gap_s']:.6f}", "", "", ""]))
        lines.append(",".join(
            ["TOTAL", *map(str, totals), "", "", "", str(self.control_total),
             str(self.control_crossing),
             str(self.control_total - self.control_crossing)]))
        return "\n".join(lines) + "\n"


@dataclass
class MatchResult:
    ok: bool
    matched_seqs: list
    failed_index: int | None = None
    failed_item: dict | None = None
    scanned_to: int = 0

    def describe(self) -> str:
        if self.ok:
            return f"matched {len(self.matched_seqs)} items"
        return (f"item {self.failed_index} never matched after trace seq "
                f"{self.scanned_to}: {self.failed_item}")


def _item_matches(item: dict, event: dict, roles: dict) -> bool:
    src, dst = event.get("src"), event.get("dst")
    got = {"event": event.get("kind"), "src": src, "dst": dst,
           "src_role": roles.get(src), "dst_role": roles.get(dst)}
    detail = event.get("detail", {})  # any other key is a detail's
    return all(want == "*" or want == (got[key] if key in got else detail.get(key))
               for key, want in item.items())


def assert_sequence(trace: list, pattern: list, roles: dict | None = None) -> MatchResult:
    """Subsequence-match ``pattern`` against ``trace`` events in order."""
    roles, matched, last_seq = roles or {}, [], 0
    events = iter(trace)  # each item's search goes on from the last match
    for index, item in enumerate(pattern):
        found = next((e for e in events if _item_matches(item, e, roles)), None)
        if found is None:
            return MatchResult(False, matched, index, item, last_seq)
        matched.append(found.get("seq"))
        last_seq = found.get("seq", last_seq)
    return MatchResult(True, matched)


def roles_from_graph(graph) -> dict:
    return {info.name: info.role.value for info in graph.nodes.values()}
