"""Ordered-pattern assertions over simulation traces.

A pattern is a list of items matched as a subsequence of the trace.  Each
item may constrain the trace kind (``event``), the endpoint names (``src``,
``dst``), their roles (``src_role``, ``dst_role``) and any key of the event
detail (``msg``, ``update_type``, ``prefix``, ...).  ``"*"`` or an absent
key matches anything.  On failure the verdict carries the first unmatched
item and where the scan stopped.
"""

from __future__ import annotations

from dataclasses import dataclass


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


# ------------------------------------------------------- bundled patterns

def startup_pattern(prefix: str = "10.1.1.1/32") -> list:
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


def intra_area_pattern(prefix: str = "10.1.1.1/32") -> list:
    """Hand-off between LERs behind one ALER: one update in, one reflect."""
    return [
        {"event": "ctl_send", "msg": "BindingUpdate", "update_type": "INTERNAL",
         "src": "LER13", "dst": "AMRR1", "prefix": prefix},
        {"event": "ctl_send", "msg": "BindingUpdate", "update_type": "INTERNAL",
         "src": "AMRR1", "dst": "ALER1", "prefix": prefix},
        {"event": "fib_update", "src": "ALER1", "origin": "LER13",
         "prefix": prefix},
    ]


def inter_area_pattern(prefix: str = "10.1.1.1/32") -> list:
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
