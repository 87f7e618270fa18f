"""Scenario validation reports a malformed field as a ``(path, message)``
problem; it never lets the field reach code that raises on its type."""

import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hmlbn import scenarios as lib
from hmlbn.scenario import load_scenario, parse_scenario, validate_scenario

from helpers import with_token


def _set(*keys_and_value):
    """An edit of a scenario document: set the value at a key path."""
    *keys, last, value = keys_and_value

    def edit(doc):
        for key in keys:
            doc = doc[key]
        doc[last] = value
    return edit


def _move_to(region):
    def edit(doc):
        doc["mobility"]["move"] = [{"t": 1.0, "prefix": "10.1.1.1/32",
                                    "region": region}]
    return edit


def _flow_twice(doc):
    doc["flows"].append(dict(doc["flows"][0]))


def _without(*keys_and_key):
    *keys, last = keys_and_key

    def edit(doc):
        for key in keys:
            doc = doc[key]
        del doc[last]
    return edit


def _append(*keys_and_entries):
    """An edit that appends entries to the list at a key path."""
    *keys, entries = keys_and_entries

    def edit(doc):
        for key in keys:
            doc = doc[key]
        doc += entries
    return edit


SELF_EDGE = {"a": "P0", "b": "P0"}
LONE_LSR = {"id": "20.9.9.9", "name": "P9", "role": "LSR"}

# (path of the problem, edit of a valid document that puts it there), and
# for some the exact problem list the edit gives
MALFORMED = [
    ("flags.ha_pairs", _set("flags", "ha_pairs", 5)),
    ("mobility_range", _set("mobility_range", 8)),
    ("mobility.model.prefixes", _set("mobility", "model", "prefixes", 5)),
    ("mobility.model.adjacency.MR11",
     _set("mobility", "model", "adjacency", "MR11", "MR12")),
    ("topology.regions.MR11.cells",
     _set("topology", "regions", "MR11", "cells", 3)),
    ("topology.edges[0].latency_ms",
     _set("topology", "edges", 0, "latency_ms", "fast")),
    ("topology.edges[0].a", _set("topology", "edges", 0, "a", ["ALER1"])),
    ("topology.edges[0].b", _without("topology", "edges", 0, "b")),
    ("topology.nodes[0].area", _set("topology", "nodes", 0, "area", "one")),
    ("topology.nodes[0].role", _set("topology", "nodes", 0, "role", "P")),
    ("topology.nodes[0].id", _set("topology", "nodes", 0, "id", ["20.1"])),
    ("topology.regions.MR11.ler",
     _set("topology", "regions", "MR11", "ler", ["LER11"])),
    ("topology.regions.MR11.ler",
     _without("topology", "regions", "MR11", "ler")),
    ("mobility.move[0].region", _move_to(["MR12"])),
    # both attaches are kept for sorting by time unless a bad one is left out
    ("mobility.attach[1].t", _set("mobility", "attach", 1, "t", "soon")),
    # two flows under one id would be counted as one
    ("flows[1].id", _flow_twice),
    ("duration_s", _without("duration_s")),
    # a region with no cell, or a cell that is no name, cannot be attached to
    ("topology.regions.MR11.cells", _set("topology", "regions", "MR11",
                                         "cells", [])),
    ("topology.regions.MR11.cells", _set("topology", "regions", "MR11",
                                         "cells", [{"a": 2}])),
    ("topology.regions.MR11.cells", _set("topology", "regions", "MR11",
                                         "cells", [["x"]])),
    ("mobility.attach[0]", _set("mobility", "attach", 0, "MR11")),
    ("mobility.detach", _set("mobility", "detach", {"t": 1.0})),
    ("failures[0].node", _set("failures", [{"t": 1.0, "node": "NOPE"}])),
    ("analysis.ha_node", _set("analysis", {"ha_node": "NOPE"})),
    ("flags.ha_pairs[0]", _set("flags", "ha_pairs", [["ALER1", "NOPE"]])),
    # a move before the attach would be dropped when it fires
    ("mobility.move[0].t", _set("mobility", "move", [
        {"t": -1.0, "prefix": lib.MN, "region": "MR12"}])),
    # a failure of no node would be dropped without a word
    ("failures[0].node", _set("failures", [{"t": 1.0}])),
    # a flow that outlasts the run would keep the event loop going past it
    ("flows[0].stop_s", _set("flows", 0, "stop_s", 1e6)),
    # an event after the run's end would still fire
    ("mobility.attach[1].t", _set("mobility", "attach", 1, "t", 1e6)),
    ("mobility.move[0].t", _set("mobility", "move", [
        {"t": 1e6, "prefix": lib.MN, "region": "MR12"}])),
    ("mobility.detach[0].t", _set("mobility", "detach", [
        {"t": 1e6, "prefix": lib.MN}])),
    ("failures[0].t", _set("failures", [{"t": 1e6, "node": "P0"}])),
    # the simulator keeps no layer-2 address, so one would be ignored
    ("mobility.attach[0].l2", _set("mobility", "attach", 0, "l2", "mac-a")),
    # each topology fault once, at its entry's path, and nothing else
    ("topology.edges[16]", _append("topology", "edges", [SELF_EDGE]),
     [("topology.edges[16]", "self edge at 'P0'")]),
    ("topology.edges[16].b",
     _append("topology", "edges", [{"a": "P0", "b": "NOPE"}]),
     [("topology.edges[16].b", "unknown node 'NOPE'")]),
    ("topology.edges[0].latency_ms", _set("topology", "edges", 0, "latency_ms", 0),
     [("topology.edges[0].latency_ms", "must be positive")]),
    ("topology.nodes[17]", _append("topology", "nodes", [
        {"id": "20.1.2.1", "name": "ALER1", "role": "ALER", "area": 1}]),
     [("topology.nodes[17]", "duplicate node 'ALER1' (20.1.2.1)")]),
    ("topology.regions.MR11.ler",
     _set("topology", "regions", "MR11", "ler", "ALER1"),
     [("topology.regions.MR11.ler", "'ALER1' has role ALER, not LER")]),
    ("topology.nodes", _set("topology", "nodes", 2, "role", "LSR"),
     [("topology.nodes", "area 1 has no AMRR")]),
    ("topology.nodes[17]", _append("topology", "nodes", [LONE_LSR]),
     [("topology.nodes[17]", "unreachable from LER11")]),
    ("topology.edges[16]", lambda doc: (
        _append("topology", "edges", [SELF_EDGE])(doc),
        _append("topology", "nodes", [LONE_LSR])(doc)),
     [("topology.edges[16]", "self edge at 'P0'"),
      ("topology.nodes[17]", "unreachable from LER11")]),
    # a repeated edge would let its later latency win, whichever way round
    # its ends are written and whether as names or router ids
    ("topology.edges[16]", _append("topology", "edges", [
        {"a": "P0", "b": "ALER1", "latency_ms": 5.0}]),
     [("topology.edges[16]", "'P0' and 'ALER1' already joined at edges[0]")]),
    ("topology.edges[16]", _append("topology", "edges", [
        {"a": "20.1.2.1", "b": "P0"}]),
     [("topology.edges[16]", "'20.1.2.1' and 'P0' already joined at edges[0]")]),
    # a move or detach that cannot act would be skipped when it fires: of a
    # prefix that never attaches, or before the prefix first attaches
    ("mobility.detach[0].prefix", _set("mobility", "detach", [
        {"t": 1.0, "prefix": "10.2.2.1/32"}]),
     [("mobility.detach[0].prefix", "detaches a prefix that never attaches")]),
    ("mobility.move[0].t", lambda doc: (
        _set("mobility", "attach", 0, "t", 2.0)(doc),
        _set("mobility", "move", [
            {"t": 1.0, "prefix": lib.MN, "region": "MR12"},
            {"t": 2.0, "prefix": lib.MN, "region": "MR13"}])(doc),
        _set("mobility", "detach", [{"t": 1.5, "prefix": lib.MN}])(doc)),
     [("mobility.move[0].t", "before its prefix first attaches, at 2.0"),
      ("mobility.detach[0].t", "before its prefix first attaches, at 2.0")]),
]


@pytest.mark.parametrize("case", MALFORMED,
                         ids=[f"{case[0]}-{i}" for i, case
                              in enumerate(MALFORMED)])
def test_malformed_field_is_a_problem_not_an_exception(case):
    path, edit, *exact = case
    doc = lib.random_walk_scenario()
    assert validate_scenario(doc) == []
    edit(doc)
    problems = validate_scenario(doc)
    assert path in [where for where, _ in problems], problems
    if exact:
        assert problems == exact[0]


def test_one_topology_fault_is_one_problem():
    """A self edge once gave four more, false, problems: three regions the
    document defines and a move of a prefix that attaches."""
    doc = lib.inter_area_scenario()
    doc["topology"]["edges"].append(SELF_EDGE)
    assert validate_scenario(doc) == [("topology.edges[16]", "self edge at 'P0'")]
    doc["topology"]["edges"][3]["latency_ms"] = 0.0
    assert validate_scenario(doc) == [
        ("topology.edges[3].latency_ms", "must be positive"),
        ("topology.edges[16]", "self edge at 'P0'")]


def test_a_node_fault_hides_no_region_but_every_node_name():
    """The regions parsed, so the mobility entries are still checked
    against them; with no graph, node names are not."""
    doc = lib.ha_failover_scenario()
    doc["topology"]["nodes"][0]["area"] = "one"
    doc["mobility"]["attach"][0]["region"] = "MR99"
    assert validate_scenario(doc) == [
        ("topology.nodes[0].area", "expected int, got str"),
        ("mobility.attach[0].region", "unknown region 'MR99'")]
    doc["topology"]["regions"]["MR11"]["cells"] = []
    assert validate_scenario(doc) == [
        ("topology.nodes[0].area", "expected int, got str"),
        ("topology.regions.MR11.cells", "expected a non-empty list of cell names")]


def test_the_name_is_a_string():
    doc = lib.startup_scenario()
    doc["name"] = [1, 2]
    assert validate_scenario(doc) == [("name", "expected string")]


def test_each_bad_model_neighbour_has_its_own_path():
    doc = lib.random_walk_scenario()
    doc["mobility"]["model"]["adjacency"]["MR11"] = ["MR12", "X", 3]
    assert validate_scenario(doc) == [
        ("mobility.model.adjacency.MR11[1]", "unknown neighbor region 'X'"),
        ("mobility.model.adjacency.MR11[2]", "unknown neighbor region 3")]


def test_a_second_failure_of_a_failed_node_is_refused():
    """A node never recovers, so failing it again could only repeat its
    ``node_fail`` record and fail-over messages; the first entry stands."""
    doc = lib.ha_failover_scenario()
    assert validate_scenario(doc) == []
    doc["failures"] += [{"t": 0.3, "node": "P0"},
                        {"t": 0.21, "node": "ALER1"},
                        {"t": 0.1, "node": "P0"}]
    assert validate_scenario(doc) == [
        ("failures[2].node", "already fails at failures[0]"),
        ("failures[3].node", "already fails at failures[1]"),
    ]


def test_each_mobility_entry_is_checked_on_its_own():
    """A bad entry in one section hides no problem of the others."""
    doc = lib.random_walk_scenario()
    doc["mobility"]["attach"].insert(0, "MR11")
    doc["mobility"]["detach"] = [{"t": -1.0, "prefix": lib.MN}]
    doc["analysis"] = {"ha_node": "NOPE"}
    assert validate_scenario(doc) == [
        ("mobility.attach[0]", "expected object"),
        ("mobility.detach[0].t", "must be >= 0.0"),
        ("analysis.ha_node", "unknown node 'NOPE'"),
    ]


def test_a_problem_before_the_topology_hides_no_region():
    """The graph is built whatever problems the sections before it hold, so
    the mobility entries still find their regions."""
    doc = lib.startup_scenario()
    doc["duration_s"] = "x"
    assert validate_scenario(doc) == [("duration_s", "expected number, got str")]


def test_every_mobility_fault_keeps_its_path_message_and_order():
    """Each kind of attach and move fault, on its own and several in one
    entry: an attach's prefix must be inside the mobility range, a move's
    must attach somewhere, and only an attach that is kept makes a prefix
    known to the moves."""
    doc = lib.random_walk_scenario()
    doc["mobility"]["attach"] += [
        {"t": "soon", "prefix": "10.1.1.2/32", "region": "MR11"},
        {"prefix": "10.1.1.300/32", "region": "MR11"},
        {"prefix": "10.1.1.3/32", "region": "MR99"},
        {"prefix": "10.1.1.4/32", "region": "MR12", "cell": "c9"},
        {"prefix": "11.0.0.1/32", "region": "MR13"},
        {"t": -1, "prefix": "11.0.0.2/32", "region": "MR12", "cell": "c9"},
    ]
    doc["mobility"]["move"] = [
        {"t": -1.0, "prefix": lib.MN, "region": "MR12"},
        {"t": 1.0, "prefix": "bogus", "region": "MR12"},
        {"t": 1.0, "prefix": lib.MN, "region": "MR99"},
        {"t": 1.0, "prefix": lib.MN, "region": "MR12", "cell": "c9"},
        {"t": 1.0, "prefix": "10.9.9.9/32", "region": "MR12"},
        {"prefix": lib.MN, "region": "MR12"},
        {"t": 1.0, "prefix": "10.1.1.2/32", "region": "MR12"},
        {"t": 1.0, "prefix": "10.1.1.4/32", "region": "MR12"},
        {"t": "x", "prefix": "10.9.9.8/32", "region": "MR98", "cell": "c1"},
    ]
    no_network = "does not appear to be an IPv4 or IPv6 network"
    assert validate_scenario(doc) == [
        ("mobility.attach[2].t", "expected number, got str"),
        ("mobility.attach[3].prefix",
         f"bad prefix: '10.1.1.300/32' {no_network}"),
        ("mobility.attach[4].region", "unknown region 'MR99'"),
        ("mobility.attach[5].cell", "region MR12 has no cell 'c9'"),
        ("mobility.attach[6].prefix", "outside the mobility address range"),
        ("mobility.attach[7].t", "must be >= 0.0"),
        ("mobility.attach[7].cell", "region MR12 has no cell 'c9'"),
        ("mobility.attach[7].prefix", "outside the mobility address range"),
        ("mobility.move[0].t", "must be >= 0.0"),
        ("mobility.move[1].prefix", f"bad prefix: 'bogus' {no_network}"),
        ("mobility.move[2].region", "unknown region 'MR99'"),
        ("mobility.move[3].cell", "region MR12 has no cell 'c9'"),
        ("mobility.move[4].prefix", "moves a prefix that never attaches"),
        ("mobility.move[5].t", "missing"),
        ("mobility.move[6].prefix", "moves a prefix that never attaches"),
        ("mobility.move[8].t", "expected number, got str"),
        ("mobility.move[8].region", "unknown region 'MR98'"),
        ("mobility.move[8].prefix", "moves a prefix that never attaches"),
    ]


@pytest.mark.parametrize("timers", [
    # as floats, 3 * 0.1 > 0.3 and 10 * 0.07 > 0.7
    {"keepalive_s": 0.1, "dead_s": 0.3, "lifetime_s": 3.0},
    {"keepalive_s": 0.01, "dead_s": 0.07, "lifetime_s": 0.7},
], ids=["dead_s", "lifetime_s"])
def test_a_timer_at_its_exact_ratio_is_accepted(timers):
    doc = lib.startup_scenario()
    doc["timers"] = timers
    assert validate_scenario(doc) == []


@pytest.mark.parametrize("timers,problem", [
    ({"keepalive_s": 0.1, "dead_s": 0.29, "lifetime_s": 3.0},
     ("timers.dead_s", "dead time 0.29 must be >= 3x keepalive 0.1")),
    ({"keepalive_s": 0.01, "dead_s": 0.07, "lifetime_s": 0.69},
     ("timers.lifetime_s", "lifetime 0.69 must be >= 10x dead time 0.07")),
], ids=["dead_s", "lifetime_s"])
def test_a_timer_just_below_its_ratio_is_refused(timers, problem):
    doc = lib.startup_scenario()
    doc["timers"] = timers
    assert validate_scenario(doc) == [problem]


# (section, entry) of one event of each kind in startup_scenario's topology
EVENTS = [
    ("attach", {"prefix": "10.2.2.1/32", "region": "MR21"}),
    ("move", {"prefix": lib.MN, "region": "MR13"}),
    ("detach", {"prefix": lib.MN}),
    ("failures", {"node": "P0"}),
]


def _with_event(doc, section, entry, t):
    """``doc`` with ``entry`` at time ``t`` appended to ``section``, and the
    problem path that entry has."""
    events = (doc.setdefault("failures", []) if section == "failures"
              else doc["mobility"][section])
    events.append(dict(entry, t=t))
    where = section if section == "failures" else f"mobility.{section}"
    return f"{where}[{len(events) - 1}].t"


@pytest.mark.parametrize("section,entry", EVENTS, ids=[s for s, _ in EVENTS])
def test_an_event_after_the_run_is_refused(section, entry):
    """The event loop ran such an event after ``duration_s``: an attach at
    t = 500 of a run of 0.15 s wrote records up to t = 500.004.  An event
    at ``duration_s`` itself stays valid."""
    doc = lib.startup_scenario()
    _with_event(doc, section, entry, doc["duration_s"])
    assert validate_scenario(doc) == []
    path = _with_event(doc, section, entry, 500.0)
    assert validate_scenario(doc) == [(path, "must be <= duration_s")]


def test_event_times_are_not_compared_with_a_bad_duration():
    doc = lib.startup_scenario()
    doc["duration_s"] = -1.0
    _with_event(doc, "attach", EVENTS[0][1], 500.0)
    assert validate_scenario(doc) == [("duration_s", "must be positive")]


# ----------------------------------------------------- non-finite numbers

FINITE_PATHS = ["duration_s", "timers.keepalive_s", "flows[0].rate_pps",
                "flows[0].start_s", "flows[0].stop_s", "mobility.attach[0].t",
                "mobility.model.mu", "flags.overlap_s",
                "topology.edges[0].latency_ms"]


@pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
@pytest.mark.parametrize("path", FINITE_PATHS)
def test_a_non_finite_number_is_refused(path, token):
    problems = validate_scenario(with_token(lib.random_walk_scenario(), path,
                                            token))
    assert (path, "must be finite") in problems, problems


UNCOUNTABLE = ("flows[0]", "(stop_s - start_s) * rate_pps must be below 2**53")


@pytest.mark.parametrize("edit,problems", [
    ({"stop_s": 1e308}, [UNCOUNTABLE]),  # set-up raised OverflowError
    ({"rate_pps": 1e300}, [UNCOUNTABLE]),  # n -= 1 left it as it was
    ({"start_s": 0.0, "stop_s": 2.0 ** 53, "rate_pps": 1}, [UNCOUNTABLE]),
    ({"start_s": 0.0, "stop_s": 2.0 ** 53 - 1, "rate_pps": 1}, []),
])
def test_a_flow_counts_its_packets_below_2_to_the_53(edit, problems):
    """Set-up counts a flow's packets in floats, which tell consecutive
    packet indices apart only below 2**53.  The run lasts until the flow
    stops, so a flow must stop by ``duration_s`` plays no part."""
    doc = lib.startup_scenario()
    doc["flows"][0].update(edit)
    doc["duration_s"] = max(doc["duration_s"], doc["flows"][0]["stop_s"])
    assert validate_scenario(doc) == problems


# ------------------------------------------------------------ fail closed

_BAD = st.sampled_from([None, "x", True, -1, -0.5, math.nan, math.inf,
                        -math.inf, list, dict]).map(
    lambda v: v() if isinstance(v, type) else v)  # a new list or dict each


def _paths(node, path=()):
    """The key path of every value inside ``node``."""
    items = node.items() if isinstance(node, dict) else (
        enumerate(node) if isinstance(node, list) else ())
    for key, value in items:
        yield path + (key,)
        yield from _paths(value, path + (key,))


def _numbers(scenario) -> list:
    return ([scenario.duration_s, scenario.flags.overlap_s]
            + list(vars(scenario.timers).values())
            + [spec.t for spec in scenario.attaches + scenario.moves
               + scenario.detaches + scenario.failures]
            + [x for f in scenario.flows for x in (f.rate_pps, f.start_s,
                                                   f.stop_s)]
            + ([scenario.model.mu, scenario.model.p] if scenario.model else [])
            + [ms for peers in scenario.graph.edges.values()
               for ms in peers.values()])


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_a_mutated_bundled_scenario_fails_closed(data):
    """Validation never raises, and a document it accepts holds only finite
    numbers, whatever bad values replace parts of a bundled scenario."""
    doc = data.draw(st.sampled_from(sorted(lib.BUNDLED_SCENARIOS)).map(
        lambda name: lib.BUNDLED_SCENARIOS[name]()))
    for _ in range(data.draw(st.integers(1, 2))):
        section = data.draw(st.sampled_from(sorted(doc)))
        path = data.draw(st.sampled_from([()] + list(_paths(doc[section]))))
        _set(section, *path, data.draw(_BAD))(doc)
    problems = validate_scenario(doc)
    assert all(type(p) is tuple and list(map(type, p)) == [str, str]
               for p in problems), problems
    if not problems:
        assert all(math.isfinite(x) for x in _numbers(parse_scenario(doc)))


# ------------------------------------------------------------ prefix memo

def _prefixes(scenario) -> list:
    return (scenario.mobility_ranges
            + [a.prefix for a in scenario.attaches]
            + [m.prefix for m in scenario.moves]
            + [d.prefix for d in scenario.detaches]
            + scenario.model.prefixes
            + [p for f in scenario.flows for p in (f.src, f.dst)])


def test_one_prefix_text_parses_to_one_instance():
    doc = lib.random_walk_scenario()
    doc["mobility"]["move"] = [{"t": 1.0, "prefix": lib.MN, "region": "MR12"}]
    doc["mobility"]["detach"] = [{"t": 2.0, "prefix": lib.MN}]
    prefixes = _prefixes(parse_scenario(doc))
    instances = {}
    for prefix in prefixes:
        instances.setdefault(str(prefix), set()).add(id(prefix))
    assert sorted(instances) == sorted({"10.0.0.0/8", lib.MN, lib.CN})
    assert len(prefixes) == 8
    assert all(len(ids) == 1 for ids in instances.values())


def test_a_bad_prefix_is_a_problem_at_each_of_its_paths():
    doc = lib.random_walk_scenario()
    doc["flows"][0]["src"] = doc["flows"][0]["dst"] = "10.0.0.300/32"
    problems = [(where, what) for where, what in validate_scenario(doc)
                if what.startswith("bad prefix")]
    assert [where for where, _ in problems] == ["flows[0].src", "flows[0].dst"]
    assert problems[0][1] == problems[1][1]


def test_separate_loads_share_no_prefix(tmp_path):
    path = tmp_path / "random_walk.json"
    path.write_text(json.dumps(lib.random_walk_scenario()), encoding="utf-8")
    first, second = load_scenario(path), load_scenario(path)
    for a, b in zip(_prefixes(first), _prefixes(second), strict=True):
        assert a == b and a is not b


# ------------------------------------------------------------- HA pairs

@pytest.mark.parametrize("pairs,message", [
    ([["ALER1", "ALER1"]], "an ALER cannot pair with itself"),
    ([["ALER1", "ALER1B"], ["ALER1B", "ALER1"]],
     "an ALER can be in one pair only"),
], ids=["itself", "twice"])
def test_an_ha_pair_is_two_alers_in_no_other_pair(pairs, message):
    doc = lib.ha_failover_scenario()
    assert validate_scenario(doc) == []
    doc["flags"]["ha_pairs"] = pairs
    assert validate_scenario(doc) == [(f"flags.ha_pairs[{len(pairs) - 1}]",
                                       message)]
