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


# (path of the problem, edit of a valid document that puts it there)
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
]


@pytest.mark.parametrize("path,edit", MALFORMED,
                         ids=[f"{path}-{i}" for i, (path, _)
                              in enumerate(MALFORMED)])
def test_malformed_field_is_a_problem_not_an_exception(path, edit):
    doc = lib.random_walk_scenario()
    assert validate_scenario(doc) == []
    edit(doc)
    problems = validate_scenario(doc)
    assert path in [where for where, _ in problems], problems


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
    packet indices apart only below 2**53."""
    doc = lib.startup_scenario()
    doc["flows"][0].update(edit)
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
