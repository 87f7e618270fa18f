"""Scenario validation reports a malformed field as a ``(path, message)``
problem; it never lets the field reach code that raises on its type."""

import json

import pytest

from hmlbn import scenarios as lib
from hmlbn.scenario import load_scenario, parse_scenario, validate_scenario


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
