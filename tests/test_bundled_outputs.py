"""Bundled scenarios: the files match their builders, and each one's
``trace.jsonl`` and ``metrics.csv`` are pinned byte for byte at its own seed
(``random_walk`` also at seeds 1 and 7).  Each run's ``metrics.csv`` is
also kept as text under ``tests/golden/``, so that a change in it shows per
flow and per drop reason in a diff.

A change that alters simulator output on purpose updates ``PINNED`` and the
golden files and says why in CHANGES.md; any other change must leave every
hash and golden file as it is.
"""

import hashlib
import json
from pathlib import Path

import pytest

from hmlbn.scenario import load_scenario
from hmlbn.scenarios import BUNDLED_PATTERNS, BUNDLED_SCENARIOS
from hmlbn.simulator import run_scenario

from helpers import golden

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"

# scenario name -> sha256 of (trace.jsonl, metrics.csv) as `hmlbn run` writes them
PINNED = {
    "ha_failover": (
        "a6b9dc5e0f4e99071cb2435bb847abc88b180d30f1619f491db09fe49e7126fa",
        "336d0f8d5cdf5dfbd03e8086ac069fdd400d4434f0f91494bb37859eaff0f795"),
    "inter_area_handoff": (
        "586f67d2655b78121eabc5b2e9956fd4866f98a44fdfbe81f5e7f47a3133e4be",
        "c6fd6ca61d15b16aa86b959157b9d1346f8d27c572becf90d11533fa5f125c12"),
    "intra_area_handoff": (
        "11b60125a4cbb7873b72b2efca8eb340485b80683708ebf110b9ff615a0b2610",
        "7059eb728972b96c2dcb6ee09f0709f519004041c6b283631ff02db5bf89140b"),
    "local_handoff": (
        "2dcd39d14968eaed6163652581d81707bb080cc380d7f0bab06f4e3d953cb2c4",
        "a8e6006ffdcc99126237da1c0f67f9dce9f0c6ada6982828c98f29bef0a5d1f2"),
    "penalty_probe": (
        "4893e0273e280004e4ccb029ebc059a767144696f2d0185838c4eb624e8acaf6",
        "8bdd372987fba00b413adf23903be2134414a6a7aa1a10781f666c8bf6ea0c75"),
    "random_walk": (
        "847def73759a45fbc3e286281a564253404f59a0ffaed32caf45cd3384ab9eed",
        "a5bc44b025ce9d78735e4180de3fd2ec862eb7deeda9116bdf5fc5f43d73649b"),
    "startup": (
        "40617d51c5d0609366b999ad2a378e322414bb69ca0c57e7fdb0b3207d8ea41c",
        "4535c44b49eef5564339085a5a3b66a2cea72a32065fb41df46766b5514f93ed"),
    "withdrawal": (
        "589deed49ee036776f59af0ec1148ed7989aa4f48362739018e9f33bbbef1711",
        "8f792b43176e71feb38152754eaeeda3db243bcd47c6a438257481c082b1aaa0"),
}

# (scenario name, seed) -> sha256 of (trace.jsonl, metrics.csv) at a seed other
# than the scenario's own; random_walk is the only bundled scenario whose
# outputs depend on the seed
PINNED_AT_SEED = {
    ("random_walk", 1): (
        "625f9c029682e7516af333cd6a8fbc21d79f93de57816dc18925777a4732e906",
        "3136203f4ad248a1148bec4af319dffb1776148bd4d87fe1c42a0df3e76eafcf"),
    ("random_walk", 7): (
        "c5c7547c15e642e7fdfa18ab4d37dec0f7a2d82b2e1612309c9bf48464bc2813",
        "0f7a754cee0302fdf0242e28577a2203c942933a8bcfbafc3b4b85a8a334f380"),
}


def _as_written(doc) -> str:
    """The text scripts/write_scenarios.py writes for a document."""
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("name", sorted(BUNDLED_SCENARIOS))
def test_scenario_file_matches_builder(name):
    text = (SCENARIO_DIR / f"{name}.json").read_text(encoding="utf-8")
    assert text == _as_written(BUNDLED_SCENARIOS[name]())


@pytest.mark.parametrize("name", sorted(BUNDLED_PATTERNS))
def test_pattern_file_matches_builder(name):
    text = (SCENARIO_DIR / "patterns" / f"{name}.json").read_text(encoding="utf-8")
    assert text == _as_written({"name": name, "items": BUNDLED_PATTERNS[name]()})


def test_every_bundled_scenario_is_pinned():
    assert set(PINNED) == set(BUNDLED_SCENARIOS)


@pytest.mark.parametrize("name", sorted(PINNED))
def test_outputs_match_pinned_hashes(name):
    sim = run_scenario(load_scenario(SCENARIO_DIR / f"{name}.json"))
    metrics = sim.metrics.to_csv()
    assert metrics == golden(f"{name}.metrics.csv")
    assert (_sha256(sim.trace_jsonl()), _sha256(metrics)) == PINNED[name]


@pytest.mark.parametrize("name,seed", sorted(PINNED_AT_SEED))
def test_outputs_match_pinned_hashes_at_seed(name, seed):
    sim = run_scenario(load_scenario(SCENARIO_DIR / f"{name}.json"), seed=seed)
    metrics = sim.metrics.to_csv()
    assert metrics == golden(f"{name}.seed{seed}.metrics.csv")
    assert (_sha256(sim.trace_jsonl()),
            _sha256(metrics)) == PINNED_AT_SEED[(name, seed)]
