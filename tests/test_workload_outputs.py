"""The benchmark's workloads, pinned: each one's ``trace.jsonl`` and
``metrics.csv`` at seed 1 and at the held-out seed 13, byte for byte.

``bench/workloads.py`` is run from its file, read only, so the workloads
stay defined in one place.  Each run's ``metrics.csv`` is also kept as
text under ``tests/golden/``.  A change that alters their output on purpose
updates ``PINNED_WORKLOADS`` and the golden files and says why in
CHANGES.md.
"""

import hashlib
import json
import runpy
from pathlib import Path

import pytest

from hmlbn.scenario import parse_scenario
from hmlbn.simulator import run_scenario

from helpers import golden

BENCH = Path(__file__).resolve().parent.parent / "bench"
WORKLOADS = runpy.run_path(str(BENCH / "workloads.py"))["WORKLOADS"]

# workload -> sha256 of (trace.jsonl, metrics.csv) at seed 1
PINNED_WORKLOADS = {
    "steady_flows": (
        "3594467b14ef2988b0e38597793a53d33dd38508730f1ed1c04615368f60aa83",
        "e77ce24d062ee234df18c8ce7cf892a8fd73a14ccb818ebf9bbbc4e2506326ae"),
    "roaming": (
        "a2e839220c810b8119dc07fca1401d2a7e91031d317e5d562d129e2e06bb79a4",
        "c9a8c8f58e9f755007f370363dde6a31c5d36c9a4f817f4d68048ec635466ca6"),
    "wide_mesh": (
        "37522915583f7f1a6c86b62a38c3c1c7102748edb75682e0450af88a0c1b51fb",
        "a257df7cc293e4f3be488ed316f118e302115fcff6f4115637b9854c8d687395"),
}
# the same at seed 13, which no change is tuned on
PINNED_WORKLOADS_AT_SEED_13 = {
    "steady_flows": (
        "cdcd267301aa196774a6babea5d69bff966a830c7867e56a46416373645c61cb",
        "3eda83776dcdd80689e7864f81fb1ac0711f3c1cb18fa3177c3a7db23b121796"),
    "roaming": (
        "cd7d5d0dea4efc6b7bc13eeb8a60bd0b955262b464b9a66f9584ebc4b1e3bec1",
        "bf99f17a19fb62e8dd45ae95641ed6cc5698d7fa386cde892fa9c24166819eeb"),
    "wide_mesh": (
        "6b789521ca7deb3abb21d762e99ecd7e5a9556dac430570f3f482b03c6f463ca",
        "74e8932101ccb282faee39de17821ebb97e651a5d2e020197b80539563ff3243"),
}


def _digests(name, seed):
    # through JSON text, as the benchmark hands the program a scenario file
    doc = json.loads(json.dumps(WORKLOADS[name].document(seed=seed)))
    sim = run_scenario(parse_scenario(doc))
    metrics = sim.metrics.to_csv()
    assert metrics == golden(f"{name}.seed{seed}.metrics.csv")
    return tuple(hashlib.sha256(text.encode("utf-8")).hexdigest()
                 for text in (sim.trace_jsonl(), metrics))


def test_every_workload_is_pinned():
    assert set(PINNED_WORKLOADS) == set(WORKLOADS)
    assert set(PINNED_WORKLOADS_AT_SEED_13) == set(WORKLOADS)


@pytest.mark.parametrize("name", sorted(PINNED_WORKLOADS))
def test_workload_outputs_match_their_pins(name):
    assert _digests(name, seed=1) == PINNED_WORKLOADS[name]


@pytest.mark.parametrize("name", sorted(PINNED_WORKLOADS_AT_SEED_13))
def test_workload_outputs_match_their_pins_at_seed_13(name):
    assert _digests(name, seed=13) == PINNED_WORKLOADS_AT_SEED_13[name]
