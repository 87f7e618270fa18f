"""The benchmark's workloads, pinned: each one's ``trace.jsonl`` and
``metrics.csv`` at seed 1, byte for byte.

``bench/workloads.py`` is run from its file, read only, so the workloads
stay defined in one place.  A change that alters their output on purpose
updates ``PINNED_WORKLOADS`` and says why in CHANGES.md.
"""

import hashlib
import json
import runpy
from pathlib import Path

import pytest

from hmlbn.scenario import parse_scenario
from hmlbn.simulator import run_scenario

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


def test_every_workload_is_pinned():
    assert set(PINNED_WORKLOADS) == set(WORKLOADS)


@pytest.mark.parametrize("name", sorted(PINNED_WORKLOADS))
def test_workload_outputs_match_their_pins(name):
    # through JSON text, as the benchmark hands the program a scenario file
    doc = json.loads(json.dumps(WORKLOADS[name].document(seed=1)))
    sim = run_scenario(parse_scenario(doc))
    digests = tuple(hashlib.sha256(text.encode("utf-8")).hexdigest()
                    for text in (sim.trace_jsonl(), sim.metrics.to_csv()))
    assert digests == PINNED_WORKLOADS[name]
