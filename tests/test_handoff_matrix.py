"""The hand-off matrix: each hand-off kind (local, intra-area, inter-area)
with the correspondent in each position relative to the mobile, on the old
or new LER, on another LER of the old or new area, or in a third area.

Each run is a bundled hand-off scenario stretched to 3 s, its flow to
2.5 s.  A cell asserts that the hand-off blackholes no correspondent:
every packet is delivered, none dropped and none left in flight.  The
local hand-off holds with and without ``overlap_attach``, the others with
it.  A correspondent in the mobile's old area still loses packets as
``stale_location`` on an intra- or inter-area hand-off (ROADMAP item 1);
those cells join the table with their fix."""

import pytest

from hmlbn import scenarios as lib

from helpers import run

KINDS = {"local": lib.local_handoff_scenario,  # MR12 c1 -> c2
         "intra": lib.intra_area_scenario,     # MR12 -> MR13
         "inter": lib.inter_area_scenario}     # MR13 -> MR21

CELLS = ([("local", cn, overlap)
          for cn in ("MR11", "MR12", "MR13", "MR21", "MR22", "MR33")
          for overlap in (True, False)]
         + [("intra", cn, True) for cn in ("MR13", "MR21", "MR22", "MR33")]
         + [("inter", cn, True) for cn in ("MR21", "MR22", "MR33")])


@pytest.mark.parametrize("kind,cn_region,overlap", CELLS)
def test_handoff_loses_no_packet_of_the_correspondent(kind, cn_region,
                                                       overlap):
    doc = KINDS[kind]()
    doc["duration_s"] = 3.0
    flow = doc["flows"][0]
    flow["stop_s"] = 2.5
    doc["flags"] = {"overlap_attach": overlap}
    cn = next(a for a in doc["mobility"]["attach"] if a["prefix"] == lib.CN)
    cn["region"] = cn_region
    row = run(doc).metrics.finalize()[flow["id"]]
    sent = round((flow["stop_s"] - flow["start_s"]) * flow["rate_pps"])
    assert sent == (2450 if kind == "inter" else 490)
    assert (row["ingress"], row["delivered"], row["in_flight"]) \
        == (sent, sent, 0)
    assert not any(row["drops"].values()), row["drops"]
