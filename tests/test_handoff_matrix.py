"""The hand-off matrix: each hand-off kind (local, intra-area, inter-area)
with the correspondent in each position relative to the mobile, on the old
or new LER, on another LER of the old or new area, or in a third area.

Each run is a bundled hand-off scenario stretched to 3 s, its flow to
2.5 s.  A cell asserts that the hand-off blackholes no correspondent:
every packet is delivered, none dropped and none left in flight.  The
local hand-off holds with and without ``overlap_attach``, the others with
it.  Without the overlap an intra- or inter-area move breaks before it
makes, so those cells bound the loss instead: only packets sent in the
10 ms after the move may drop, each as ``stale_location``, and none stays
in flight.  A correspondent in the mobile's old area still loses packets
as ``stale_location`` on an intra- or inter-area hand-off (ROADMAP item
1); those cells join the table with their fix."""

import pytest

from hmlbn import scenarios as lib

from helpers import run

KINDS = {"local": lib.local_handoff_scenario,  # MR12 c1 -> c2
         "intra": lib.intra_area_scenario,     # MR12 -> MR13
         "inter": lib.inter_area_scenario}     # MR13 -> MR21

# the regions, outside the mobile's old area, of a correspondent the intra-
# and inter-area hand-offs must not blackhole
SAFE = {"intra": ("MR13", "MR21", "MR22", "MR33"),
        "inter": ("MR21", "MR22", "MR33")}
BREAK_S = 0.010  # what may be lost without the overlap: 10 ms of the flow

CELLS = ([("local", cn, overlap)
          for cn in ("MR11", "MR12", "MR13", "MR21", "MR22", "MR33")
          for overlap in (True, False)]
         + [(kind, cn, True) for kind, cns in SAFE.items() for cn in cns])


def _run_cell(kind, cn_region, overlap):
    """The flow and its metrics row, with the correspondent at
    ``cn_region``; the flow sends 490 packets (intra, local) or 2,450."""
    doc = KINDS[kind]()
    doc["duration_s"] = 3.0
    flow = doc["flows"][0]
    flow["stop_s"] = 2.5
    doc["flags"] = {"overlap_attach": overlap}
    cn = next(a for a in doc["mobility"]["attach"] if a["prefix"] == lib.CN)
    cn["region"] = cn_region
    row = run(doc).metrics.finalize()[flow["id"]]
    sent = round((flow["stop_s"] - flow["start_s"]) * flow["rate_pps"])
    assert row["ingress"] == sent == (2450 if kind == "inter" else 490)
    return flow, row


@pytest.mark.parametrize("kind,cn_region,overlap", CELLS)
def test_handoff_loses_no_packet_of_the_correspondent(kind, cn_region,
                                                       overlap):
    _, row = _run_cell(kind, cn_region, overlap)
    assert (row["delivered"], row["in_flight"]) == (row["ingress"], 0)
    assert not any(row["drops"].values()), row["drops"]


@pytest.mark.parametrize("kind,cn_region", [
    (kind, cn) for kind, cns in SAFE.items() for cn in cns])
def test_handoff_without_overlap_loses_only_the_packets_at_the_move(
        kind, cn_region):
    flow, row = _run_cell(kind, cn_region, overlap=False)
    lost = row["ingress"] - row["delivered"]
    assert row["in_flight"] == 0
    assert lost == row["drops"]["stale_location"], row["drops"]
    assert lost <= round(BREAK_S * flow["rate_pps"])  # 2 intra, 10 inter
