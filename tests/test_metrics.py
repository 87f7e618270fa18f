"""``Metrics`` counts each packet once at ingress and once at its end, and
sums latencies in seq order whatever order the deliveries came in."""

from hmlbn.forwarding import DataPacket
from hmlbn.messages import MobilePrefix
from hmlbn.trace import DROP_REASONS, Metrics

HOST = MobilePrefix.parse("10.1.1.1/32")


def _packet(seq: int, created_at: float, hops: int,
            lookups: int = 0) -> DataPacket:
    packet = DataPacket("f", seq, HOST, created_at)
    packet.hop_trace = [f"n{i}" for i in range(hops + 1)]
    packet.post_ingress_lookups = lookups
    return packet


def test_out_of_order_deliveries_are_summed_in_seq_order():
    metrics = Metrics()
    for _ in range(6):
        metrics.record_ingress("f")
    # delivered in time order 3, 0, 2; seq 5 is still in flight
    metrics.record_delivery(_packet(3, 0.3, 2), 0.4)
    metrics.record_delivery(_packet(0, 0.0, 3, lookups=1), 0.6)
    metrics.record_delivery(_packet(2, 0.2, 2), 1.1)
    metrics.record_drop(_packet(1, 0.1, 1), "no_binding")
    metrics.record_drop(_packet(4, 0.4, 0), "martian")  # not in DROP_REASONS
    row = metrics.finalize()["f"]
    latencies = [0.6 - 0.0, 1.1 - 0.2, 0.4 - 0.3]
    assert row["latencies"] == latencies
    assert row["ingress"] == 6 and row["delivered"] == 3
    assert row["drops"]["no_binding"] == row["drops"]["martian"] == 1
    assert row["in_flight"] == 6 - 3 - 2 == 1
    assert row["hops"] == {2: 2, 3: 1}
    assert row["max_gap_s"] == 1.1 - 0.6
    assert metrics.post_ingress_ip_lookups == 1

    header, line, total = metrics.to_csv().splitlines()
    columns = header.split(",")
    assert "martian" not in header
    assert [c for c in columns if c.startswith("drop_")] == \
        [f"drop_{r}" for r in DROP_REASONS]
    cells = dict(zip(columns, line.split(",")))
    assert cells["in_flight"] == "1" and cells["drop_no_binding"] == "1"
    assert cells["mean_hops"] == f"{7 / 3:.4f}"
    assert cells["mean_latency_ms"] == f"{sum(latencies) / 3 * 1000.0:.4f}"
    assert total.split(",")[:4] == ["TOTAL", "6", "3", "1"]
