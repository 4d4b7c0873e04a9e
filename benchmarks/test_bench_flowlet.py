"""E12 (extension) — flowlet load balancing in the data plane (Section 6).

The paper leaves "effective load balancing across multiple paths in the
data plane" as future work; flowlet switching is the standard answer.
The safety argument: a flow may move between paths only across an idle
gap longer than the paths' delay disparity, so no packet can overtake an
earlier one.

Packet-level sweep over the Vultr deployment (NY→LA, GTT at ~28 ms vs
NTT at ~36 ms — an 8 ms disparity) with bursty application traffic
(20-packet bursts at 1 ms spacing, 60 ms pauses):

* per-packet switching (gap « packet spacing): balances load but
  reorders packets across the disparity;
* per-burst switching (gap between packet spacing and pause): balances
  load at ambient reordering (only the edge links' own jitter) — the
  flowlet sweet spot;
* sticky (gap > pause): never switches, no balancing at all.
"""

import numpy as np
from conftest import emit

from repro.analysis.report import format_table
from repro.dataplane.flowlet import FlowletSelector
from repro.netsim.trace import PacketFactory
from repro.scenarios.vultr import VultrDeployment
from repro.telemetry.reorder import reordering_from_arrivals

BURSTS = 120
BURST_SIZE = 20
INTRA_GAP = 0.001
PAUSE = 0.060
FLOW = 33

#: (label, flowlet gap): per-packet, per-burst, sticky.
SWEEP = (("per-packet", 0.0005), ("per-burst", 0.005), ("sticky", 0.5))


def run_one(gap_s):
    deployment = VultrDeployment(include_events=False)
    deployment.establish()
    selector = FlowletSelector(gap_s=gap_s, seed=5)
    deployment.gateway_ny.set_selector(selector)

    factory = PacketFactory(
        src=str(deployment.pairing.a.host_address(6)),
        dst=str(deployment.pairing.b.host_address(6)),
        flow_label=FLOW,
    )
    send = deployment.sender_for("ny")
    arrivals = []  # (app_seq, arrival_time, path_id)

    def on_delivery(packet, now):
        arrivals.append((packet.meta["app_seq"], now, packet.meta["tango_path_id"]))

    deployment.host_la.bind(FLOW, on_delivery)

    seq = 0
    for burst in range(BURSTS):
        start = burst * (BURST_SIZE * INTRA_GAP + PAUSE)
        for i in range(BURST_SIZE):
            def emit_packet(s=seq):
                packet = factory.build()
                packet.meta["app_seq"] = s
                send(packet)

            deployment.sim.schedule_at(start + i * INTRA_GAP, emit_packet)
            seq += 1
    duration = BURSTS * (BURST_SIZE * INTRA_GAP + PAUSE)
    deployment.net.run(until=duration + 1.0)

    arrivals.sort(key=lambda a: a[1])
    seqs = np.asarray([a[0] for a in arrivals])
    times = np.asarray([a[1] for a in arrivals])
    paths = np.asarray([a[2] for a in arrivals])
    report = reordering_from_arrivals(seqs, times)
    shares = {int(p): float(np.mean(paths == p)) for p in np.unique(paths)}
    balance = 1.0 - max(shares.values())  # 0 = all on one path
    return {
        "delivered": len(arrivals),
        "reordered_fraction": report.reordered_fraction,
        "paths_used": len(shares),
        "top_path_share": max(shares.values()),
        "balance": balance,
        "switches": selector.switches,
    }


def test_flowlet_gap_sweep(benchmark):
    def sweep():
        return {label: run_one(gap) for label, gap in SWEEP}

    results = benchmark.pedantic(sweep, rounds=1, iterations=1)
    rows = [{"mode": label, **stats} for label, stats in results.items()]
    emit(format_table(rows, title="E12 — flowlet gap vs reordering/balance"))

    per_packet = results["per-packet"]
    per_burst = results["per-burst"]
    sticky = results["sticky"]

    total = BURSTS * BURST_SIZE
    for stats in results.values():
        assert stats["delivered"] == total

    # Ambient reordering from edge-link jitter exists even without any
    # switching (the sticky run measures it: ~2%).
    ambient = sticky["reordered_fraction"]
    assert ambient < 0.05

    # Per-packet switching reorders massively across the 8 ms disparity.
    assert per_packet["reordered_fraction"] > 0.2
    assert per_packet["reordered_fraction"] > 5 * max(ambient, 0.01)
    assert per_packet["paths_used"] >= 2

    # Per-burst flowlets: real balancing at (near-)ambient reordering —
    # path switches only happen across the 60 ms pauses, which exceed
    # any path-delay disparity.
    assert per_burst["reordered_fraction"] < 0.08
    assert per_burst["reordered_fraction"] < per_packet["reordered_fraction"] / 5
    assert per_burst["paths_used"] >= 2
    assert per_burst["top_path_share"] < 0.6
    assert per_burst["switches"] > 10

    # Sticky never switches: no balancing at all.
    assert sticky["paths_used"] == 1
    assert sticky["switches"] == 0
