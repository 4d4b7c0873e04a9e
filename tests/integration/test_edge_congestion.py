"""Integration: edge-network congestion vs measurement purity.

Section 2.1's first challenge: "end-to-end performance measurements are
often dominated by problems in the edge network".  We congest the NY
access uplink (a finite-bandwidth queued link) and verify:

* application end-to-end latency inflates by the self-queueing delay —
  an end-host prober would blame the wide area;
* Tango's one-way delays, timestamped at the border switch, do not move.
"""

import numpy as np
import pytest

from repro.netsim.queueing import QueuedLink
from repro.netsim.trace import PacketFactory
from repro.scenarios.vultr import VultrDeployment


def build_congested_deployment(rate_bps):
    deployment = VultrDeployment(include_events=False)
    deployment.establish()
    # Replace the NY access uplink with a skinny queued link.
    old = deployment.net.links["host-ny->gw-ny"]
    queued = QueuedLink(
        old.name,
        old.src,
        old.dst,
        delay=old.delay,
        bandwidth_bps=rate_bps,
        buffer_bytes=512 * 1024,
    )
    deployment.net.links[old.name] = queued
    return deployment, queued


class TestEdgeCongestion:
    def test_congestion_inflates_app_latency_not_tango_owd(self):
        # 124-byte probes every 2 ms ≈ 496 kbit/s offered; a 600 kbit/s
        # uplink is near saturation, so queueing delay builds.
        deployment, uplink = build_congested_deployment(rate_bps=600_000.0)
        deployment.start_path_probes("ny", interval_s=0.002)

        factory = PacketFactory(
            src=str(deployment.pairing.a.host_address(8)),
            dst=str(deployment.pairing.b.host_address(8)),
            flow_label=4,
            payload_bytes=64,
        )
        send = deployment.sender_for("ny")
        app_latencies = []

        def on_delivery(packet, now):
            app_latencies.append(now - packet.meta["sent"])

        deployment.host_la.bind(4, on_delivery)

        def emit():
            packet = factory.build()
            packet.meta["sent"] = deployment.sim.now
            send(packet)

        deployment.sim.call_every(0.05, emit)
        deployment.net.run(until=4.0)

        assert uplink.max_backlog_bytes > 0  # the queue really built up
        app = np.asarray(app_latencies)
        # End-to-end latency far exceeds the WAN floor: edge queueing.
        assert float(np.percentile(app, 90)) > 0.040

        # Tango's border-to-border measurement is untouched: GTT still
        # reads its clean ~28 ms (+ offset), tight spread.
        gtt = deployment.gateway_la.inbound.series(2).values
        offset = deployment.clock_offset_delta("ny")
        assert float(np.mean(gtt)) - offset == pytest.approx(0.0282, abs=5e-4)
        assert float(np.std(gtt)) < 3e-4

    def test_uncongested_control(self):
        deployment, uplink = build_congested_deployment(rate_bps=100e6)
        deployment.start_path_probes("ny", interval_s=0.002)
        deployment.net.run(until=2.0)
        # The four probe streams fire simultaneously, so a couple of
        # packets serialize behind each other even on a fat link — but
        # no sustained backlog forms.
        assert uplink.max_backlog_bytes < 1000
        assert uplink.dropped_queue == 0
        gtt = deployment.gateway_la.inbound.series(2).values
        offset = deployment.clock_offset_delta("ny")
        assert float(np.mean(gtt)) - offset == pytest.approx(0.0282, abs=5e-4)
