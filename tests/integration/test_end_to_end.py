"""Integration tests: the full Tango pipeline, end to end.

Each test drives the complete stack — BGP establishment, packet-level
data plane, telemetry mirroring, adaptive policies — and asserts a
paper-level behaviour, not a unit property.
"""

import numpy as np
import pytest

from repro.core.policy import LowestDelaySelector, StaticSelector
from repro.netsim.delaymodels import AsymmetryEvent
from repro.netsim.links import replace_models
from repro.netsim.trace import PacketFactory
from repro.scenarios.vultr import VultrDeployment


def data_stream(deployment, src, count, flow=5, gap=0.01, start=0.0):
    """Send `count` packets from src's host, spaced `gap` apart."""
    dst = "la" if src == "ny" else "ny"
    factory = PacketFactory(
        src=str(deployment.pairing.edge(src).host_address(7)),
        dst=str(deployment.pairing.edge(dst).host_address(7)),
        flow_label=flow,
    )
    send = deployment.sender_for(src)
    for i in range(count):
        deployment.sim.schedule_at(
            start + i * gap, lambda f=factory: send(f.build())
        )


class TestFullPipeline:
    def test_establish_probe_measure_adapt(self):
        """The complete Tango story in one run: establish, measure all
        four paths, and watch an adaptive policy outperform the default."""
        d = VultrDeployment(include_events=False)
        d.establish()
        d.start_path_probes("ny", interval_s=0.02)
        # Adaptive data policy fed by mirrored measurements.
        adaptive = LowestDelaySelector(d.gateway_ny.outbound, window_s=1.0)
        d.set_data_policy("ny", adaptive)
        data_stream(d, "ny", count=100, gap=0.02, start=2.0)
        d.net.run(until=5.0)
        delivered = [
            p for p in d.host_la.received_packets if p.flow_label == 5
        ]
        assert len(delivered) == 100
        # After warm-up, data rides GTT (path 2) — the best NY→LA path.
        on_gtt = [p for p in delivered if p.meta["tango_path_id"] == 2]
        assert len(on_gtt) > 90

    def test_one_way_delays_exclude_edge_noise(self):
        """Tango's border placement: measured OWD reflects only the
        wide-area segment, not the noisy host-side links."""
        d = VultrDeployment(include_events=False)
        d.establish()
        d.start_path_probes("ny", interval_s=0.02)
        d.net.run(until=3.0)
        gtt = d.gateway_la.inbound.series(2).values
        offset = d.clock_offset_delta("ny")
        # GTT base 28.05 ms, sigma 0.03 ms (+ diurnal ≤ 0.3 ms): if edge
        # noise (0.6 ± 0.35 ms per crossing) leaked in, the spread would
        # be an order of magnitude wider.
        spread = float(np.std(gtt))
        assert spread < 2e-4
        assert float(np.mean(gtt)) - offset == pytest.approx(0.0282, abs=5e-4)

    def test_measured_owds_are_offset_distorted_but_rankable(self):
        d = VultrDeployment(include_events=False)
        d.establish()
        d.start_path_probes("ny", interval_s=0.02)
        d.net.run(until=2.0)
        inbound = d.gateway_la.inbound
        means = {p: float(np.mean(inbound.series(p).values)) for p in range(4)}
        offset = d.clock_offset_delta("ny")
        assert offset != 0.0
        # Ranking: GTT < Telia < NTT < Level3 regardless of offset.
        ranked = sorted(means, key=means.get)
        assert ranked == [2, 1, 0, 3]

    def test_loss_and_reordering_seen_by_tracker(self):
        d = VultrDeployment(
            include_events=False, instability_loss=0.0
        )
        d.establish()
        d.start_path_probes("ny", interval_s=0.02)
        d.net.run(until=2.0)
        stats = d.gateway_la.tracker.all_paths()
        assert set(stats) == {0, 1, 2, 3}
        for s in stats.values():
            assert s.received > 90
            assert s.presumed_lost == 0  # lossless steady state


class TestAuthenticatedTelemetry:
    def test_auth_enabled_end_to_end(self):
        d = VultrDeployment(include_events=False, auth_key=b"q" * 16)
        d.establish()
        d.start_path_probes("ny", interval_s=0.05)
        d.net.run(until=1.0)
        assert d.gateway_la.receiver.rejected_auth == 0
        assert d.gateway_la.inbound.path_ids() == [0, 1, 2, 3]
        assert d.gateway_la.authenticator.stats.verified > 0


class TestAsymmetricEvent:
    def test_one_way_measurement_sees_directional_shift(self):
        """Inject a forward-only +20 ms event on GTT; the NY→LA inbound
        store sees it, while the reverse direction stays clean — the
        capability RTT probing fundamentally lacks (E7)."""
        d = VultrDeployment(include_events=False)
        d.establish()
        # Patch the NY→LA GTT link with an asymmetric event.
        link = d.net.links["ny->la:GTT"]
        replace_models(
            link,
            delay=link.delay.with_event(
                AsymmetryEvent(start=1.0, duration=2.0, shift=0.020)
            ),
        )
        d.start_path_probes("ny", interval_s=0.02)
        d.start_path_probes("la", interval_s=0.02)
        d.net.run(until=4.0)
        fwd = d.gateway_la.inbound.series(2)
        inside = fwd.window(1.2, 2.8)[1]
        outside = fwd.window(0.2, 0.9)[1]
        assert float(np.mean(inside)) - float(np.mean(outside)) == pytest.approx(
            0.020, abs=1e-3
        )
        rev = d.gateway_ny.inbound.series(64 + 2)
        rev_inside = rev.window(1.2, 2.8)[1]
        rev_outside = rev.window(0.2, 0.9)[1]
        assert float(np.mean(rev_inside)) == pytest.approx(
            float(np.mean(rev_outside)), abs=1e-3
        )


class TestApplicationPinning:
    def test_two_apps_ride_different_paths(self):
        """'Distinct routes for different applications' (Section 3)."""
        from repro.core.policy import ApplicationSelector

        d = VultrDeployment(include_events=False)
        d.establish()
        selector = ApplicationSelector(
            default=StaticSelector(0),
            classes={10: StaticSelector(2), 11: StaticSelector(1)},
        )
        d.gateway_ny.set_selector(selector)
        data_stream(d, "ny", count=20, flow=10)
        data_stream(d, "ny", count=20, flow=11)
        d.net.run(until=2.0)
        by_flow = {}
        for p in d.host_la.received_packets:
            by_flow.setdefault(p.flow_label, set()).add(
                p.meta["tango_path_id"]
            )
        assert by_flow[10] == {2}
        assert by_flow[11] == {1}
