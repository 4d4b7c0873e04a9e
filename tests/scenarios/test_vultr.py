"""Tests for the Vultr deployment scenario — calibration and wiring.

These tests pin the scenario to the paper's reported numbers, so the
benchmark harness can't silently drift away from the evaluation.
"""

import numpy as np
import pytest

from repro.analysis.stats import default_vs_best
from repro.scenarios.vultr import (
    CLOCK_OFFSET_LA,
    CLOCK_OFFSET_NY,
    INSTABILITY_HOUR,
    LA_TO_NY_PATHS,
    NY_TO_LA_PATHS,
    ROUTE_CHANGE_HOUR,
    VultrDeployment,
    build_bgp_network,
)
from repro.telemetry.jitter import rolling_window_std


@pytest.fixture(scope="module")
def deployment():
    d = VultrDeployment()
    d.establish()
    return d


class TestControlPlane:
    def test_bgp_network_builds(self):
        bgp = build_bgp_network()
        assert "vultr-la" in bgp.routers
        assert bgp.router("vultr-la").asn == bgp.router("vultr-ny").asn

    def test_discovered_path_sets_match_figure3(self, deployment):
        assert deployment.path_labels("ny") == ["NTT", "Telia", "GTT", "Level3"]
        assert deployment.path_labels("la") == ["NTT", "Telia", "GTT", "Cogent"]

    def test_every_path_has_calibration(self, deployment):
        for src, calibrations in (("ny", NY_TO_LA_PATHS), ("la", LA_TO_NY_PATHS)):
            for label in deployment.path_labels(src):
                assert label in calibrations


class TestCalibration:
    def test_default_vs_best_gap_is_thirty_percent(self, deployment):
        """The headline: NTT (BGP default) ≈ 30% above GTT, NY→LA."""
        measured, true = deployment.run_fast_campaign(
            "ny", 0.0, 3600.0, interval_s=0.1
        )
        comparison = default_vs_best(
            true, {0: "NTT", 2: "GTT"}, default_path_id=0
        )
        assert comparison.best_label == "GTT"
        assert comparison.penalty_fraction == pytest.approx(0.30, abs=0.04)

    def test_gtt_floor_is_28ms(self, deployment):
        _, true = deployment.run_fast_campaign("ny", 0.0, 600.0, interval_s=0.01)
        gtt = true.series(2).values
        assert float(np.min(gtt)) == pytest.approx(0.028, abs=0.001)

    def test_la_to_ny_jitter_matches_paper(self, deployment):
        """GTT ≈ 0.01 ms, Telia ≈ 0.33 ms rolling-window stddev."""
        _, true = deployment.run_fast_campaign("la", 0.0, 120.0, interval_s=0.01)
        gtt = true.series(64 + 2)
        telia = true.series(64 + 1)
        gtt_jitter = rolling_window_std(gtt.times, gtt.values)
        telia_jitter = rolling_window_std(telia.times, telia.values)
        assert gtt_jitter == pytest.approx(0.00001, rel=0.15)
        assert telia_jitter == pytest.approx(0.00033, rel=0.15)

    def test_measured_equals_true_plus_offset(self, deployment):
        measured, true = deployment.run_fast_campaign("ny", 0.0, 10.0)
        delta = deployment.clock_offset_delta("ny")
        assert delta == pytest.approx(CLOCK_OFFSET_LA - CLOCK_OFFSET_NY)
        np.testing.assert_allclose(
            measured.series(0).values, true.series(0).values + delta
        )

    def test_offsets_opposite_between_directions(self, deployment):
        assert deployment.clock_offset_delta("ny") == pytest.approx(
            -deployment.clock_offset_delta("la")
        )


class TestEvents:
    def test_route_change_shifts_gtt_by_5ms(self, deployment):
        start = ROUTE_CHANGE_HOUR * 3600.0
        _, true = deployment.run_fast_campaign(
            "ny", start - 300.0, start + 900.0, interval_s=0.1
        )
        gtt = true.series(2)
        before = gtt.window(start - 300.0, start - 10.0)[1].mean()
        plateau = gtt.window(start + 60.0, start + 540.0)[1].mean()
        after_times = start + 700.0
        after = gtt.window(after_times, start + 900.0)[1].mean()
        assert plateau - before == pytest.approx(0.005, abs=0.0005)
        assert after == pytest.approx(before, abs=0.0005)

    def test_instability_spikes_to_78ms(self, deployment):
        start = INSTABILITY_HOUR * 3600.0
        _, true = deployment.run_fast_campaign(
            "ny", start - 60.0, start + 360.0, interval_s=0.01
        )
        gtt = true.series(2).values
        assert float(np.max(gtt)) == pytest.approx(0.078, abs=0.002)
        # Floor still touched during instability (some packets on time).
        window = true.series(2).window(start, start + 300.0)[1]
        assert float(np.min(window)) == pytest.approx(0.028, abs=0.001)

    def test_other_paths_quiet_during_instability(self, deployment):
        start = INSTABILITY_HOUR * 3600.0
        _, true = deployment.run_fast_campaign(
            "ny", start, start + 300.0, interval_s=0.01
        )
        for path_id, label in ((0, "NTT"), (1, "Telia"), (3, "Level3")):
            values = true.series(path_id).values
            base = NY_TO_LA_PATHS[label].base_ms * 1e-3
            assert float(np.max(values)) < base + 0.012

    def test_events_absent_when_disabled(self):
        quiet = VultrDeployment(include_events=False)
        quiet.establish()
        start = INSTABILITY_HOUR * 3600.0
        _, true = quiet.run_fast_campaign("ny", start, start + 300.0, 0.01)
        assert float(np.max(true.series(2).values)) < 0.030


class TestPacketFastAgreement:
    def test_packet_level_measurement_matches_fast_campaign(self):
        """The fast sampler and the packet pipeline must be the same
        measurement: identical delay process, identical offset."""
        d = VultrDeployment(include_events=False)
        d.establish()
        d.start_path_probes("ny", interval_s=0.02)
        d.net.run(until=3.0)
        measured_fast, _ = d.run_fast_campaign("ny", 0.0, 3.0, interval_s=0.02)
        inbound = d.gateway_la.inbound
        for path_id in (0, 1, 2, 3):
            packet_mean = float(np.mean(inbound.series(path_id).values))
            fast_mean = float(np.mean(measured_fast.series(path_id).values))
            assert packet_mean == pytest.approx(fast_mean, abs=3e-4)

    def test_probe_streams_cover_all_paths(self):
        d = VultrDeployment(include_events=False)
        d.establish()
        d.start_path_probes("la", interval_s=0.05)
        d.net.run(until=2.0)
        assert d.gateway_ny.inbound.path_ids() == [64, 65, 66, 67]


class TestWorkloadPlumbing:
    def test_data_policy_preserved_alongside_probes(self):
        from repro.core.policy import StaticSelector

        d = VultrDeployment(include_events=False)
        d.establish()
        d.start_path_probes("ny", interval_s=0.05)
        d.set_data_policy("ny", StaticSelector(2))
        send = d.sender_for("ny")
        factory_dst = str(d.pairing.b.host_address(7))
        from repro.netsim.trace import PacketFactory

        factory = PacketFactory(
            src=str(d.pairing.a.host_address(7)), dst=factory_dst, flow_label=5
        )
        for _ in range(10):
            send(factory.build())
        d.net.run(until=1.0)
        # Data packets (flow 5) rode GTT (path 2).
        delivered = [
            p
            for p in d.host_la.received_packets
            if p.meta.get("tango_path_id") == 2 and p.flow_label == 5
        ]
        assert len(delivered) == 10

    def test_unestablished_deployment_raises(self):
        d = VultrDeployment()
        with pytest.raises(RuntimeError, match="establish"):
            d.tunnels("ny")
        with pytest.raises(RuntimeError, match="establish"):
            d.start_path_probes("ny")

    def test_edge_without_tunnels_probes_nothing(self, monkeypatch):
        d = VultrDeployment(include_events=False)
        d.establish()
        monkeypatch.setattr(d, "tunnels", lambda src: [])
        pending = d.sim.pending
        generator = d.start_path_probes("ny")
        assert d.sim.pending == pending
        d.net.run(until=0.1)
        assert generator.sent == 0

    def test_fast_campaign_validation(self, deployment):
        with pytest.raises(ValueError, match="t1 > t0"):
            deployment.run_fast_campaign("ny", 10.0, 10.0)


class TestSrlgAnnotations:
    def test_tunnels_carry_conduit_and_transit_tags(self, deployment):
        by_label = {t.short_label: t for t in deployment.tunnels("ny")}
        assert "socal-conduit" in by_label["GTT"].srlgs
        assert "socal-conduit" in by_label["Telia"].srlgs
        assert "ntt-backbone" in by_label["NTT"].srlgs
        # Fate tags derived from the discovered transit ASNs.
        assert "transit:GTT" in by_label["GTT"].srlgs
        assert "transit:NTT" in by_label["NTT"].srlgs

    def test_registry_maps_groups_to_both_directions(self, deployment):
        members = deployment.srlg.link_members("socal-conduit")
        assert len(members) == 4  # GTT+Telia, ny->la and la->ny
        assert all(name in deployment.net.links for name in members)

    def test_socal_region_registered(self, deployment):
        region = deployment.srlg.region("socal")
        assert set(region.routers) == {"gtt", "telia"}
        assert region.groups == ("socal-conduit",)

    def test_wan_links_expose_their_groups(self, deployment):
        link = deployment.wan_link("ny", "GTT")
        assert "socal-conduit" in link.srlgs
