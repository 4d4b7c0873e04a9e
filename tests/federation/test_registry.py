"""Federation registry: N-site establishment, dedup, stitched tunnels."""

import pytest

from repro.core.controller import QuarantinePolicy
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultEvent, FaultPlan
from repro.federation import FederationRegistry
from repro.federation.registry import check_path_id_space
from repro.netsim.packet import TangoHeader
from repro.scenarios.topologies import build_live_federation
from repro.scenarios.vultr import VultrDeployment
from repro.srlg.diversity import FateAwareSelector, max_disjoint_backup


@pytest.fixture(scope="module")
def federation():
    scenario = build_live_federation(4, seed=42)
    registry = FederationRegistry(scenario)
    registry.establish()
    registry.stitch_pair("edge0", "edge1")
    return registry


class TestEstablishment:
    def test_all_pairs_established(self, federation):
        assert federation.state.pair_count == 6
        for session in federation.sessions.values():
            assert session.state is not None
            assert all(session.state.path_counts)

    def test_path_id_blocks_disjoint_across_sessions(self, federation):
        seen: set[int] = set()
        for session in federation.sessions.values():
            ids = {
                t.path_id
                for t in (
                    session.state.tunnels_a_to_b + session.state.tunnels_b_to_a
                )
            }
            assert ids.isdisjoint(seen)
            seen |= ids

    def test_sessions_share_one_snapshot_cache(self, federation):
        caches = {id(s.snapshots) for s in federation.sessions.values()}
        assert caches == {id(federation.snapshots)}

    def test_shared_cache_beats_independent_baseline(self, federation):
        shared = federation.snapshot_stats()
        baseline = FederationRegistry(
            build_live_federation(4, seed=42), share_snapshots=False
        )
        baseline.establish()
        independent = baseline.snapshot_stats()
        baseline.stop()
        assert shared["hit_rate"] >= 0.5
        assert shared["hit_rate"] > independent["hit_rate"]

    def test_degraded_pair_has_single_direct_path(self, federation):
        session = federation.session_for("edge0", "edge1")
        # Both endpoints single-homed to the same transit: no disjoint
        # direct alternative exists by construction.
        assert len(session.state.tunnels_a_to_b) == 1

    def test_calibrated_wan_link_per_tunnel(self, federation):
        for (a, b), session in federation.sessions.items():
            for t in session.state.tunnels_a_to_b:
                link = federation.wan_link(a, b, t.short_label)
                assert link.name == f"{a}->{b}:{t.short_label}"
                cal = federation.calibrations_for(a, b)[t.short_label]
                assert cal.base_ms > 0

    def test_member_links_unknown_member_rejected(self, federation):
        with pytest.raises(ValueError, match="not a federation member"):
            federation.member_links("tokyo")

    def test_two_digit_member_names_establish(self):
        # "edge10" < "edge2" as strings: pair distances are keyed by
        # member index, so name order must not be used to look them up.
        registry = FederationRegistry(build_live_federation(12, seed=42))
        registry.establish()
        assert registry.state.pair_count == 66
        assert all(s.state is not None for s in registry.sessions.values())
        assert registry.calibrations_for("edge10", "edge2")
        registry.stop()

    def test_establish_twice_rejected(self, federation):
        with pytest.raises(RuntimeError, match="already established"):
            federation.establish()


class TestPathIdSpace:
    """Every allocated id must fit the header's 2-byte ``path_id``."""

    @staticmethod
    def pairs(members):
        return members * (members - 1) // 2

    def test_32_members_fit(self):
        check_path_id_space(self.pairs(32))

    def test_33_members_refused(self):
        with pytest.raises(ValueError, match="path ids up to 67647"):
            check_path_id_space(self.pairs(33))

    def test_establish_refuses_before_any_work(self):
        registry = FederationRegistry(build_live_federation(33, seed=1))
        with pytest.raises(ValueError, match=str(TangoHeader.MAX_PATH_ID)):
            registry.establish()
        assert registry.state is None and not registry.sessions


class TestStitchedTunnel:
    def test_stitched_route_joins_direction(self, federation):
        tunnels = federation.direction_tunnels("edge0", "edge1")
        assert len(tunnels) == 2
        stitched = tunnels[-1]
        assert stitched.short_label.startswith("via-")
        assert stitched.path_id % 64 != 0

    def test_stitched_srlgs_union_segments_plus_relay_fate(self, federation):
        result = federation.stitches[("edge0", "edge1")]
        relay = result.plan.relay
        expected = (
            result.plan.seg1.srlgs
            | result.plan.seg2.srlgs
            | {f"member:{relay}"}
        )
        assert result.tunnel.srlgs == expected

    def test_stitched_wire_coordinates_are_segment_one(self, federation):
        result = federation.stitches[("edge0", "edge1")]
        assert result.tunnel.remote_endpoint == result.plan.seg1.remote_endpoint
        assert result.tunnel.sport != result.plan.seg1.sport

    def test_relay_binding_installed_at_relay_switch(self, federation):
        from repro.dataplane.relay import RelayBinding, RelayForwardProgram

        result = federation.stitches[("edge0", "edge1")]
        switch = federation.switches[result.plan.relay]
        programs = [
            p
            for p in switch.ingress_programs
            if isinstance(p, RelayForwardProgram)
        ]
        assert len(programs) == 1
        plan = result.plan
        with pytest.raises(ValueError, match="already bound"):
            programs[0].bind(
                RelayBinding(
                    path_id=result.tunnel.path_id,
                    arrival_endpoint=plan.seg1.remote_endpoint,
                    next_src=plan.seg2.local_endpoint,
                    next_dst=plan.seg2.remote_endpoint,
                    next_sport=plan.seg2.sport,
                )
            )
        # Must run before the gateway receiver terminates the packet.
        assert switch.ingress_programs[0] is programs[0]

    def test_stitched_calibration_composes_segments(self, federation):
        result = federation.stitches[("edge0", "edge1")]
        cal = federation.calibrations_for("edge0", "edge1")[
            result.tunnel.short_label
        ]
        assert cal.base_ms == pytest.approx(
            result.plan.composed_base_delay_s * 1e3
        )

    def test_composed_link_sees_segment_loss_live(self, federation):
        from repro.netsim.links import OverrideLoss, replace_models

        result = federation.stitches[("edge0", "edge1")]
        link = result.link
        assert link.loss.loss_probability(0.0) == pytest.approx(0.0)
        saved = link.seg2.loss
        try:
            replace_models(link.seg2, loss=OverrideLoss.blackhole(saved, 0.0, 10.0))
            assert link.loss.loss_probability(5.0) == pytest.approx(1.0)
        finally:
            replace_models(link.seg2, loss=saved)

    def test_second_stitch_for_same_direction_rejected(self, federation):
        with pytest.raises(ValueError, match="already has a stitched"):
            federation.stitch_pair("edge0", "edge1")

    def test_relay_cannot_be_an_endpoint(self, federation):
        with pytest.raises(ValueError, match="endpoint of the pair"):
            federation.plan_relay("edge2", "edge3", relay="edge2")


class TestSrlgParticipation:
    def test_stitched_is_max_disjoint_backup_of_direct(self, federation):
        direct, stitched = federation.direction_tunnels("edge0", "edge1")
        backup = max_disjoint_backup(direct, [direct, stitched])
        assert backup is stitched

    def test_fate_aware_selector_filters_dead_relay(self, federation):
        class Grab:
            seen = None

            def select(self, tunnels, packet, now):
                self.seen = list(tunnels)
                return tunnels[0]

        direct, stitched = federation.direction_tunnels("edge0", "edge1")
        result = federation.stitches[("edge0", "edge1")]
        inner = Grab()
        selector = FateAwareSelector(inner, federation.srlg)
        group = f"member:{result.plan.relay}"
        federation.srlg.mark_down(group)
        try:
            chosen = selector.select([direct, stitched], packet=None, now=0.0)
        finally:
            federation.srlg.clear_down(group)
        assert chosen is direct
        assert inner.seen == [direct]  # the dead relay never reached policy


class TestLiveFailover:
    def test_relay_outage_quarantines_stitched_within_budget(self):
        scenario = build_live_federation(4, seed=42)
        registry = FederationRegistry(scenario)
        registry.establish()
        result = registry.stitch_pair("edge0", "edge1")
        relay = result.plan.relay
        registry.start_telemetry()
        registry.start_control_plane(
            focus=[("edge0", "edge1")],
            staleness_s=0.5,
            quarantine=QuarantinePolicy(unhealthy_ticks=1),
        )
        registry.start_traffic("edge0", "edge1")
        registry.start_traffic("edge0", relay)
        registry.start_traffic(relay, "edge1")
        plan = FaultPlan(
            name="kill-relay",
            events=(
                FaultEvent(
                    "relay_outage",
                    at=2.0,
                    duration=2.0,
                    params={"member": relay},
                ),
            ),
        )
        FaultInjector(registry, plan).arm()
        registry.sim.run(until=6.0)
        log = registry.controllers["edge0"].quarantine_log
        hits = [
            ev
            for ev in log
            if ev.path_id == result.tunnel.path_id
            and ev.action == "quarantine"
            and ev.t >= 2.0
        ]
        assert hits, "stitched tunnel never quarantined after relay kill"
        assert hits[0].t - 2.0 <= 0.5 + 2 * 0.1  # one telemetry horizon
        # The relay's fate tag held the tunnel out of probation while down.
        assert any(
            ev.cause == "srlg-down"
            for ev in log
            if ev.path_id == result.tunnel.path_id
        )
        registry.stop()
        registry.stop()  # teardown is defensive: double-stop is a no-op

    def test_relay_outage_needs_a_federation(self):
        deployment = VultrDeployment(include_events=False)
        deployment.establish()
        plan = FaultPlan(
            name="bad",
            events=(
                FaultEvent(
                    "relay_outage",
                    at=1.0,
                    duration=1.0,
                    params={"member": "ny"},
                ),
            ),
        )
        with pytest.raises(ValueError, match="'vultr' takes no relay_outage"):
            FaultInjector(deployment, plan).arm()


class TestTelemetryScoping:
    def test_mirrors_scoped_to_session_ids_plus_stitched(self):
        scenario = build_live_federation(3, seed=7)
        registry = FederationRegistry(scenario)
        registry.establish()
        result = registry.stitch_pair("edge0", "edge1")
        registry.start_telemetry()
        session = registry.session_for("edge0", "edge1")
        mirror, _ = session.mirror_to("edge0")
        expected = {
            t.path_id for t in session.state.tunnels_a_to_b
        } | {result.tunnel.path_id}
        assert mirror.path_ids == expected
        other = registry.session_for("edge0", "edge2")
        other_mirror, _ = other.mirror_to("edge0")
        assert result.tunnel.path_id not in other_mirror.path_ids
        registry.stop()
