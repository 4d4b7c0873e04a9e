"""Tests for arming fault plans on a live deployment."""

import numpy as np
import pytest

from repro.faults import FaultEvent, FaultInjector, FaultPlan
from repro.netsim.links import OverrideLoss
from repro.scenarios.vultr import VultrDeployment


def deployment():
    d = VultrDeployment(include_events=False)
    d.establish()
    return d


def plan_of(*events, seed=0):
    return FaultPlan(name="test", events=tuple(events), seed=seed)


def blackhole(at=2.0, duration=1.0, src="ny", path="GTT"):
    return FaultEvent(
        "link_blackhole", at=at, duration=duration, params={"src": src, "path": path}
    )


class TestArming:
    def test_requires_established_deployment(self):
        d = VultrDeployment(include_events=False)
        with pytest.raises(RuntimeError, match="established"):
            FaultInjector(d, plan_of(blackhole()))

    def test_snapshot_cache_is_not_optional(self):
        # The cache is always on and shared with the session.
        d = deployment()
        with pytest.raises(TypeError, match="use_snapshots"):
            FaultInjector(d, plan_of(blackhole()), use_snapshots=False)
        injector = FaultInjector(d, plan_of(blackhole()))
        assert injector.snapshots is d.session.snapshots

    def test_arm_only_once(self):
        d = deployment()
        injector = FaultInjector(d, plan_of(blackhole()))
        assert injector.arm() == 1
        with pytest.raises(RuntimeError, match="already armed"):
            injector.arm()

    def test_past_events_rejected(self):
        d = deployment()
        d.sim.advance_to(5.0)
        injector = FaultInjector(d, plan_of(blackhole(at=2.0)))
        with pytest.raises(ValueError, match="in the past"):
            injector.arm()

    @pytest.mark.parametrize(
        "second, problem",
        [
            (
                FaultEvent(
                    "bgp_session_down",
                    at=2.0,
                    duration=1.0,
                    params={"a": "vultr-ny", "b": "sprint"},
                ),
                "event #1: unknown router 'sprint'",
            ),
            (
                FaultEvent("controller_crash", at=2.0, params={"edge": "la"}),
                "event #1: no controller attached at edge 'la'",
            ),
        ],
        ids=["bad-target", "missing-attachment"],
    )
    def test_refused_arm_installs_nothing(self, second, problem):
        """A plan whose second event cannot arm leaves the first one
        uninstalled too, and a retry is refused for the same reason."""
        d = deployment()
        d.start_path_probes("ny")
        links = {name: (link.loss, link.delay) for name, link in d.net.links.items()}
        pending = d.sim.pending
        injector = FaultInjector(d, plan_of(blackhole(at=1.0), second))
        for _attempt in range(2):
            with pytest.raises(ValueError, match=problem):
                injector.arm()
            assert {
                name: (link.loss, link.delay) for name, link in d.net.links.items()
            } == links
            assert d.sim.pending == pending
            assert injector.armed == []

    def test_every_problem_reported_at_once(self):
        d = deployment()
        d.sim.advance_to(5.0)
        plan = plan_of(blackhole(at=2.0, src="tokyo"), blackhole(at=6.0, path="X"))
        with pytest.raises(ValueError) as refused:
            FaultInjector(d, plan).arm()
        message = str(refused.value)
        assert "event #0: unknown edge 'tokyo'" in message
        assert "event #0: fault at t=2.0 is in the past" in message
        assert "event #1: edge 'ny' has no wide-area path 'X'" in message

    def test_armed_describes_events(self):
        d = deployment()
        injector = FaultInjector(d, plan_of(blackhole()))
        injector.arm()
        assert injector.armed == ["link_blackhole ny:GTT at=2"]


class TestLinkFaults:
    def test_blackhole_overrides_loss_in_window(self):
        d = deployment()
        link = d.wan_link("ny", "GTT")
        baseline = link.loss
        FaultInjector(d, plan_of(blackhole(at=2.0, duration=1.0))).arm()
        assert isinstance(link.loss, OverrideLoss)
        assert link.loss.inner is baseline
        assert link.loss.loss_probability(2.5) == 1.0
        assert link.loss.loss_probability(1.9) == baseline.loss_probability(1.9)
        assert link.loss.loss_probability(3.1) == baseline.loss_probability(3.1)

    def test_flap_alternates_within_window(self):
        d = deployment()
        link = d.wan_link("ny", "Telia")
        event = FaultEvent(
            "link_flap",
            at=10.0,
            duration=4.0,
            params={"src": "ny", "path": "Telia", "period": 2.0, "duty": 0.5},
        )
        FaultInjector(d, plan_of(event)).arm()
        assert link.loss.loss_probability(10.5) == 1.0  # down phase
        assert link.loss.loss_probability(11.5) == 0.0  # up phase
        assert link.loss.loss_probability(12.5) == 1.0  # down again

    def test_burst_uses_per_event_seed(self):
        d1, d2 = deployment(), deployment()
        event = FaultEvent(
            "loss_burst",
            at=1.0,
            duration=2.0,
            params={"src": "ny", "path": "GTT", "rate": 0.5},
        )
        FaultInjector(d1, plan_of(event, seed=7)).arm()
        FaultInjector(d2, plan_of(event, seed=8)).arm()
        loss1 = d1.wan_link("ny", "GTT").loss
        loss2 = d2.wan_link("ny", "GTT").loss
        draws1 = [loss1.drops(0, 1.0 + i * 1e-3, i) for i in range(400)]
        draws2 = [loss2.drops(0, 1.0 + i * 1e-3, i) for i in range(400)]
        assert draws1 != draws2  # plan seed decorrelates the burst
        assert 0.3 < np.mean(draws1) < 0.7

    def test_delay_spike_adds_extra_ms_inside_window(self):
        d = deployment()
        link = d.wan_link("ny", "GTT")
        before = link.delay.delays(np.array([5.5, 7.5]))
        event = FaultEvent(
            "delay_spike",
            at=5.0,
            duration=1.0,
            params={"src": "ny", "path": "GTT", "extra_ms": 30.0},
        )
        FaultInjector(d, plan_of(event)).arm()
        after = link.delay.delays(np.array([5.5, 7.5]))
        assert after[0] == pytest.approx(before[0] + 0.030)
        assert after[1] == pytest.approx(before[1])  # outside the window


class TestControlPlaneFaults:
    def test_bgp_session_down_and_restore(self):
        d = deployment()
        tenant = d.pairing.edge("la").tenant_router
        provider = d.pairing.edge("la").provider_router
        config = d.bgp.session_config(tenant, provider)
        event = FaultEvent(
            "bgp_session_down",
            at=1.0,
            duration=2.0,
            params={"a": tenant, "b": provider},
        )
        FaultInjector(d, plan_of(event)).arm()

        ny_link = d.wan_link("ny", "GTT")
        baseline = ny_link.loss
        d.net.run(until=1.5)
        # LA's routes vanished from the core: NY's tunnels toward LA are
        # blackholed at the data plane.
        with pytest.raises(KeyError):
            d.bgp.session_config(tenant, provider)
        assert ny_link.loss is not baseline
        assert ny_link.loss.loss_probability(1.5) == 1.0

        d.net.run(until=3.5)
        assert d.bgp.session_config(tenant, provider) == config
        assert ny_link.loss is baseline

    def test_prefix_withdraw_blackholes_matching_tunnel(self):
        d = deployment()
        # NY's tunnel over GTT terminates at one of LA's route prefixes.
        target = d.wan_link("ny", "GTT")
        tunnel = next(
            t for t in d.tunnels("ny") if t.short_label == "GTT"
        )
        index = list(d.pairing.edge("la").route_prefixes).index(
            tunnel.remote_prefix
        )
        event = FaultEvent(
            "prefix_withdraw",
            at=1.0,
            duration=2.0,
            params={"edge": "la", "prefix_index": index},
        )
        baseline = target.loss
        FaultInjector(d, plan_of(event)).arm()

        d.net.run(until=1.5)
        assert target.loss is not baseline
        assert target.loss.loss_probability(1.5) == 1.0
        d.net.run(until=3.5)
        assert target.loss is baseline
        # Re-announcement restored reachability.
        assert d.bgp.reachable(
            d.pairing.edge("ny").tenant_router, str(tunnel.remote_prefix)
        )

    def test_prefix_withdraw_index_out_of_range(self):
        d = deployment()
        event = FaultEvent(
            "prefix_withdraw",
            at=1.0,
            duration=2.0,
            params={"edge": "la", "prefix_index": 99},
        )
        with pytest.raises(ValueError, match="out of range"):
            FaultInjector(d, plan_of(event)).arm()

    def test_telemetry_drop_silences_mirror(self):
        d = deployment()
        # Probes from LA are measured by NY's inbound store and mirrored
        # back into LA's outbound store by the mirror *to* la.
        d.start_path_probes("la")
        event = FaultEvent(
            "telemetry_drop", at=2.0, duration=2.0, params={"edge": "la"}
        )
        FaultInjector(d, plan_of(event)).arm()
        mirror, _ = d.session.mirror_to("la")
        pid = d.tunnels("la")[0].path_id

        d.net.run(until=2.5)
        grown_to = len(d.gateway("la").outbound.series(pid))
        assert grown_to > 0  # mirror ran before the fault hit
        d.net.run(until=3.9)
        assert len(d.gateway("la").outbound.series(pid)) == grown_to

        d.net.run(until=6.0)
        assert len(d.gateway("la").outbound.series(pid)) > grown_to
        assert mirror.samples_discarded > 0

    def test_clock_step_applies_and_reverts(self):
        d = deployment()
        switch = d.switches["ny"]
        base = switch.clock.offset
        event = FaultEvent(
            "clock_step",
            at=1.0,
            duration=2.0,
            params={"edge": "ny", "step_ms": 5.0},
        )
        FaultInjector(d, plan_of(event)).arm()
        d.net.run(until=1.5)
        assert switch.clock.offset == pytest.approx(base + 0.005)
        d.net.run(until=3.5)
        assert switch.clock.offset == pytest.approx(base)

    def test_permanent_clock_step_never_reverts(self):
        d = deployment()
        switch = d.switches["ny"]
        base = switch.clock.offset
        event = FaultEvent(
            "clock_step", at=1.0, params={"edge": "ny", "step_ms": -3.0}
        )
        FaultInjector(d, plan_of(event)).arm()
        d.net.run(until=10.0)
        assert switch.clock.offset == pytest.approx(base - 0.003)
