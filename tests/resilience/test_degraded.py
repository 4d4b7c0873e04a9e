"""Tests for degraded-mode estimation (RTT fallback + controller modes)."""

import ipaddress

import numpy as np
import pytest

from repro.core.config import EdgeConfig
from repro.core.controller import QuarantinePolicy, TangoController
from repro.core.gateway import TangoGateway
from repro.core.policy import LowestDelaySelector
from repro.core.tunnels import TangoTunnel
from repro.netsim.delaymodels import ConstantDelay
from repro.netsim.events import Simulator
from repro.netsim.topology import Network
from repro.resilience.degraded import (
    MODE_COOPERATIVE,
    MODE_DEGRADED,
    DegradedModeConfig,
    RttFallbackEstimator,
)
from repro.telemetry.store import MeasurementStore


def make_setup(n_tunnels=2):
    net = Network()
    switch = net.add_switch("gw")
    config = EdgeConfig(
        name="ny",
        tenant_router="tango-ny",
        tenant_asn=64512,
        provider_router="vultr-ny",
        provider_asn=20473,
        host_prefix=ipaddress.IPv6Network("2001:db8:20::/48"),
        route_prefixes=tuple(
            ipaddress.IPv6Network(f"2001:db8:b{i}::/48") for i in range(n_tunnels)
        ),
    )
    gateway = TangoGateway(switch, config)
    gateway.install_tunnels(
        ipaddress.IPv6Network("2001:db8:30::/48"),
        [
            TangoTunnel(
                path_id=i,
                label=f"T{i}",
                local_endpoint=ipaddress.IPv6Address(f"2001:db8:b{i}::1"),
                remote_endpoint=ipaddress.IPv6Address(f"2001:db8:c{i}::1"),
                remote_prefix=ipaddress.IPv6Network(f"2001:db8:c{i}::/48"),
            )
            for i in range(n_tunnels)
        ],
    )
    return net, gateway


def make_degraded_controller(net, gateway, estimates=None, **kwargs):
    estimates = estimates if estimates is not None else MeasurementStore()
    gateway.set_selector(LowestDelaySelector(gateway.outbound, window_s=1.0))
    controller = TangoController(
        gateway,
        net.sim,
        interval_s=0.1,
        staleness_s=0.5,
        degraded=DegradedModeConfig(estimates=estimates, horizon_s=0.5, **kwargs),
    )
    return controller, estimates


class TestRttFallbackEstimator:
    def make_estimator(self, seed=900, probe_interval_s=0.1):
        sim = Simulator()
        forward = {0: ConstantDelay(0.030), 1: ConstantDelay(0.040)}
        reverse = {64: ConstantDelay(0.032), 65: ConstantDelay(0.044)}
        estimator = RttFallbackEstimator(
            sim, forward, reverse, probe_interval_s=probe_interval_s, seed=seed
        )
        return sim, estimator

    def test_estimates_near_half_rtt(self):
        sim, estimator = self.make_estimator()
        estimator.start()
        sim.run(until=1.0)
        assert estimator.probes == 11
        # Path 0: (30 + 32) ms / 2 = 31 ms, plus strictly positive noise.
        values = estimator.estimates.series(0).values
        assert values.size == 11
        assert np.all(values >= 0.031)
        assert np.all(values < 0.031 + 0.01)

    def test_noise_model_matches_rtt_probing_baseline(self):
        """Same |sum-of-draws| structure as RttProbingBaseline: four edge
        draws summed then folded, two host draws summed then folded."""
        from repro.netsim.delaymodels import deterministic_normal

        sim, estimator = self.make_estimator(seed=123)
        estimator.start()
        sim.run(until=0.0)  # exactly one probe, at t=0
        at = np.asarray([0.0])
        edge = sum(float(deterministic_normal(123 + k, at)[0]) for k in range(4))
        host = sum(
            float(deterministic_normal(133 + k, at)[0]) for k in range(2)
        )
        expected = (0.030 + 0.032 + abs(edge) * 0.35e-3 + abs(host) * 0.5e-3) / 2
        assert estimator.estimates.series(0).values[0] == pytest.approx(expected)

    def test_deterministic_across_runs(self):
        a_sim, a_est = self.make_estimator(seed=5)
        b_sim, b_est = self.make_estimator(seed=5)
        a_est.start()
        b_est.start()
        a_sim.run(until=2.0)
        b_sim.run(until=2.0)
        for pid in (0, 1):
            assert (
                a_est.estimates.series(pid).values.tobytes()
                == b_est.estimates.series(pid).values.tobytes()
            )

    def test_validation(self):
        sim = Simulator()
        with pytest.raises(ValueError, match="path counts"):
            RttFallbackEstimator(sim, {0: ConstantDelay(0.01)}, {})
        with pytest.raises(ValueError, match="at least one"):
            RttFallbackEstimator(sim, {}, {})
        with pytest.raises(ValueError, match="positive"):
            RttFallbackEstimator(
                sim,
                {0: ConstantDelay(0.01)},
                {64: ConstantDelay(0.01)},
                probe_interval_s=0.0,
            )

    def test_double_start_rejected(self):
        _, estimator = self.make_estimator()
        estimator.start()
        with pytest.raises(RuntimeError):
            estimator.start()

    def test_for_deployment_builds_from_calibrations(self):
        from repro.scenarios.vultr import VultrDeployment

        deployment = VultrDeployment(include_events=False)
        deployment.establish()
        estimator = RttFallbackEstimator.for_deployment(deployment, "ny")
        estimator.start()
        deployment.net.run(until=1.1)
        fwd_ids = {t.path_id for t in deployment.tunnels("ny")}
        assert set(estimator.estimates.path_ids()) == fwd_ids


class TestDegradedConfigValidation:
    def test_bad_horizon(self):
        with pytest.raises(ValueError):
            DegradedModeConfig(estimates=MeasurementStore(), horizon_s=0.0)

    def test_bad_heal_ticks(self):
        with pytest.raises(ValueError):
            DegradedModeConfig(estimates=MeasurementStore(), heal_ticks=0)


class TestModeTransitions:
    def test_downgrade_when_feed_goes_stale(self):
        net, gateway = make_setup()
        controller, estimates = make_degraded_controller(net, gateway)
        for pid in (0, 1):
            gateway.outbound.record(pid, 0.0, 0.030)
        controller.start()
        net.run(until=2.0)
        assert controller.mode == MODE_DEGRADED
        assert len(controller.mode_log) == 1
        transition = controller.mode_log[0]
        assert transition.mode == MODE_DEGRADED
        # Feed went stale past the 0.5 s horizon: first tick after that
        # is at 0.6 s (staleness 0.6 > 0.5).
        assert transition.t == pytest.approx(0.6)
        assert transition.staleness_s > 0.5

    def test_selector_repointed_at_estimates_and_back(self):
        net, gateway = make_setup()
        controller, estimates = make_degraded_controller(net, gateway)
        selector = gateway.data_selector
        cooperative_store = selector.store
        for pid in (0, 1):
            gateway.outbound.record(pid, 0.0, 0.030)
        # Mirror heals at t=2.
        net.sim.call_every(
            0.05,
            lambda: [
                gateway.outbound.record(p, net.sim.now, 0.030) for p in (0, 1)
            ],
            start=2.0,
        )
        controller.start()
        net.run(until=1.0)
        assert selector.store is estimates
        net.run(until=3.0)
        assert controller.mode == MODE_COOPERATIVE
        assert selector.store is cooperative_store
        modes = [m.mode for m in controller.mode_log]
        assert modes == [MODE_DEGRADED, MODE_COOPERATIVE]

    def test_upgrade_requires_heal_ticks_hysteresis(self):
        net, gateway = make_setup()
        controller, _ = make_degraded_controller(net, gateway, heal_ticks=3)
        for pid in (0, 1):
            gateway.outbound.record(pid, 0.0, 0.030)
        net.sim.call_every(
            0.05,
            lambda: [
                gateway.outbound.record(p, net.sim.now, 0.030) for p in (0, 1)
            ],
            start=2.0,
        )
        controller.start()
        net.run(until=4.0)
        upgrade = [m for m in controller.mode_log if m.mode == MODE_COOPERATIVE]
        assert len(upgrade) == 1
        # Fresh from the 2.0 s tick; third consecutive fresh tick at 2.2.
        assert upgrade[0].t == pytest.approx(2.2)

    def test_never_measured_feed_does_not_downgrade(self):
        net, gateway = make_setup()
        controller, _ = make_degraded_controller(net, gateway)
        controller.start()
        net.run(until=2.0)
        assert controller.mode == MODE_COOPERATIVE
        assert controller.mode_log == []


class TestFeedOutageVsQuarantine:
    def make_quarantining_controller(self, net, gateway, degraded):
        gateway.set_selector(LowestDelaySelector(gateway.outbound, window_s=1.0))
        return TangoController(
            gateway,
            net.sim,
            interval_s=0.1,
            staleness_s=0.5,
            quarantine=QuarantinePolicy(),
            degraded=degraded,
        )

    def test_feed_outage_does_not_quarantine_all_paths(self):
        """All paths stale at once = mirror down, not four dead tunnels:
        degraded mode keeps routing, quarantine stays out of it."""
        net, gateway = make_setup()
        degraded = DegradedModeConfig(
            estimates=MeasurementStore(), horizon_s=0.5
        )
        controller = self.make_quarantining_controller(net, gateway, degraded)
        for pid in (0, 1):
            gateway.outbound.record(pid, 0.0, 0.030)
        controller.start()
        net.run(until=3.0)
        assert controller.mode == MODE_DEGRADED
        assert controller.quarantined == set()
        assert controller.quarantine_log == []

    def test_single_stale_path_still_quarantined(self):
        """One stale path among fresh ones is a path problem, not a feed
        problem — quarantine must still fire."""
        net, gateway = make_setup()
        degraded = DegradedModeConfig(
            estimates=MeasurementStore(), horizon_s=0.5
        )
        controller = self.make_quarantining_controller(net, gateway, degraded)
        gateway.outbound.record(0, 0.0, 0.030)  # path 0 then goes silent
        net.sim.call_every(
            0.05, lambda: gateway.outbound.record(1, net.sim.now, 0.030)
        )
        controller.start()
        net.run(until=2.0)
        assert controller.mode == MODE_COOPERATIVE
        assert 0 in controller.quarantined
        assert 1 not in controller.quarantined

    def test_without_degraded_config_outage_still_quarantines(self):
        """No fallback estimator means staleness must keep quarantining
        (the PR 1 behavior is preserved exactly)."""
        net, gateway = make_setup()
        controller = self.make_quarantining_controller(net, gateway, None)
        for pid in (0, 1):
            gateway.outbound.record(pid, 0.0, 0.030)
        controller.start()
        net.run(until=2.0)
        assert controller.quarantined == {0, 1}
        assert controller.quarantine_log[-1].action == "fallback-on"
