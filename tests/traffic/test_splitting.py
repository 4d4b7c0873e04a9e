"""Tests for load-aware weights, the weighted-split selector, and the
controller rebalancer hook."""

import ipaddress
from dataclasses import dataclass

import pytest

from repro.netsim.events import Simulator
from repro.netsim.packet import Ipv6Header, Packet, UdpHeader
from repro.netsim.ticks import TickScheduler
from repro.scenarios.vultr import VultrDeployment
from repro.telemetry.store import MeasurementStore
from repro.traffic.splitting import (
    LoadAwareWeights,
    SplitRebalancer,
    WeightedSplitSelector,
)


@dataclass(frozen=True)
class FakeTunnel:
    path_id: int
    local_endpoint: ipaddress.IPv6Address = ipaddress.IPv6Address("::1")
    remote_endpoint: ipaddress.IPv6Address = ipaddress.IPv6Address("::2")
    sport: int = 40000


TUNNELS = [FakeTunnel(path_id=i) for i in range(3)]


def packet(flow=1):
    return Packet(
        headers=[
            Ipv6Header(
                src=ipaddress.IPv6Address("2001:db8:10::1"),
                dst=ipaddress.IPv6Address("2001:db8:20::1"),
            ),
            UdpHeader(sport=1000 + flow, dport=2000),
        ],
        flow_label=flow,
    )


class TestLoadAwareWeights:
    def store_with(self, delays):
        store = MeasurementStore()
        for pid, delay in delays.items():
            store.record(pid, 1.0, delay)
        return store

    def test_inverse_delay(self):
        store = self.store_with({0: 0.030, 1: 0.060, 2: 0.030})
        weights = LoadAwareWeights(store, window_s=5.0)(TUNNELS, 1.5)
        assert weights[0] == pytest.approx(2.0 * weights[1])
        assert weights[0] == pytest.approx(weights[2])

    def test_headroom_discounts_hot_path(self):
        store = self.store_with({0: 0.030, 1: 0.030, 2: 0.030})
        rho = {0: 0.0, 1: 0.9, 2: 2.0}
        weights = LoadAwareWeights(
            store, window_s=5.0, utilization=lambda pid: rho[pid]
        )(TUNNELS, 1.5)
        assert weights[1] == pytest.approx(0.1 * weights[0])
        # Saturated path keeps the headroom floor, never zero.
        assert weights[2] == pytest.approx(0.05 * weights[0])
        assert weights[2] > 0

    def test_unmeasured_path_gets_neutral_weight(self):
        store = self.store_with({0: 0.025, 2: 0.075})
        weights = LoadAwareWeights(store, window_s=5.0)(TUNNELS, 1.5)
        assert weights[1] == pytest.approx((weights[0] + weights[2]) / 2)

    def test_nothing_measured_is_uniform(self):
        weights = LoadAwareWeights(MeasurementStore())(TUNNELS, 0.0)
        assert weights == [1.0, 1.0, 1.0]

    def test_validation(self):
        store = MeasurementStore()
        with pytest.raises(ValueError):
            LoadAwareWeights(store, window_s=0.0)
        with pytest.raises(ValueError):
            LoadAwareWeights(store, headroom_floor=0.0)


class TestWeightedSplitSelector:
    def test_split_weights_normalized(self):
        selector = WeightedSplitSelector()
        selector.update_weights([3.0, 1.0, 0.0])
        assert selector.split_weights(TUNNELS, 0.0) == pytest.approx(
            [0.75, 0.25, 0.0]
        )

    def test_negative_weights_clamped(self):
        selector = WeightedSplitSelector()
        selector.update_weights([2.0, -5.0, 2.0])
        assert selector.split_weights(TUNNELS, 0.0) == pytest.approx(
            [0.5, 0.0, 0.5]
        )

    def test_all_nonpositive_falls_back_to_uniform(self):
        selector = WeightedSplitSelector()
        selector.update_weights([0.0, -1.0, 0.0])
        assert selector.split_weights(TUNNELS, 0.0) == pytest.approx(
            [1 / 3, 1 / 3, 1 / 3]
        )
        assert selector.uniform_fallbacks == 1

    def test_aggregate_split_tracks_weights(self):
        selector = WeightedSplitSelector(seed=4)
        selector.update_weights([6.0, 3.0, 1.0])
        for f in range(1000):
            selector.select(TUNNELS, packet(flow=f), now=float(f))
        total = sum(selector.split_counts.values())
        assert total == 1000
        assert selector.split_counts[0] / total == pytest.approx(0.6, abs=0.06)
        assert selector.split_counts[1] / total == pytest.approx(0.3, abs=0.06)
        assert selector.split_counts[2] / total == pytest.approx(0.1, abs=0.06)

    def test_draws_deterministic_across_restarts(self):
        def run():
            selector = WeightedSplitSelector(seed=21)
            selector.update_weights([2.0, 1.0, 1.0])
            return [
                selector.select(TUNNELS, packet(flow=f), now=float(f)).path_id
                for f in range(200)
            ]

        assert run() == run()

    def test_seed_changes_assignment(self):
        def run(seed):
            selector = WeightedSplitSelector(seed=seed)
            selector.update_weights([1.0, 1.0, 1.0])
            return [
                selector.select(TUNNELS, packet(flow=f), now=float(f)).path_id
                for f in range(50)
            ]

        assert run(1) != run(2)

    def test_last_choice_and_protocol(self):
        selector = WeightedSplitSelector()
        assert selector.last_choice is None
        chosen = selector.select(TUNNELS, packet(flow=9), now=0.0)
        assert selector.last_choice == chosen.path_id

    def test_policy_cached_between_refreshes(self):
        calls = []

        def policy(tunnels, now):
            calls.append(now)
            return [1.0, 1.0, 1.0]

        selector = WeightedSplitSelector(policy, refresh_s=1.0)
        selector.split_weights(TUNNELS, 0.0)
        selector.split_weights(TUNNELS, 0.5)  # cached
        selector.split_weights(TUNNELS, 1.5)  # refreshed
        assert calls == [0.0, 1.5]

    def test_policy_shape_enforced(self):
        selector = WeightedSplitSelector(lambda tunnels, now: [1.0])
        with pytest.raises(ValueError, match="weight"):
            selector.split_weights(TUNNELS, 0.0)

    def test_empty_tunnel_list_rejected(self):
        with pytest.raises(ValueError):
            WeightedSplitSelector().select([], packet(), now=0.0)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_refresh_refused_naming_the_field(self, value):
        # At the parent a NaN refresh was never due: the policy was never
        # re-read and ``split_token`` kept returning stale weights.
        with pytest.raises(ValueError, match="^refresh_s must be finite"):
            WeightedSplitSelector(lambda tunnels, now: [1.0] * len(tunnels), refresh_s=value)


class TestSplitRebalancer:
    def test_rebalance_installs_weights_and_records_history(self):
        selector = WeightedSplitSelector()
        shifting = {"weights": [4.0, 4.0, 0.0]}
        rebalancer = SplitRebalancer(
            selector, lambda tunnels, now: shifting["weights"], TUNNELS
        )
        rebalancer(1.0)
        assert selector.split_weights(TUNNELS, 1.0) == pytest.approx(
            [0.5, 0.5, 0.0]
        )
        shifting["weights"] = [0.0, 1.0, 3.0]
        rebalancer(2.0)
        assert selector.split_weights(TUNNELS, 2.0) == pytest.approx(
            [0.0, 0.25, 0.75]
        )
        assert [t for t, _ in rebalancer.history] == [1.0, 2.0]
        assert rebalancer.history[0][1] == pytest.approx((0.5, 0.5, 0.0))

    def test_degenerate_policy_output_goes_uniform(self):
        selector = WeightedSplitSelector()
        rebalancer = SplitRebalancer(
            selector, lambda tunnels, now: [-1.0, 0.0, -2.0], TUNNELS
        )
        rebalancer(0.5)
        assert rebalancer.history[0][1] == pytest.approx((1 / 3, 1 / 3, 1 / 3))

    def test_needs_tunnels(self):
        with pytest.raises(ValueError):
            SplitRebalancer(
                WeightedSplitSelector(), lambda tunnels, now: [], []
            )

    def test_controller_tick_drives_rebalancer(self):
        deployment = VultrDeployment(include_events=False)
        deployment.establish()
        gateway = deployment.gateway_ny
        tunnels = deployment.tunnels("ny")
        selector = WeightedSplitSelector(seed=3)
        rebalancer = SplitRebalancer(
            selector,
            LoadAwareWeights(gateway.outbound, window_s=1.0),
            tunnels,
        )
        scheduler = TickScheduler(deployment.sim, 0.1)
        controller = deployment.start_controller(
            "ny", selector, interval_s=0.1, scheduler=scheduler
        )
        rebalancer.attach(scheduler)
        deployment.start_path_probes("ny", interval_s=0.01)
        deployment.net.run(until=2.0)
        controller.stop()

        assert controller.ticks >= 19
        assert len(rebalancer.history) == controller.ticks
        # Once probes fill the mirror, the installed split favors the
        # lowest-delay path (GTT, path id 2) over the BGP default (NTT).
        _, final = rebalancer.history[-1]
        assert final[2] > final[0]
        assert sum(final) == pytest.approx(1.0)


class TestSimulatorIndependence:
    def test_rebalancer_without_deployment(self):
        # The hook contract is plain (now) -> None; a bare Simulator can
        # drive it through a controller-free periodic task.
        sim = Simulator()
        selector = WeightedSplitSelector()
        rebalancer = SplitRebalancer(
            selector, lambda tunnels, now: [1.0, 2.0, 1.0], TUNNELS
        )
        sim.call_every(0.5, lambda: rebalancer(sim.now))
        sim.run(until=2.1)
        assert len(rebalancer.history) >= 4
        assert selector.split_weights(TUNNELS, sim.now) == pytest.approx(
            [0.25, 0.5, 0.25]
        )
