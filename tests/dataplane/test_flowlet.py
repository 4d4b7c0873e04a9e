"""Tests for flowlet-switched load balancing."""

import ipaddress
from dataclasses import dataclass

import pytest

from repro.dataplane.flowlet import FlowletSelector
from repro.netsim.packet import Ipv6Header, Packet, UdpHeader


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


class TestFlowletStickiness:
    def test_back_to_back_packets_stay_on_one_tunnel(self):
        """No reordering within a flowlet: consecutive packets (gap <
        flowlet gap) always ride the same tunnel."""
        selector = FlowletSelector(gap_s=0.050)
        picks = {
            selector.select(TUNNELS, packet(flow=1), now=i * 0.001).path_id
            for i in range(100)
        }
        assert len(picks) == 1

    def test_gap_opens_new_flowlet(self):
        selector = FlowletSelector(gap_s=0.050, seed=3)
        first = selector.select(TUNNELS, packet(flow=1), now=0.0)
        selector.select(TUNNELS, packet(flow=1), now=0.010)  # same flowlet
        assert selector.flowlets_started == 1
        selector.select(TUNNELS, packet(flow=1), now=0.2)  # gap exceeded
        assert selector.flowlets_started == 2

    def test_flows_are_independent(self):
        selector = FlowletSelector(gap_s=0.050)
        picks = {
            selector.select(TUNNELS, packet(flow=f), now=0.0).path_id
            for f in range(50)
        }
        assert len(picks) > 1  # different flows spread over tunnels

    def test_deterministic_for_seed(self):
        def run(seed):
            selector = FlowletSelector(gap_s=0.01, seed=seed)
            return [
                selector.select(TUNNELS, packet(flow=f), now=f * 1.0).path_id
                for f in range(30)
            ]

        assert run(1) == run(1)

    def test_no_tunnels_raises(self):
        with pytest.raises(ValueError):
            FlowletSelector().select([], packet(), now=0.0)

    def test_invalid_gap_rejected(self):
        with pytest.raises(ValueError):
            FlowletSelector(gap_s=0.0)


class TestGapBoundary:
    def test_gap_exactly_at_threshold_opens_new_flowlet(self):
        # Stickiness requires gap < gap_s strictly: a gap of exactly
        # gap_s already guarantees in-order delivery, so it may switch.
        selector = FlowletSelector(gap_s=0.050)
        selector.select(TUNNELS, packet(flow=1), now=0.0)
        selector.select(TUNNELS, packet(flow=1), now=0.050)
        assert selector.flowlets_started == 2
        selector.select(TUNNELS, packet(flow=1), now=0.050 + 0.0499)
        assert selector.flowlets_started == 2  # just under: same flowlet

    def test_single_tunnel_degenerate(self):
        selector = FlowletSelector(gap_s=0.010, seed=5)
        only = [TUNNELS[0]]
        picks = {
            selector.select(only, packet(flow=f), now=f * 1.0).path_id
            for f in range(20)
        }
        assert picks == {0}
        assert selector.switches == 0
        assert selector.split_counts == {0: 20}


class TestWeightHardening:
    def test_negative_weights_clamped_and_counted(self):
        selector = FlowletSelector(
            gap_s=0.001, weights=lambda tunnels, now: [1.0, -5.0, 1.0]
        )
        picks = {
            selector.select(TUNNELS, packet(flow=f), now=float(f)).path_id
            for f in range(100)
        }
        assert 1 not in picks  # the clamped tunnel never drawn
        assert selector.clamped_weight_draws == 100
        assert selector.uniform_fallbacks == 0

    def test_all_negative_falls_back_to_uniform(self):
        selector = FlowletSelector(
            gap_s=0.001, weights=lambda tunnels, now: [-1.0, -2.0, -3.0]
        )
        picks = {
            selector.select(TUNNELS, packet(flow=f), now=float(f)).path_id
            for f in range(100)
        }
        assert len(picks) == 3  # uniform spread, not a crash or skew
        assert selector.uniform_fallbacks == 100
        assert selector.clamped_weight_draws == 100

    def test_split_counters_sum_to_flowlets(self):
        selector = FlowletSelector(
            gap_s=0.001, weights=lambda tunnels, now: [6.0, 3.0, 1.0], seed=2
        )
        for f in range(500):
            selector.select(TUNNELS, packet(flow=f), now=float(f))
        assert sum(selector.split_counts.values()) == selector.flowlets_started
        assert selector.split_counts[0] / 500 == pytest.approx(0.6, abs=0.07)

    def test_empty_counters_before_any_draw(self):
        assert FlowletSelector().split_counts == {}

    def test_weighted_draws_deterministic_across_restarts(self):
        def run():
            selector = FlowletSelector(
                gap_s=0.010,
                weights=lambda tunnels, now: [2.0, 1.0, 1.0],
                seed=13,
            )
            return [
                selector.select(
                    TUNNELS, packet(flow=f % 7), now=f * 0.02
                ).path_id
                for f in range(200)
            ]

        assert run() == run()


class TestWeightedSelection:
    def test_zero_weight_tunnel_avoided(self):
        selector = FlowletSelector(
            gap_s=0.001, weights=lambda tunnels, now: [1.0, 0.0, 0.0]
        )
        picks = {
            selector.select(TUNNELS, packet(flow=f), now=float(f)).path_id
            for f in range(50)
        }
        assert picks == {0}

    def test_weights_shape_enforced(self):
        selector = FlowletSelector(weights=lambda tunnels, now: [1.0])
        with pytest.raises(ValueError, match="weight"):
            selector.select(TUNNELS, packet(), now=0.0)

    def test_all_zero_weights_fall_back_to_uniform(self):
        selector = FlowletSelector(
            gap_s=0.001, weights=lambda tunnels, now: [0.0, 0.0, 0.0]
        )
        picks = {
            selector.select(TUNNELS, packet(flow=f), now=float(f)).path_id
            for f in range(100)
        }
        assert len(picks) == 3

    def test_weight_skew_shifts_traffic(self):
        selector = FlowletSelector(
            gap_s=0.001, weights=lambda tunnels, now: [8.0, 1.0, 1.0]
        )
        counts = [0, 0, 0]
        for f in range(600):
            pick = selector.select(TUNNELS, packet(flow=f), now=float(f))
            counts[pick.path_id] += 1
        assert counts[0] > counts[1] * 3
        assert counts[0] > counts[2] * 3
