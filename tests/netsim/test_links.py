"""Tests for links: delay, loss, serialization, MTU."""

import ipaddress

import pytest

from repro.netsim.delaymodels import ConstantDelay, RouteChangeEvent
from repro.netsim.events import Simulator
from repro.netsim.links import ConstantLoss, Link, WindowedLoss
from repro.netsim.node import HostNode
from repro.netsim.packet import Ipv6Header, Packet


def make_packet(payload=100):
    return Packet(
        headers=[
            Ipv6Header(
                src=ipaddress.IPv6Address("::1"),
                dst=ipaddress.IPv6Address("::2"),
            )
        ],
        payload_bytes=payload,
    )


def make_link(sim, dst, **kwargs):
    src = HostNode("src", sim)
    defaults = dict(delay=ConstantDelay(0.010))
    defaults.update(kwargs)
    return Link("l", src, dst, **defaults)


class TestDelivery:
    def test_packet_arrives_after_delay(self):
        sim = Simulator()
        dst = HostNode("dst", sim)
        link = make_link(sim, dst, delay=ConstantDelay(0.025))
        arrivals = []
        dst._on_packet = lambda p, t: arrivals.append(t)
        assert link.transmit(sim, make_packet())
        sim.run()
        assert arrivals == [pytest.approx(0.025)]

    def test_stats_track_delivery(self):
        sim = Simulator()
        dst = HostNode("dst", sim)
        link = make_link(sim, dst)
        for _ in range(5):
            link.transmit(sim, make_packet())
        sim.run()
        assert link.stats.transmitted == 5
        assert link.stats.delivered == 5
        assert link.stats.loss_fraction == 0.0

    def test_bandwidth_adds_serialization_delay(self):
        sim = Simulator()
        dst = HostNode("dst", sim)
        link = make_link(
            sim, dst, delay=ConstantDelay(0.0), bandwidth_bps=8000.0
        )
        arrivals = []
        dst._on_packet = lambda p, t: arrivals.append(t)
        packet = make_packet(payload=100)  # 140 wire bytes -> 1120 bits
        link.transmit(sim, packet)
        sim.run()
        assert arrivals == [pytest.approx(1120 / 8000.0)]


class TestLoss:
    def test_lossless_by_default(self):
        sim = Simulator()
        dst = HostNode("dst", sim)
        link = make_link(sim, dst)
        assert all(link.transmit(sim, make_packet()) for _ in range(50))

    def test_constant_loss_rate_approximately_honored(self):
        sim = Simulator()
        dst = HostNode("dst", sim)
        link = make_link(sim, dst, loss=ConstantLoss(0.3), seed=42)
        dropped = 0
        for i in range(2000):
            sim.clock.advance_to(i * 0.001)
            if not link.transmit(sim, make_packet()):
                dropped += 1
        assert dropped / 2000 == pytest.approx(0.3, abs=0.05)

    def test_loss_always_when_rate_one(self):
        sim = Simulator()
        dst = HostNode("dst", sim)
        link = make_link(sim, dst, loss=ConstantLoss(1.0))
        assert not link.transmit(sim, make_packet())
        assert link.stats.dropped_loss == 1

    def test_invalid_rate_rejected(self):
        with pytest.raises(ValueError):
            ConstantLoss(1.5)

    def test_windowed_loss_elevated_inside_window(self):
        loss = WindowedLoss(baseline=0.0, elevated=0.5, windows=((10.0, 20.0),))
        assert loss.loss_probability(5.0) == 0.0
        assert loss.loss_probability(15.0) == 0.5
        assert loss.loss_probability(20.0) == 0.0

    def test_windowed_loss_from_events(self):
        event = RouteChangeEvent(start=100.0, duration=60.0)
        loss = WindowedLoss.around_events([event], elevated=0.2)
        assert loss.loss_probability(130.0) == 0.2
        assert loss.loss_probability(99.0) == 0.0


class TestMtu:
    def test_oversized_packet_dropped(self):
        sim = Simulator()
        dst = HostNode("dst", sim)
        link = make_link(sim, dst, mtu=100)
        assert not link.transmit(sim, make_packet(payload=200))
        assert link.stats.dropped_mtu == 1

    def test_exact_mtu_passes(self):
        sim = Simulator()
        dst = HostNode("dst", sim)
        link = make_link(sim, dst, mtu=140)
        assert link.transmit(sim, make_packet(payload=100))

    def test_invalid_mtu_rejected(self):
        sim = Simulator()
        dst = HostNode("dst", sim)
        with pytest.raises(ValueError):
            make_link(sim, dst, mtu=0)

    def test_invalid_bandwidth_rejected(self):
        sim = Simulator()
        dst = HostNode("dst", sim)
        with pytest.raises(ValueError):
            make_link(sim, dst, bandwidth_bps=0.0)


class TestDeterminism:
    def test_same_seed_same_drop_pattern(self):
        def run(seed):
            sim = Simulator()
            dst = HostNode("dst", sim)
            link = make_link(sim, dst, loss=ConstantLoss(0.5), seed=seed)
            fates = []
            for i in range(200):
                sim.clock.advance_to(i * 0.01)
                fates.append(link.transmit(sim, make_packet()))
            return fates

        assert run(7) == run(7)
        assert run(7) != run(8)
