"""Tests for queued links (bandwidth contention, drop-tail buffers)."""

import ipaddress

import pytest

from repro.netsim.delaymodels import ConstantDelay
from repro.netsim.events import Simulator
from repro.netsim.node import HostNode
from repro.netsim.packet import Ipv6Header, Packet
from repro.netsim.queueing import QueuedLink


def make_packet(payload=960):
    """1000 wire bytes with the 40-byte IPv6 header."""
    return Packet(
        headers=[
            Ipv6Header(
                src=ipaddress.IPv6Address("::1"),
                dst=ipaddress.IPv6Address("::2"),
            )
        ],
        payload_bytes=payload,
    )


def build(rate_bps=8_000_000.0, buffer_bytes=4000, delay=0.0):
    sim = Simulator()
    dst = HostNode("dst", sim)
    arrivals = []
    dst.on_packet = lambda p, t: arrivals.append(t)
    link = QueuedLink(
        "q",
        HostNode("src", sim),
        dst,
        delay=ConstantDelay(delay),
        bandwidth_bps=rate_bps,
        buffer_bytes=buffer_bytes,
    )
    return sim, link, arrivals


class TestServiceTimes:
    def test_single_packet_pays_serialization(self):
        sim, link, arrivals = build(rate_bps=8_000_000.0, delay=0.010)
        link.transmit(sim, make_packet())  # 1000 B = 8000 bits = 1 ms
        sim.run()
        assert arrivals == [pytest.approx(0.011)]

    def test_back_to_back_packets_serialize_fifo(self):
        sim, link, arrivals = build(rate_bps=8_000_000.0)
        for _ in range(3):
            link.transmit(sim, make_packet())
        sim.run()
        assert arrivals == pytest.approx([0.001, 0.002, 0.003])

    def test_idle_link_resets_busy_time(self):
        sim, link, arrivals = build(rate_bps=8_000_000.0)
        link.transmit(sim, make_packet())
        sim.run()
        sim.advance_to(1.0)
        link.transmit(sim, make_packet())
        sim.run()
        assert arrivals[1] == pytest.approx(1.001)


class TestDropTail:
    def test_buffer_overflow_drops(self):
        # 4000-byte buffer holds 4 queued packets; 1 more is in service.
        sim, link, arrivals = build(buffer_bytes=4000)
        outcomes = [link.transmit(sim, make_packet()) for _ in range(8)]
        sim.run()
        assert outcomes[:5] == [True] * 5  # in service + 4 queued
        assert outcomes[5:] == [False] * 3
        assert link.dropped_queue == 3
        assert len(arrivals) == 5

    def test_queue_drains_and_accepts_again(self):
        sim, link, arrivals = build(buffer_bytes=1000)
        assert link.transmit(sim, make_packet())  # in service
        assert link.transmit(sim, make_packet())  # queued
        assert not link.transmit(sim, make_packet())  # dropped
        sim.run()
        sim.advance_to(1.0)
        assert link.transmit(sim, make_packet())
        sim.run()
        assert len(arrivals) == 3

    def test_max_backlog_recorded(self):
        sim, link, _ = build(buffer_bytes=10000)
        for _ in range(5):
            link.transmit(sim, make_packet())
        assert link.max_backlog_bytes == 4000
        sim.run()


class TestQueueingDelayVisibility:
    def test_congestion_inflates_latency(self):
        """Self-queueing at an edge uplink adds real, measurable delay —
        the confounder end-to-end measurements include and Tango's
        border timestamping sits behind."""
        sim, link, arrivals = build(rate_bps=800_000.0)  # 10 ms/packet
        for _ in range(5):
            link.transmit(sim, make_packet())
        sim.run()
        assert arrivals[0] == pytest.approx(0.010)
        assert arrivals[4] == pytest.approx(0.050)


class TestObservables:
    def test_utilization_tracks_busy_fraction(self):
        sim, link, _ = build(rate_bps=8_000_000.0)
        assert link.utilization(0.0) == 0.0
        for _ in range(4):  # 4 x 1 ms of serialization
            link.transmit(sim, make_packet())
        sim.run()
        sim.advance_to(0.008)
        assert link.utilization(sim.now) == pytest.approx(0.5)

    def test_utilization_capped_at_one(self):
        sim, link, _ = build(rate_bps=8_000_000.0, buffer_bytes=100_000)
        for _ in range(10):
            link.transmit(sim, make_packet())
        # 10 ms of accepted serialization after only 1 ms of sim time.
        assert link.utilization(0.001) == 1.0

    def test_dropped_packets_do_not_count_as_busy(self):
        sim, link, _ = build(buffer_bytes=1000)
        link.transmit(sim, make_packet())  # in service
        link.transmit(sim, make_packet())  # queued
        link.transmit(sim, make_packet())  # dropped
        assert link.utilization(0.004) == pytest.approx(0.5)  # 2 ms busy

    def test_observables_do_not_change_behavior(self):
        # Accounting only: delivery times are identical to the published
        # service-time tests regardless of observable reads in between.
        sim, link, arrivals = build(rate_bps=8_000_000.0)
        link.transmit(sim, make_packet())
        link.utilization(0.0005)
        link.transmit(sim, make_packet())
        sim.run()
        assert arrivals == pytest.approx([0.001, 0.002])


class TestValidation:
    def test_rate_required_positive(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            QueuedLink(
                "q",
                HostNode("a", sim),
                HostNode("b", sim),
                delay=ConstantDelay(0.0),
                bandwidth_bps=0.0,
            )

    def test_negative_buffer_rejected(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            QueuedLink(
                "q",
                HostNode("a", sim),
                HostNode("b", sim),
                delay=ConstantDelay(0.0),
                bandwidth_bps=1e6,
                buffer_bytes=-1,
            )

    def test_mtu_and_loss_still_apply(self):
        from repro.netsim.links import ConstantLoss

        sim = Simulator()
        dst = HostNode("dst", sim)
        link = QueuedLink(
            "q",
            HostNode("src", sim),
            dst,
            delay=ConstantDelay(0.0),
            bandwidth_bps=1e6,
            mtu=500,
            loss=ConstantLoss(0.0),
        )
        assert not link.transmit(sim, make_packet())  # 1000 B > 500 MTU
        assert link.stats.dropped_mtu == 1
