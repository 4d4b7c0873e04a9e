"""Tests for workload generators."""

import pytest

from repro.netsim.events import Simulator
from repro.netsim.packet import Ipv6Header, UdpHeader
from repro.netsim.trace import (
    DroneTelemetryWorkload,
    PacketFactory,
    ProbeGenerator,
)

FACTORY = PacketFactory(src="2001:db8:10::2", dst="2001:db8:20::2")


class TestPacketFactory:
    def test_builds_ipv6_udp_packet(self):
        packet = FACTORY.build()
        assert str(packet.src) == "2001:db8:10::2"
        assert str(packet.dst) == "2001:db8:20::2"
        assert packet.five_tuple().dport == 50000

    def test_each_build_is_fresh(self):
        a, b = FACTORY.build(), FACTORY.build()
        assert a.packet_id != b.packet_id

    def test_packets_share_headers_but_never_a_stack_or_meta(self):
        factory = PacketFactory(src="2001:db8:10::2", dst="2001:db8:20::2")
        first, second = factory.build(), factory.build()
        # Frozen header templates are shared ...
        assert all(x is y for x, y in zip(first.headers, second.headers))
        # ... the stack is a tuple, so sharing it is safe, and the
        # mutable container never is shared.
        assert type(first.headers) is tuple
        assert first.meta is not second.meta
        first.decrement_ttl()
        first.pop()
        first.push(UdpHeader(sport=1, dport=2))
        first.meta["tag"] = "mutated"
        third = factory.build()
        for packet in (second, third):
            assert [type(h) for h in packet.headers] == [Ipv6Header, UdpHeader]
            assert packet.outer_ip.hop_limit == 64
            assert packet.five_tuple().dport == 50000
            assert packet.meta == {}

    def test_bad_address_rejected_at_construction(self):
        with pytest.raises(ValueError):
            PacketFactory(src="not-an-address", dst="2001:db8:20::2")


class TestProbeGenerator:
    def test_emits_at_interval(self):
        sim = Simulator()
        sent = []
        gen = ProbeGenerator(sim, [FACTORY], sent.append, interval=0.010)
        gen.start()
        sim.run(until=0.1)
        assert len(sent) == 11  # t=0.00 .. 0.10 inclusive
        assert gen.sent == 11

    def test_start_at_future_time(self):
        sim = Simulator()
        sent = []
        gen = ProbeGenerator(sim, [FACTORY], sent.append, interval=0.010)
        gen.start(at=0.05)
        sim.run(until=0.1)
        assert len(sent) == 6

    def test_until_bound(self):
        sim = Simulator()
        sent = []
        gen = ProbeGenerator(sim, [FACTORY], sent.append, interval=0.010)
        gen.start(until=0.05)
        sim.run(until=1.0)
        assert len(sent) == 6

    def test_stop(self):
        sim = Simulator()
        sent = []
        gen = ProbeGenerator(sim, [FACTORY], sent.append, interval=0.010)
        gen.start()
        sim.run(until=0.05)
        gen.stop()
        sim.run(until=1.0)
        assert len(sent) == 6

    def test_double_start_rejected(self):
        sim = Simulator()
        gen = ProbeGenerator(sim, [FACTORY], lambda p: None)
        gen.start()
        with pytest.raises(RuntimeError):
            gen.start()

    def test_probes_carry_created_at(self):
        sim = Simulator()
        sent = []
        ProbeGenerator(sim, [FACTORY], sent.append, interval=0.010).start()
        sim.run(until=0.02)
        assert [p.created_at for p in sent] == pytest.approx([0.0, 0.01, 0.02])

    def test_one_round_sends_every_factory_in_order(self):
        sim = Simulator()
        sent = []
        other = PacketFactory(src="2001:db8:10::2", dst="2001:db8:20::2", flow_label=7)
        gen = ProbeGenerator(sim, [FACTORY, other], sent.append, interval=0.010)
        gen.start()
        sim.run(until=0.015)
        assert [p.flow_label for p in sent] == [FACTORY.flow_label, 7] * 2
        assert [p.created_at for p in sent] == pytest.approx([0.0, 0.0, 0.01, 0.01])
        assert gen.sent == 4

    def test_no_factories_sends_nothing(self):
        sim = Simulator()
        sent = []
        gen = ProbeGenerator(sim, [], sent.append, interval=0.010)
        gen.start()
        sim.run(until=0.05)
        assert sent == [] and gen.sent == 0

    def test_invalid_interval_rejected(self):
        with pytest.raises(ValueError):
            ProbeGenerator(Simulator(), [FACTORY], lambda p: None, interval=0.0)


class TestDroneWorkload:
    def test_rate_and_deadline_annotations(self):
        sim = Simulator()
        sent = []
        workload = DroneTelemetryWorkload(
            sim, FACTORY, sent.append, rate_hz=100.0, deadline_s=0.05
        )
        workload.start(until=1.0)
        sim.run()
        assert len(sent) == 101
        assert all(p.meta["deadline_s"] == 0.05 for p in sent)

    def test_bursts_inflate_payload(self):
        sim = Simulator()
        sent = []
        workload = DroneTelemetryWorkload(sim, FACTORY, sent.append, rate_hz=100.0)
        workload.start(until=1.0)
        sim.run()
        sizes = {p.payload_bytes for p in sent}
        assert sizes == {64, 640}
        bursts = [p for p in sent if p.payload_bytes == 640]
        assert len(bursts) == 2  # packets 50 and 100 of 101
