"""Tests for ECMP reverse engineering, including packet-level mapping of
the E8 fabric."""

import ipaddress

import pytest

from repro.core.ecmp_probing import EcmpMapper
from repro.netsim.packet import Ipv6Header, Packet, UdpHeader
from repro.scenarios.topologies import build_ecmp_fanout


class TestMapperUnit:
    def test_single_cluster_when_delays_close(self):
        mapper = EcmpMapper(cluster_gap_s=1e-3)
        for port in range(20):
            mapper.observe(port, 0.030 + port * 1e-6)
        ecmp_map = mapper.build_map()
        assert ecmp_map.sub_path_count == 1
        assert ecmp_map.fastest.mean_delay_s == pytest.approx(0.030, abs=1e-4)

    def test_two_clusters_split_at_gap(self):
        mapper = EcmpMapper(cluster_gap_s=1e-3)
        for port in range(10):
            mapper.observe(port, 0.030)
        for port in range(10, 20):
            mapper.observe(port, 0.036)
        ecmp_map = mapper.build_map()
        assert ecmp_map.sub_path_count == 2
        assert ecmp_map.fastest.ports == tuple(range(10))
        assert ecmp_map.port_for_fastest() == 0

    def test_min_samples_guard(self):
        mapper = EcmpMapper(min_samples_per_port=3)
        mapper.observe(1, 0.030)
        with pytest.raises(ValueError, match="enough samples"):
            mapper.build_map()
        mapper.observe(1, 0.031)
        mapper.observe(1, 0.029)
        assert mapper.build_map().sub_path_count == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            EcmpMapper(cluster_gap_s=0.0)
        with pytest.raises(ValueError):
            EcmpMapper(min_samples_per_port=0)


class TestPacketLevelMapping:
    """Reverse-engineer the E8 fabric, then steer onto its fastest
    sub-path by source port alone."""

    def probe(self, sport):
        return Packet(
            headers=[
                Ipv6Header(
                    src=ipaddress.IPv6Address("2001:db8:ec0::1"),
                    dst=ipaddress.IPv6Address("2001:db8:ecf::9"),
                ),
                UdpHeader(sport=sport, dport=33434),
            ],
            payload_bytes=16,
        )

    def test_maps_all_three_sub_paths(self):
        fabric = build_ecmp_fanout()
        net = fabric.net
        src, dst = net.node(fabric.src_name), net.node(fabric.dst_name)
        mapper = EcmpMapper(cluster_gap_s=2e-3)

        def record(switch, packet):
            mapper.observe(
                packet.five_tuple().sport, switch.sim.now - packet.created_at
            )
            return None

        dst.attach_ingress(record)
        for i, sport in enumerate(range(20000, 20060)):
            net.sim.schedule_at(
                i * 0.01, lambda s=sport: net.inject(src, self.probe(s))
            )
        net.run()
        ecmp_map = mapper.build_map()
        assert ecmp_map.sub_path_count == 3
        measured = sorted(c.mean_delay_s for c in ecmp_map.clusters)
        for got, expected_ms in zip(measured, fabric.sub_path_delays_ms):
            assert got == pytest.approx(expected_ms * 1e-3 + 0.0002, abs=5e-4)

    def test_learned_port_steers_traffic(self):
        fabric = build_ecmp_fanout()
        net = fabric.net
        src, dst = net.node(fabric.src_name), net.node(fabric.dst_name)
        mapper = EcmpMapper(cluster_gap_s=2e-3)
        dst.attach_ingress(
            lambda switch, packet: (
                mapper.observe(
                    packet.five_tuple().sport,
                    switch.sim.now - packet.created_at,
                ),
                None,
            )[1]
        )
        for i, sport in enumerate(range(30000, 30040)):
            net.sim.schedule_at(
                i * 0.01, lambda s=sport: net.inject(src, self.probe(s))
            )
        net.run()
        fast_port = mapper.build_map().port_for_fastest()

        # Steering phase: 50 packets on the learned port all ride the
        # 30 ms sub-path.
        before = [
            net.links[f"core->dst:{i}"].stats.transmitted for i in range(3)
        ]
        for i in range(50):
            net.sim.schedule_at(
                net.sim.now + i * 0.01,
                lambda: net.inject(src, self.probe(fast_port)),
            )
        net.run()
        after = [
            net.links[f"core->dst:{i}"].stats.transmitted for i in range(3)
        ]
        deltas = [b - a for a, b in zip(before, after)]
        # All 50 landed on exactly one sub-path — and it is the fastest
        # (index 0 holds the 30 ms link in the builder).
        assert deltas == [50, 0, 0]
