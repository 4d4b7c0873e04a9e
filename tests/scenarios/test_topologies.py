"""Tests for synthetic topologies (Tango-of-N federation + ECMP fabrics)."""

import ipaddress

import pytest

from repro.federation import FederationRegistry
from repro.netsim.packet import Ipv6Header, Packet, UdpHeader
from repro.scenarios.topologies import build_ecmp_fanout, build_live_federation


def established(n, **kwargs):
    """A live federation of ``n`` members with every pair established,
    no member deliberately degraded."""
    registry = FederationRegistry(
        build_live_federation(n, degraded_pair=False, **kwargs)
    )
    registry.establish()
    return registry


def discoveries(registry):
    """(observer, announcer) -> discovery result, every ordered pair."""
    found = {}
    for (a, b), session in registry.sessions.items():
        found[(a, b)] = session.state.discovery_a_to_b
        found[(b, a)] = session.state.discovery_b_to_a
    return found


class TestTangoOfNFederation:
    def test_minimum_edges_enforced(self):
        with pytest.raises(ValueError):
            build_live_federation(1)

    def test_pairwise_discovery_complete(self):
        found = discoveries(established(3))
        assert len(found) == 6  # ordered pairs
        for result in found.values():
            assert result.path_count >= 1

    def test_mesh_populated_with_all_pairs(self):
        registry = established(3)
        mesh = registry.analytical_mesh()
        names = registry.scenario.member_names
        for a in names:
            for b in names:
                if a != b:
                    assert mesh.direct_paths(a, b)

    def test_path_count_matches_provider_fanout(self):
        for result in discoveries(established(4, providers_per_edge=2)).values():
            assert result.path_count == 2

    def test_deterministic_for_seed(self):
        a, b = established(3, seed=9), established(3, seed=9)
        found_a, found_b = discoveries(a), discoveries(b)
        for key in found_a:
            assert found_a[key].labels() == found_b[key].labels()
        assert a.analytical_mesh().direct_paths(
            "edge0", "edge1"
        ) == b.analytical_mesh().direct_paths("edge0", "edge1")

    def test_diversity_grows_with_n(self):
        """The E9 trend at unit scale."""
        small = established(3).analytical_mesh()
        large = established(5).analytical_mesh()
        assert large.diversity("edge0", "edge1", 1) > small.diversity(
            "edge0", "edge1", 1
        )

    def test_invalid_providers_per_edge(self):
        with pytest.raises(ValueError):
            build_live_federation(3, providers_per_edge=0)


class TestEcmpFanout:
    def make_probe(self, sport, dst="2001:db8:ecf::9"):
        return Packet(
            headers=[
                Ipv6Header(
                    src=ipaddress.IPv6Address("2001:db8:ec0::1"),
                    dst=ipaddress.IPv6Address(dst),
                ),
                UdpHeader(sport=sport, dport=33434),
            ],
            payload_bytes=16,
        )

    def test_needs_two_sub_paths(self):
        with pytest.raises(ValueError):
            build_ecmp_fanout(sub_path_delays_ms=(30.0,))

    def test_varying_ports_spread_over_sub_paths(self):
        """Unpinned probes measure 'multiple paths as one'."""
        fabric = build_ecmp_fanout()
        net = fabric.net
        src = net.node(fabric.src_name)
        for sport in range(300):
            net.inject(src, self.make_probe(20000 + sport))
        net.run()
        used = [
            net.links[f"core->dst:{i}"].stats.transmitted
            for i in range(len(fabric.sub_path_delays_ms))
        ]
        assert all(count > 30 for count in used)

    def test_fixed_tuple_sticks_to_one_sub_path(self):
        """Tango's encapsulation fix: one 5-tuple, one physical path."""
        fabric = build_ecmp_fanout()
        net = fabric.net
        src = net.node(fabric.src_name)
        for _ in range(100):
            net.inject(src, self.make_probe(sport=40000))
        net.run()
        used = [
            net.links[f"core->dst:{i}"].stats.transmitted
            for i in range(len(fabric.sub_path_delays_ms))
        ]
        assert sorted(used) == [0, 0, 100]
