"""Tests for the Network builder/container."""

import ipaddress

import pytest

from repro.netsim.delaymodels import ConstantDelay
from repro.netsim.packet import Ipv6Header, Packet
from repro.netsim.topology import Network


def make_packet(dst="2001:db8:20::1"):
    return Packet(
        headers=[
            Ipv6Header(
                src=ipaddress.IPv6Address("2001:db8:10::1"),
                dst=ipaddress.IPv6Address(dst),
            )
        ]
    )


class TestBuilders:
    def test_duplicate_node_name_rejected(self):
        net = Network()
        net.add_host("x")
        with pytest.raises(ValueError, match="duplicate"):
            net.add_router("x")

    def test_duplicate_link_name_rejected(self):
        net = Network()
        net.add_host("a")
        net.add_host("b")
        net.add_link("l", "a", "b", delay_s=0.001)
        with pytest.raises(ValueError, match="duplicate"):
            net.add_link("l", "b", "a", delay_s=0.001)

    def test_link_requires_exactly_one_delay_spec(self):
        net = Network()
        net.add_host("a")
        net.add_host("b")
        with pytest.raises(ValueError, match="exactly one"):
            net.add_link("l", "a", "b")
        with pytest.raises(ValueError, match="exactly one"):
            net.add_link(
                "l", "a", "b", delay=ConstantDelay(0.001), delay_s=0.001
            )

    def test_node_lookup_error_lists_known(self):
        net = Network()
        net.add_host("known")
        with pytest.raises(KeyError, match="known"):
            net.node("missing")

    def test_links_get_distinct_seeds(self):
        net = Network()
        net.add_host("a")
        net.add_host("b")
        l1 = net.add_link("l1", "a", "b", delay_s=0.001)
        l2 = net.add_link("l2", "a", "b", delay_s=0.001)
        assert l1.seed != l2.seed


class TestOperation:
    def test_inject_delivers_to_node(self):
        net = Network()
        host = net.add_host("h")
        net.inject("h", make_packet())
        assert host.stats.received == 1

    def test_inject_stamps_created_at(self):
        net = Network()
        host = net.add_host("h")
        net.sim.advance_to(3.0)
        packet = make_packet()
        net.inject(host, packet)
        assert packet.created_at == 3.0

    def test_three_hop_chain_end_to_end(self):
        net = Network()
        net.add_host("src")
        r1 = net.add_router("r1")
        r2 = net.add_router("r2")
        sink = net.add_host("sink")
        l1 = net.add_link("a", r1, r2, delay_s=0.010)
        l2 = net.add_link("b", r2, sink, delay_s=0.020)
        r1.fib.add_route("2001:db8:20::/48", l1)
        r2.fib.add_route("2001:db8:20::/48", l2)
        arrivals = []
        sink.on_packet = lambda p, t: arrivals.append(t)
        net.inject(r1, make_packet())
        net.run()
        assert arrivals == [pytest.approx(0.030)]
