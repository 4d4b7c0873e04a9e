"""Tests for FIBs, routers, hosts, and programmable switches."""

import ipaddress

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.netsim.events import Simulator
from repro.netsim.node import Fib, HostNode
from repro.netsim.packet import Ipv6Header, Packet, UdpHeader
from repro.netsim.topology import Network


def addr(s):
    return ipaddress.IPv6Address(s)


def make_packet(dst="2001:db8:20::5", sport=1000, dport=2000):
    return Packet(
        headers=[
            Ipv6Header(src=addr("2001:db8:10::5"), dst=addr(dst)),
            UdpHeader(sport=sport, dport=dport),
        ],
        payload_bytes=32,
    )


class TestFib:
    def test_longest_prefix_wins(self):
        net = Network()
        r = net.add_router("r")
        a = net.add_host("a")
        b = net.add_host("b")
        wide = net.add_link("wide", r, a, delay_s=0.001)
        narrow = net.add_link("narrow", r, b, delay_s=0.001)
        r.fib.add_route("2001:db8::/32", wide)
        r.fib.add_route("2001:db8:20::/48", narrow)
        entry = r.fib.lookup(addr("2001:db8:20::1"))
        assert entry.links == [narrow]
        entry = r.fib.lookup(addr("2001:db8:99::1"))
        assert entry.links == [wide]

    def test_no_match_returns_none(self):
        fib = Fib()
        assert fib.lookup(addr("2001:db8::1")) is None

    def test_replace_route(self):
        net = Network()
        r = net.add_router("r")
        a = net.add_host("a")
        l1 = net.add_link("l1", r, a, delay_s=0.001)
        l2 = net.add_link("l2", r, a, delay_s=0.001)
        r.fib.add_route("2001:db8::/32", l1)
        r.fib.add_route("2001:db8::/32", l2)
        assert len(r.fib) == 1
        assert r.fib.lookup(addr("2001:db8::1")).links == [l2]

    def test_remove_route(self):
        net = Network()
        r = net.add_router("r")
        a = net.add_host("a")
        link = net.add_link("l", r, a, delay_s=0.001)
        r.fib.add_route("2001:db8::/32", link)
        assert r.fib.remove_route("2001:db8::/32")
        assert not r.fib.remove_route("2001:db8::/32")
        assert r.fib.lookup(addr("2001:db8::1")) is None

    def test_version_mismatch_no_match(self):
        net = Network()
        r = net.add_router("r")
        a = net.add_host("a")
        link = net.add_link("l", r, a, delay_s=0.001)
        r.fib.add_route("10.0.0.0/8", link)
        assert r.fib.lookup(addr("2001:db8::1")) is None

    def test_empty_ecmp_group_rejected(self):
        fib = Fib()
        with pytest.raises(ValueError):
            fib.add_route("2001:db8::/32", [])


class _ListFib:
    """The reference: one list, the replaced or removed route filtered
    out by ``!=`` and a new one appended, then a stable sort, longest
    prefix first."""

    def __init__(self):
        self.entries = []

    def add_route(self, prefix, links):
        network = ipaddress.ip_network(prefix)
        self.remove_route(network)
        self.entries.append((network, list(links)))
        self.entries.sort(key=lambda e: e[0].prefixlen, reverse=True)

    def remove_route(self, prefix):
        network = ipaddress.ip_network(prefix)
        before = len(self.entries)
        self.entries = [e for e in self.entries if e[0] != network]
        return len(self.entries) != before

    def lookup(self, address):
        for network, links in self.entries:
            if network.version == address.version and address in network:
                return network, links
        return None


#: Nested and sibling prefixes of both families, several per length.
_FIB_PREFIXES = (
    "2001:db8::/32",
    "2001:db9::/32",
    "2001:db8:20::/48",
    "2001:db8:21::/48",
    "2001:db8:20:1::/64",
    "::/0",
    "10.0.0.0/8",
    "10.1.0.0/16",
    "10.2.0.0/16",
    "10.1.2.0/24",
    "0.0.0.0/0",
    "2001:db8:1::/48",
)
_FIB_ADDRESSES = tuple(
    ipaddress.ip_address(a)
    for a in (
        "2001:db8:20:1::5",
        "2001:db8:20::9",
        "2001:db8:21::1",
        "2001:db8:99::1",
        "2001:db9::1",
        "2001:db8:1::1",
        "3fff::1",
        "10.1.2.3",
        "10.1.9.9",
        "10.2.0.1",
        "10.9.9.9",
        "192.0.2.1",
    )
)
_FIB_NET = Network()
_FIB_ROUTER = _FIB_NET.add_router("fib-r")
_FIB_LINKS = tuple(
    _FIB_NET.add_link(f"fib-l{i}", _FIB_ROUTER, _FIB_NET.add_host(f"fib-h{i}"), delay_s=0.001)
    for i in range(3)
)
_FIB_OPERATIONS = st.lists(
    st.one_of(
        st.tuples(
            st.just("add"),
            st.sampled_from(_FIB_PREFIXES),
            st.lists(st.sampled_from(_FIB_LINKS), min_size=1, max_size=2),
            st.booleans(),
        ),
        st.tuples(st.just("remove"), st.sampled_from(_FIB_PREFIXES), st.booleans()),
    ),
    max_size=40,
)


class TestFibMatchesAList:
    """Routes kept per prefix length answer exactly as the one sorted
    list they replaced: the same ``routes()`` order (a replaced route
    moves to the back of its length) and the same ``lookup`` answers."""

    @given(_FIB_OPERATIONS)
    @settings(max_examples=200, deadline=None)
    def test_add_replace_remove_sequences(self, operations):
        fib, reference = Fib(), _ListFib()
        for op in operations:
            # A prefix is passed as text or as a network object of its
            # own, so a replacement meets an equal, not the same, object.
            prefix = ipaddress.ip_network(op[1]) if op[-1] else op[1]
            if op[0] == "add":
                fib.add_route(prefix, op[2])
                reference.add_route(prefix, op[2])
            else:
                assert fib.remove_route(prefix) == reference.remove_route(prefix)
            assert [(e.prefix, e.links) for e in fib.routes()] == reference.entries
            assert len(fib) == len(reference.entries)
            for address in _FIB_ADDRESSES:
                entry = fib.lookup(address)
                answer = None if entry is None else (entry.prefix, entry.links)
                assert answer == reference.lookup(address)


class TestRouterForwarding:
    def build(self):
        net = Network()
        r = net.add_router("r")
        dst = net.add_host("dst")
        link = net.add_link("out", r, dst, delay_s=0.001)
        r.fib.add_route("2001:db8:20::/48", link)
        return net, r, dst

    def test_forwards_matching_packet(self):
        net, r, dst = self.build()
        net.inject(r, make_packet())
        net.run()
        assert dst.stats.received == 1
        assert r.stats.forwarded == 1

    def test_drops_unroutable(self):
        net, r, dst = self.build()
        net.inject(r, make_packet(dst="2001:db8:99::1"))
        net.run()
        assert r.stats.dropped_no_route == 1
        assert dst.stats.received == 0

    def test_hop_limit_decremented(self):
        net, r, dst = self.build()
        net.inject(r, make_packet())
        net.run()
        assert dst.received_packets[0].outer_ip.hop_limit == 63

    def test_expired_hop_limit_dropped(self):
        net, r, dst = self.build()
        packet = make_packet()
        packet.replace_header(
            0, Ipv6Header(src=packet.outer_ip.src, dst=packet.outer_ip.dst, hop_limit=1)
        )
        net.inject(r, packet)
        net.run()
        assert r.stats.dropped_ttl == 1
        assert dst.stats.received == 0


class TestEcmpGroups:
    def build(self, salt=0):
        net = Network()
        r = net.add_router("r", ecmp_salt=salt)
        dst = net.add_host("dst")
        links = [
            net.add_link(f"p{i}", r, dst, delay_s=0.001 * (i + 1))
            for i in range(3)
        ]
        r.fib.add_route("2001:db8:20::/48", links)
        return net, r, dst, links

    def test_flow_sticks_to_one_link(self):
        net, r, dst, links = self.build()
        for _ in range(20):
            net.inject(r, make_packet(sport=1111, dport=2222))
        net.run()
        used = [l for l in links if l.stats.transmitted > 0]
        assert len(used) == 1
        assert used[0].stats.transmitted == 20

    def test_different_flows_spread(self):
        net, r, dst, links = self.build()
        for sport in range(200):
            net.inject(r, make_packet(sport=10000 + sport))
        net.run()
        used = [l.stats.transmitted for l in links]
        assert all(count > 20 for count in used)

    def test_salt_changes_mapping(self):
        def chosen(salt):
            net, r, dst, links = self.build(salt)
            net.inject(r, make_packet(sport=4242))
            net.run()
            return [l.stats.transmitted for l in links].index(1)

        picks = {chosen(s) for s in range(10)}
        assert len(picks) > 1


class TestProgrammableSwitch:
    def test_ingress_program_sees_packet_before_routing(self):
        net = Network()
        sw = net.add_switch("sw")
        dst = net.add_host("dst")
        link = net.add_link("out", sw, dst, delay_s=0.001)
        sw.fib.add_route("2001:db8:20::/48", link)
        seen = []
        sw.attach_ingress(lambda s, p: (seen.append(p.packet_id), p)[1])
        net.inject(sw, make_packet())
        net.run()
        assert len(seen) == 1
        assert dst.stats.received == 1

    def test_program_can_consume_packet(self):
        net = Network()
        sw = net.add_switch("sw")
        sw.attach_ingress(lambda s, p: None)
        net.inject(sw, make_packet())
        net.run()
        assert sw.stats.consumed_by_program == 1

    def test_egress_program_runs_on_forwarding(self):
        net = Network()
        sw = net.add_switch("sw")
        dst = net.add_host("dst")
        link = net.add_link("out", sw, dst, delay_s=0.001)
        sw.fib.add_route("2001:db8:20::/48", link)
        tags = []
        sw.attach_egress(lambda s, p: (tags.append("egress"), p)[1])
        net.inject(sw, make_packet())
        net.run()
        assert tags == ["egress"]

    def test_programs_chain_in_order(self):
        net = Network()
        sw = net.add_switch("sw")
        order = []
        sw.attach_ingress(lambda s, p: (order.append(1), p)[1])
        sw.attach_ingress(lambda s, p: (order.append(2), None)[1])
        net.inject(sw, make_packet())
        net.run()
        assert order == [1, 2]

    def test_program_reads_switch_wall_clock(self):
        net = Network()
        sw = net.add_switch("sw", clock_offset=0.5)
        stamps = []
        sw.attach_ingress(lambda s, p: (stamps.append(s.clock.now()), None)[1])
        net.sim.advance_to(1.0)
        net.inject(sw, make_packet())
        net.run()
        assert stamps == [pytest.approx(1.5)]


class TestHostNode:
    def test_callback_invoked_with_time(self):
        sim = Simulator()
        seen = []
        host = HostNode("h", sim, on_packet=lambda p, t: seen.append(t))
        sim.advance_to(2.0)
        host.receive(make_packet())
        assert seen == [2.0]

    def test_a_packet_goes_to_exactly_one_place(self):
        """Bound flow -> its sink, else the catch-all, else the inbox;
        the stats count all three."""
        sim = Simulator()
        host = HostNode("h", sim)
        bound, caught = [], []
        host.bind(7, lambda p, t: bound.append(p))
        packets = [make_packet() for _ in range(3)]
        packets[0].flow_label = 7
        packets[1].flow_label = 8
        packets[2].flow_label = 8
        host.receive(packets[0])
        host.receive(packets[1])
        host.on_packet = lambda p, t: caught.append(p)
        host.receive(packets[2])
        assert bound == [packets[0]]
        assert host.received_packets == [packets[1]]
        assert caught == [packets[2]]
        assert host.stats.received == host.stats.delivered_local == 3
