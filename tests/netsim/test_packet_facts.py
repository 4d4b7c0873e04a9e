"""A packet's header facts and its interned addresses, searched.

The packet keeps ``outer_ip``, its header byte count and ``tunneled``
beside its header stack instead of scanning the stack on every read.  A
state machine drives every way the stack changes and checks after each
step that the kept facts equal a from-scratch derivation by the scanning
code the packet used to run (kept below as the oracle).

Header addresses are interned: one object per address, its hash taken
once.  The second search checks an interned address is the plain
``ip_address`` in everything but that.
"""

import copy
import ipaddress
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from repro.netsim.packet import (
    TANGO_UDP_PORT,
    InternedIPv4Address,
    InternedIPv6Address,
    Ipv4Header,
    Ipv6Header,
    Packet,
    TangoHeader,
    UdpHeader,
    as_address,
)

# -- the oracle: the stack scans packets ran before they kept the facts ------


def scanned_outer_ip(headers):
    for header in headers:
        if isinstance(header, (Ipv4Header, Ipv6Header)):
            return header
    return None


def scanned_wire_bytes(headers, payload_bytes):
    total = payload_bytes
    for header in headers:
        total += header.wire_bytes
    return total


def scanned_tunneled(headers):
    if len(headers) < 3:
        return False
    outer, udp, tango = headers[0], headers[1], headers[2]
    return (
        isinstance(outer, Ipv6Header)
        and isinstance(udp, UdpHeader)
        and udp.dport == TANGO_UDP_PORT
        and isinstance(tango, TangoHeader)
    )


# -- headers ------------------------------------------------------------------

V6 = [ipaddress.IPv6Address(f"2001:db8:{i}::1") for i in range(3)]
V4 = [ipaddress.IPv4Address(f"10.0.0.{i}") for i in range(1, 4)]

ipv6_headers = st.builds(
    Ipv6Header, st.sampled_from(V6), st.sampled_from(V6), st.integers(0, 4)
)
ipv4_headers = st.builds(
    Ipv4Header, st.sampled_from(V4), st.sampled_from(V4), st.integers(0, 4)
)
udp_headers = st.builds(
    UdpHeader, st.integers(0, 3), st.sampled_from((TANGO_UDP_PORT, 53))
)
tango_headers = st.builds(
    TangoHeader,
    st.integers(0, 9),
    st.integers(0, 9),
    st.integers(0, 3),
    st.sampled_from((None, b"x" * TangoHeader.AUTH_TAG_BYTES)),
)
headers = st.one_of(ipv6_headers, ipv4_headers, udp_headers, tango_headers)


class HeaderFactsMachine(RuleBasedStateMachine):
    """The packet and a plain list of its headers, edited in step."""

    def __init__(self):
        super().__init__()
        self.packet = Packet([])
        self.stack = []

    @rule(stack=st.lists(headers, max_size=4), payload=st.integers(0, 1500))
    def build(self, stack, payload):
        self.packet = Packet(stack, payload_bytes=payload)
        self.stack = list(stack)

    @rule(pushed=st.lists(headers, min_size=1, max_size=3))
    def push(self, pushed):
        self.packet.push(*pushed)
        self.stack[0:0] = pushed

    @rule()
    def pop(self):
        if not self.stack:
            with pytest.raises(IndexError):
                self.packet.pop()
            return
        assert self.packet.pop() is self.stack.pop(0)

    @rule(
        outer=st.one_of(ipv6_headers, ipv4_headers),
        udp=udp_headers,
        tango=tango_headers,
    )
    def encapsulate(self, outer, udp, tango):
        self.packet.encapsulate(outer, udp, tango)
        self.stack[0:0] = [outer, udp, tango]

    @rule(
        outer=ipv6_headers,
        sport=st.integers(0, 3),
        tango=tango_headers,
    )
    def encapsulate_a_tunnel(self, outer, sport, tango):
        # What the sender program does; a later decapsulate restores.
        self.encapsulate(outer, UdpHeader(sport, TANGO_UDP_PORT), tango)

    @rule()
    def decapsulate(self):
        if not scanned_tunneled(self.stack):
            with pytest.raises(ValueError):
                self.packet.decapsulate()
            return
        popped = self.packet.decapsulate()
        assert list(popped) == self.stack[:3]
        del self.stack[:3]

    @precondition(lambda self: self.stack)
    @rule(data=st.data(), header=headers)
    def replace_header(self, data, header):
        index = data.draw(st.integers(-len(self.stack), len(self.stack) - 1))
        self.packet.replace_header(index, header)
        self.stack[index] = header

    @rule()
    def decrement_ttl(self):
        ip = scanned_outer_ip(self.stack)
        hops = ip.ttl if isinstance(ip, Ipv4Header) else getattr(ip, "hop_limit", 0)
        if hops <= 1:
            with pytest.raises(ValueError):
                self.packet.decrement_ttl()
            return
        self.packet.decrement_ttl()
        self.stack[self.stack.index(ip)] = ip.decremented()

    @rule(payload=st.integers(0, 9000))
    def set_payload(self, payload):
        self.packet.payload_bytes = payload

    @invariant()
    def facts_equal_a_scan(self):
        packet, stack = self.packet, self.stack
        assert packet.headers == tuple(stack)
        assert all(a is b for a, b in zip(packet.headers, stack))
        ip = scanned_outer_ip(stack)
        if ip is None:
            with pytest.raises(ValueError, match="no IP header"):
                _ = packet.outer_ip
        else:
            assert packet.outer_ip is ip
            assert packet.dst is ip.dst
        assert packet.wire_bytes == scanned_wire_bytes(stack, packet.payload_bytes)
        assert packet.tunneled is scanned_tunneled(stack)


HeaderFactsMachine.TestCase.settings = settings(
    max_examples=300, stateful_step_count=30, deadline=None, derandomize=True
)
TestHeaderFacts = HeaderFactsMachine.TestCase


def test_a_tunnel_round_trip_restores_the_inner_facts_without_a_scan():
    inner = Packet([Ipv6Header(V6[0], V6[1]), UdpHeader(1, 2)], payload_bytes=10)
    before = (inner.headers, inner.outer_ip, inner.wire_bytes, inner.tunneled)
    tunnel = Ipv6Header(V6[1], V6[2]), UdpHeader(3, TANGO_UDP_PORT)
    inner.encapsulate(*tunnel, TangoHeader(0, 0, 0))
    assert inner.tunneled
    inner.decrement_ttl()  # the outer header only
    inner.decapsulate()
    after = (inner.headers, inner.outer_ip, inner.wire_bytes, inner.tunneled)
    assert after[0] is before[0] and after[1] is before[1]
    assert after == before


def test_an_edit_below_a_tunnel_is_kept_through_decapsulation():
    """Neither a header replaced below the tunnel nor a hop taken off an
    inner IP header (the tunnel's own IP header replaced away) may be
    undone by restoring the facts saved at encapsulation."""
    inner_ip = Ipv6Header(V6[0], V6[1])
    tunnel_ip = Ipv6Header(V6[1], V6[2])
    tunnel = UdpHeader(3, TANGO_UDP_PORT), TangoHeader(0, 0, 0)
    replaced = Packet([inner_ip, UdpHeader(1, 2)])
    replaced.encapsulate(tunnel_ip, *tunnel)
    replaced.replace_header(4, UdpHeader(5, 6))
    replaced.decapsulate()
    assert replaced.headers == (inner_ip, UdpHeader(5, 6))
    decremented = Packet([inner_ip, UdpHeader(1, 2)])
    decremented.encapsulate(tunnel_ip, *tunnel)
    decremented.replace_header(0, UdpHeader(7, 8))
    decremented.decrement_ttl()  # now the inner header's hop
    decremented.replace_header(0, tunnel_ip)
    decremented.decapsulate()
    assert decremented.outer_ip is inner_ip.decremented()
    assert decremented.headers == (inner_ip.decremented(), UdpHeader(1, 2))


# -- interned addresses -------------------------------------------------------

addresses = st.one_of(st.ip_addresses(v=4), st.ip_addresses(v=6))


class TestInternedAddresses:
    """An interned address is the plain ``ip_address`` in everything but
    the cost of its hash and the number of its objects."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(addresses, st.booleans())
    def test_behaves_like_the_plain_address(self, plain, exploded):
        interned = as_address(plain)
        assert type(interned) in (InternedIPv4Address, InternedIPv6Address)
        assert isinstance(interned, type(plain))
        # One object per address, however it is reached.
        text = plain.exploded if exploded else str(plain)
        assert as_address(text) is interned
        assert as_address(interned) is interned
        assert as_address(type(plain)(int(plain))) is interned
        assert interned == plain and plain == interned
        assert not interned != plain
        assert hash(interned) == hash(plain)
        assert str(interned) == str(plain)
        assert repr(interned) == repr(plain)
        assert int(interned) == int(plain)
        # Mixed key types, both ways.
        assert {plain: 1}[interned] == 1 and {interned: 1}[plain] == 1
        assert interned in {plain} and plain in {interned}
        assert len({interned, plain}) == 1
        # Round trips come back interned, hash included.
        for twin in (
            pickle.loads(pickle.dumps(interned)),
            copy.copy(interned),
            copy.deepcopy(interned),
        ):
            assert twin is interned and hash(twin) == hash(plain)
        unpickled = pickle.loads(pickle.dumps(plain))
        assert type(unpickled) is type(plain) and unpickled == interned

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(st.ip_addresses(v=6), st.ip_addresses(v=6), st.integers(2, 255))
    def test_headers_intern_and_successors_share(self, src, dst, hops):
        header = Ipv6Header(src, dst, hop_limit=hops)
        assert header.src is as_address(src) and header.dst is as_address(dst)
        successor = header.decremented()
        assert successor.src is header.src and successor.dst is header.dst
        assert header == Ipv6Header(as_address(src), as_address(dst), hops)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(st.ip_addresses(v=4), st.ip_addresses(v=4), st.integers(2, 255))
    def test_ipv4_headers_intern_and_successors_share(self, src, dst, ttl):
        header = Ipv4Header(src, dst, ttl=ttl)
        assert header.src is as_address(src) and header.dst is as_address(dst)
        successor = header.decremented()
        assert successor.src is header.src and successor.dst is header.dst

    def test_a_scoped_address_passes_through(self):
        scoped = ipaddress.IPv6Address("fe80::1%eth0")
        assert as_address(scoped) is scoped
        assert as_address("fe80::1%eth0") == scoped

    @pytest.mark.parametrize(
        "value", [5, None, b"\x00" * 16, ipaddress.ip_network("2001:db8::/48")]
    )
    def test_a_non_address_is_refused(self, value):
        with pytest.raises(TypeError, match="an address is a str or an ip_address"):
            as_address(value)
