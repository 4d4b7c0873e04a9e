"""Tests for packets and header stacks."""

import ipaddress

import pytest

from repro.netsim.packet import (
    TANGO_UDP_PORT,
    FiveTuple,
    Ipv4Header,
    Ipv6Header,
    Packet,
    TangoHeader,
    UdpHeader,
)


def make_packet(payload=100):
    return Packet(
        headers=[
            Ipv6Header(
                src=ipaddress.IPv6Address("2001:db8:10::2"),
                dst=ipaddress.IPv6Address("2001:db8:20::2"),
            ),
            UdpHeader(sport=1234, dport=5678),
        ],
        payload_bytes=payload,
    )


class TestHeaderStack:
    def test_push_makes_header_outermost(self):
        packet = make_packet()
        outer = Ipv6Header(
            src=ipaddress.IPv6Address("2001:db8:a0::1"),
            dst=ipaddress.IPv6Address("2001:db8:b0::1"),
        )
        packet.push(outer)
        assert packet.headers[0] is outer

    def test_pop_returns_outermost(self):
        packet = make_packet()
        first = packet.headers[0]
        assert packet.pop() is first

    def test_pop_empty_raises(self):
        packet = Packet(headers=[])
        with pytest.raises(IndexError):
            packet.pop()

    def test_outer_ip_skips_non_ip(self):
        packet = make_packet()
        assert packet.outer_ip.version == 6

    def test_outer_ip_missing_raises(self):
        packet = Packet(headers=[UdpHeader(1, 2)])
        with pytest.raises(ValueError, match="no IP header"):
            _ = packet.outer_ip

    def test_find_returns_first_of_type(self):
        packet = make_packet()
        assert isinstance(packet.find(UdpHeader), UdpHeader)
        assert packet.find(TangoHeader) is None

    def test_tango_property(self):
        packet = make_packet()
        assert packet.tango is None
        header = TangoHeader(timestamp_ns=1, seq=2, path_id=3)
        packet.push(header)
        assert packet.tango is header


class TestWireSize:
    def test_wire_bytes_sums_headers_and_payload(self):
        packet = make_packet(payload=100)
        assert packet.wire_bytes == 40 + 8 + 100

    def test_tango_header_size_without_auth(self):
        header = TangoHeader(timestamp_ns=0, seq=0, path_id=0)
        assert header.wire_bytes == 16

    def test_tango_header_size_with_auth(self):
        header = TangoHeader(timestamp_ns=0, seq=0, path_id=0, auth_tag=b"x" * 8)
        assert header.wire_bytes == 24

    def test_encapsulation_grows_wire_size(self):
        packet = make_packet(payload=100)
        before = packet.wire_bytes
        packet.push(TangoHeader(timestamp_ns=0, seq=0, path_id=0))
        packet.push(UdpHeader(sport=1, dport=TANGO_UDP_PORT))
        packet.push(
            Ipv6Header(
                src=ipaddress.IPv6Address("::1"),
                dst=ipaddress.IPv6Address("::2"),
            )
        )
        assert packet.wire_bytes == before + 16 + 8 + 40

    def test_negative_payload_rejected(self):
        with pytest.raises(ValueError):
            Packet(headers=[], payload_bytes=-1)


class TestFiveTuple:
    def test_five_tuple_reads_outer_headers(self):
        packet = make_packet()
        five = packet.five_tuple()
        assert five == FiveTuple(
            "2001:db8:10::2", "2001:db8:20::2", 17, 1234, 5678
        )

    def test_encapsulated_packet_exposes_only_outer_tuple(self):
        """Tango's ECMP-pinning mechanism: the core sees one flow."""
        packet = make_packet()
        packet.push(TangoHeader(timestamp_ns=0, seq=0, path_id=0))
        packet.push(UdpHeader(sport=40001, dport=TANGO_UDP_PORT))
        packet.push(
            Ipv6Header(
                src=ipaddress.IPv6Address("2001:db8:a0::1"),
                dst=ipaddress.IPv6Address("2001:db8:b0::1"),
            )
        )
        five = packet.five_tuple()
        assert five.src == "2001:db8:a0::1"
        assert five.sport == 40001
        assert five.dport == TANGO_UDP_PORT

    def test_ip_without_udp_has_zero_ports(self):
        packet = Packet(
            headers=[
                Ipv6Header(
                    src=ipaddress.IPv6Address("::1"),
                    dst=ipaddress.IPv6Address("::2"),
                )
            ]
        )
        five = packet.five_tuple()
        assert (five.sport, five.dport) == (0, 0)


class TestTtl:
    def test_decrement_hop_limit(self):
        packet = make_packet()
        packet.decrement_ttl()
        assert packet.outer_ip.hop_limit == 63

    def test_hop_limit_expiry_raises(self):
        packet = Packet(
            headers=[
                Ipv6Header(
                    src=ipaddress.IPv6Address("::1"),
                    dst=ipaddress.IPv6Address("::2"),
                    hop_limit=1,
                )
            ]
        )
        with pytest.raises(ValueError, match="hop limit"):
            packet.decrement_ttl()

    def test_ipv4_ttl_decrement(self):
        packet = Packet(
            headers=[
                Ipv4Header(
                    src=ipaddress.IPv4Address("10.0.0.1"),
                    dst=ipaddress.IPv4Address("10.0.0.2"),
                    ttl=2,
                )
            ]
        )
        packet.decrement_ttl()
        assert packet.outer_ip.ttl == 1
        with pytest.raises(ValueError, match="TTL"):
            packet.decrement_ttl()


class TestCopy:
    def test_copy_has_new_identity(self):
        packet = make_packet()
        clone = packet.copy()
        assert clone.packet_id != packet.packet_id

    def test_copy_isolates_header_list(self):
        packet = make_packet()
        clone = packet.copy()
        clone.push(TangoHeader(timestamp_ns=0, seq=0, path_id=0))
        assert packet.tango is None

    def test_copy_isolates_meta(self):
        packet = make_packet()
        packet.meta["k"] = 1
        clone = packet.copy()
        clone.meta["k"] = 2
        assert packet.meta["k"] == 1


class TestValidation:
    def test_udp_port_range_enforced(self):
        with pytest.raises(ValueError):
            UdpHeader(sport=-1, dport=0)
        with pytest.raises(ValueError):
            UdpHeader(sport=0, dport=70000)

    def test_packet_ids_are_unique(self):
        ids = {make_packet().packet_id for _ in range(100)}
        assert len(ids) == 100


V6 = ipaddress.IPv6Address("2001:db8:10::2")
V4 = ipaddress.IPv4Address("10.0.0.1")

#: (constructor call, error type, the field its error must name).  A
#: ``str`` address used to be accepted and fail later, mid-run, inside
#: ``Fib.lookup``; the other values were accepted and carried along.
REFUSED_HEADERS = {
    "Ipv6Header(str src)": (lambda: Ipv6Header("::1", V6), TypeError, "src"),
    "Ipv6Header(str dst)": (lambda: Ipv6Header(V6, "::2"), TypeError, "dst"),
    "Ipv6Header(IPv4 src)": (lambda: Ipv6Header(V4, V6), TypeError, "src"),
    "Ipv6Header(hop_limit=-3)": (
        lambda: Ipv6Header(V6, V6, hop_limit=-3),
        ValueError,
        "hop_limit",
    ),
    "Ipv6Header(hop_limit=300)": (
        lambda: Ipv6Header(V6, V6, hop_limit=300),
        ValueError,
        "hop_limit",
    ),
    "Ipv6Header(hop_limit=1.5)": (
        lambda: Ipv6Header(V6, V6, hop_limit=1.5),
        TypeError,
        "hop_limit",
    ),
    "Ipv4Header(str dst)": (lambda: Ipv4Header(V4, "10.0.0.2"), TypeError, "dst"),
    "Ipv4Header(IPv6 src)": (lambda: Ipv4Header(V6, V4), TypeError, "src"),
    "Ipv4Header(ttl=-3)": (lambda: Ipv4Header(V4, V4, ttl=-3), ValueError, "ttl"),
    "Ipv4Header(ttl=300)": (lambda: Ipv4Header(V4, V4, ttl=300), ValueError, "ttl"),
    "Ipv4Header(ttl=True)": (lambda: Ipv4Header(V4, V4, ttl=True), TypeError, "ttl"),
    "UdpHeader(sport=1.5)": (lambda: UdpHeader(sport=1.5, dport=2), TypeError, "sport"),
    "UdpHeader(dport=True)": (
        lambda: UdpHeader(sport=1, dport=True),
        TypeError,
        "dport",
    ),
    "Packet(payload_bytes=1.5)": (
        lambda: Packet([], payload_bytes=1.5),
        TypeError,
        "payload_bytes",
    ),
    "Packet(payload_bytes=True)": (
        lambda: Packet([], payload_bytes=True),
        TypeError,
        "payload_bytes",
    ),
}


@pytest.mark.parametrize("case", sorted(REFUSED_HEADERS))
def test_unroutable_header_values_are_refused(case):
    build, error, field_name = REFUSED_HEADERS[case]
    with pytest.raises(error, match=field_name):
        build()


def test_hop_bounds_are_accepted():
    assert Ipv6Header(V6, V6, hop_limit=0).hop_limit == 0
    assert Ipv4Header(V4, V4, ttl=255).ttl == 255


def test_tango_path_id_stays_unchecked():
    """Allocators check their id blocks once; packets are not checked."""
    assert TangoHeader(timestamp_ns=0, seq=0, path_id=TangoHeader.MAX_PATH_ID + 1)


def test_a_tunnel_is_an_ip_a_udp_and_a_tango_header():
    packet = make_packet()
    before = packet.headers
    with pytest.raises(TypeError, match="a tunnel is"):
        packet.encapsulate(UdpHeader(1, 2), UdpHeader(1, 2), TangoHeader(0, 0, 0))
    assert packet.headers is before and not packet.tunneled
