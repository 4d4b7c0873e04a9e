"""Tests for Tango tunnel encapsulation."""

import ipaddress

import pytest

from repro.dataplane.encap import (
    TUNNEL_OVERHEAD_BYTES,
    TunnelDecapError,
    decapsulate,
    encapsulate,
    tunnel_headers,
)
from repro.netsim.packet import (
    TANGO_UDP_PORT,
    Ipv6Header,
    Packet,
    TangoHeader,
    UdpHeader,
)


def inner_packet():
    return Packet(
        headers=[
            Ipv6Header(
                src=ipaddress.IPv6Address("2001:db8:10::2"),
                dst=ipaddress.IPv6Address("2001:db8:20::2"),
            ),
            UdpHeader(sport=1111, dport=2222),
        ],
        payload_bytes=64,
    )


def encap(
    packet=None,
    src="2001:db8:a0::1",
    dst="2001:db8:b0::1",
    path_id=3,
    timestamp_ns=123_456_789,
    seq=42,
    sport=TANGO_UDP_PORT,
    dport=TANGO_UDP_PORT,
    auth_tag=None,
):
    packet = packet or inner_packet()
    return encapsulate(
        packet,
        tunnel_headers(src, dst, sport, dport),
        TangoHeader(timestamp_ns, seq, path_id, auth_tag),
    )


class TestEncapsulate:
    def test_outer_destination_selects_route(self):
        packet = encap()
        assert str(packet.dst) == "2001:db8:b0::1"

    def test_inner_headers_preserved(self):
        packet = encap()
        inner_ip = packet.headers[3]
        assert str(inner_ip.dst) == "2001:db8:20::2"

    def test_tango_header_fields(self):
        packet = encap()
        tango = packet.tango
        assert tango.timestamp_ns == 123_456_789
        assert tango.seq == 42
        assert tango.path_id == 3

    def test_overhead_constant_matches_reality(self):
        packet = inner_packet()
        before = packet.wire_bytes
        encap(packet)
        assert packet.wire_bytes - before == TUNNEL_OVERHEAD_BYTES

    def test_udp_dport_is_tango_port(self):
        packet = encap()
        assert packet.headers[1].dport == TANGO_UDP_PORT

    def test_custom_sport_pins_tunnel_flow(self):
        packet = encap(sport=40003)
        assert packet.five_tuple().sport == 40003

    def test_auth_tag_carried(self):
        packet = encap(auth_tag=b"12345678")
        assert packet.tango.auth_tag == b"12345678"

    def test_packets_of_a_tunnel_share_its_outer_headers(self):
        outer = tunnel_headers("2001:db8:a0::1", "2001:db8:b0::1", 40001)
        first, second = inner_packet(), inner_packet()
        encapsulate(first, outer, TangoHeader(1, 0, 3))
        encapsulate(second, outer, TangoHeader(2, 1, 3))
        assert first.headers[0] is second.headers[0] is outer[0]
        assert first.headers[1] is second.headers[1] is outer[1]
        assert first.tango.seq == 0 and second.tango.seq == 1


class TestDetection:
    def test_encapsulated_detected(self):
        assert encap().tunneled

    def test_plain_packet_not_detected(self):
        assert not inner_packet().tunneled

    def test_wrong_udp_port_not_detected(self):
        packet = encap(dport=9999)
        assert not packet.tunneled

    def test_short_stack_not_detected(self):
        assert not Packet(headers=[]).tunneled


class TestDecapsulate:
    def test_roundtrip_restores_inner(self):
        original = inner_packet()
        original_headers = list(original.headers)
        packet = encap(original)
        inner, tango, outer = decapsulate(packet)
        assert list(inner.headers) == original_headers
        assert tango.seq == 42
        assert str(outer.dst) == "2001:db8:b0::1"

    def test_decap_plain_packet_raises(self):
        with pytest.raises(TunnelDecapError, match="not a Tango tunnel"):
            decapsulate(inner_packet())

    def test_double_encap_decap_peels_one_layer(self):
        packet = encap()
        encap(packet, src="2001:db8:c0::1", dst="2001:db8:d0::1", path_id=7)
        inner, tango, _ = decapsulate(packet)
        assert tango.path_id == 7
        assert inner.tunneled
