"""Relay encap hop: header swap semantics at the relay switch."""

import ipaddress

import pytest

from repro.dataplane.relay import (
    RelayBinding,
    RelayForwardProgram,
    attach_relay_program,
)
from repro.netsim.packet import (
    TANGO_UDP_PORT,
    Ipv6Header,
    Packet,
    TangoHeader,
    UdpHeader,
)
from repro.netsim.topology import Network

A_TO_R = ipaddress.IPv6Address("2001:db8:aa::1")
R_LOCAL = ipaddress.IPv6Address("2001:db8:bb::1")
R_TO_B = ipaddress.IPv6Address("2001:db8:cc::1")


def binding(path_id=777):
    return RelayBinding(
        path_id=path_id,
        arrival_endpoint=R_LOCAL,
        next_src=R_LOCAL,
        next_dst=R_TO_B,
        next_sport=41003,
    )


def stitched_packet(path_id=777, dst=R_LOCAL, timestamp_ns=123_456_789):
    return Packet(
        headers=[
            Ipv6Header(src=A_TO_R, dst=dst),
            UdpHeader(sport=40001, dport=TANGO_UDP_PORT),
            TangoHeader(timestamp_ns=timestamp_ns, seq=9, path_id=path_id),
        ],
        payload_bytes=1000,
    )


@pytest.fixture()
def switch():
    return Network().add_switch("relay-sw")


class TestHeaderSwap:
    def test_bound_packet_gets_segment_two_coordinates(self, switch):
        program = RelayForwardProgram()
        program.bind(binding())
        packet = stitched_packet()
        out = program(switch, packet)
        assert out is packet
        assert packet.headers[0].src == R_LOCAL
        assert packet.headers[0].dst == R_TO_B
        assert packet.headers[1].sport == 41003
        assert program.relayed == 1

    def test_tango_header_survives_untouched(self, switch):
        """The origin timestamp and stitched path id must cross the
        relay unmodified — that is what makes the final receiver's
        measurement the true end-to-end OWD (clock offsets telescope)
        and keeps the stitched route's telemetry under its own id."""
        program = RelayForwardProgram()
        program.bind(binding())
        packet = stitched_packet(timestamp_ns=42)
        before = packet.headers[2]
        program(switch, packet)
        assert packet.headers[2] is before
        assert packet.headers[2].timestamp_ns == 42
        assert packet.headers[2].path_id == 777

    def test_unbound_path_id_passes_through(self, switch):
        program = RelayForwardProgram()
        program.bind(binding(path_id=777))
        packet = stitched_packet(path_id=555)
        program(switch, packet)
        assert packet.headers[0].dst == R_LOCAL  # unchanged
        assert program.relayed == 0
        assert program.passed_through == 1

    def test_other_destination_passes_through(self, switch):
        """A direct (non-stitched) packet that happens to share a path id
        but targets a different endpoint is not the relay's business."""
        program = RelayForwardProgram()
        program.bind(binding())
        other = ipaddress.IPv6Address("2001:db8:dd::1")
        packet = stitched_packet(dst=other)
        program(switch, packet)
        assert packet.headers[0].dst == other
        assert program.relayed == 0

    def test_non_tango_packet_passes_through(self, switch):
        program = RelayForwardProgram()
        program.bind(binding())
        packet = Packet(
            headers=[Ipv6Header(src=A_TO_R, dst=R_LOCAL)], payload_bytes=10
        )
        assert program(switch, packet) is packet
        assert program.passed_through == 1

    def test_double_bind_rejected(self, switch):
        program = RelayForwardProgram()
        program.bind(binding())
        with pytest.raises(ValueError, match="already bound"):
            program.bind(binding())

    def test_on_transit_hook_sees_relay_clock(self):
        net = Network()
        switch = net.add_switch("relay-sw", clock_offset=0.25)
        seen = []
        program = RelayForwardProgram(
            on_transit=lambda pid, t: seen.append((pid, t))
        )
        program.bind(binding())
        program(switch, stitched_packet())
        assert seen == [(777, pytest.approx(0.25))]


class TestAttach:
    def test_attach_inserts_at_ingress_front(self, switch):
        def other_program(sw, packet):
            return packet

        switch.ingress_programs.append(other_program)
        program = attach_relay_program(switch)
        assert switch.ingress_programs[0] is program

    def test_attach_is_idempotent(self, switch):
        first = attach_relay_program(switch)
        second = attach_relay_program(switch)
        assert first is second
        assert (
            sum(
                isinstance(p, RelayForwardProgram)
                for p in switch.ingress_programs
            )
            == 1
        )
