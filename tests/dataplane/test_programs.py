"""Tests for the Tango sender/receiver switch programs."""

import ipaddress
from dataclasses import dataclass

import pytest

from repro.dataplane.encap import tunnel_headers
from repro.dataplane.programs import TangoReceiverProgram, TangoSenderProgram
from repro.netsim.packet import Ipv6Header, Packet, UdpHeader
from repro.netsim.topology import Network
from repro.telemetry.auth import TelemetryAuthenticator


@dataclass(frozen=True)
class FakeTunnel:
    path_id: int
    outer_headers: tuple[Ipv6Header, UdpHeader]


class FirstTunnelSelector:
    def select(self, tunnels, packet, now):
        return tunnels[0]


LOCAL_ENDPOINT = ipaddress.IPv6Address("2001:db8:a0::1")
REMOTE_ENDPOINT = ipaddress.IPv6Address("2001:db8:b0::1")

TUNNEL = FakeTunnel(
    path_id=5, outer_headers=tunnel_headers(LOCAL_ENDPOINT, REMOTE_ENDPOINT, 40000)
)

REMOTE_HOST_PREFIX = ipaddress.ip_network("2001:db8:20::/48")


def lookup(dst):
    return [TUNNEL] if dst in REMOTE_HOST_PREFIX else []


def data_packet(dst="2001:db8:20::9"):
    return Packet(
        headers=[
            Ipv6Header(
                src=ipaddress.IPv6Address("2001:db8:10::9"),
                dst=ipaddress.IPv6Address(dst),
            ),
            UdpHeader(sport=7, dport=8),
        ],
        payload_bytes=32,
    )


def make_switch(offset=0.0):
    net = Network()
    return net, net.add_switch("sw", clock_offset=offset)


class TestSenderProgram:
    def test_tango_destination_gets_encapsulated(self):
        net, switch = make_switch()
        sender = TangoSenderProgram(lookup, FirstTunnelSelector())
        out = sender(switch, data_packet())
        assert out.tunneled
        assert str(out.dst) == "2001:db8:b0::1"
        assert sender.encapsulated == 1

    def test_non_tango_destination_passes_through(self):
        net, switch = make_switch()
        sender = TangoSenderProgram(lookup, FirstTunnelSelector())
        out = sender(switch, data_packet(dst="2001:db8:99::9"))
        assert not out.tunneled
        assert sender.passed_through == 1

    def test_already_encapsulated_not_double_wrapped(self):
        net, switch = make_switch()
        sender = TangoSenderProgram(lookup, FirstTunnelSelector())
        once = sender(switch, data_packet())
        again = sender(switch, once)
        assert again is once
        assert sender.encapsulated == 1

    def test_timestamp_uses_switch_wall_clock(self):
        net, switch = make_switch(offset=0.5)
        sender = TangoSenderProgram(lookup, FirstTunnelSelector())
        net.sim.advance_to(1.0)
        out = sender(switch, data_packet())
        assert out.tango.timestamp_ns == pytest.approx(1.5e9)

    def test_sequence_numbers_increment_per_path(self):
        net, switch = make_switch()
        sender = TangoSenderProgram(lookup, FirstTunnelSelector())
        seqs = [sender(switch, data_packet()).tango.seq for _ in range(3)]
        assert seqs == [0, 1, 2]

    def test_auth_tag_attached_when_authenticator_present(self):
        net, switch = make_switch()
        auth = TelemetryAuthenticator(b"k" * 16)
        sender = TangoSenderProgram(lookup, FirstTunnelSelector(), authenticator=auth)
        out = sender(switch, data_packet())
        assert out.tango.auth_tag is not None


class TestReceiverProgram:
    def roundtrip(self, sender_offset=0.0, receiver_offset=0.0, **recv_kwargs):
        net, tx = make_switch(offset=sender_offset)
        rx_net = net  # same simulator for clock coherence
        rx = rx_net.add_switch("rx", clock_offset=receiver_offset)
        sender = TangoSenderProgram(lookup, FirstTunnelSelector())
        measurements = []
        receiver = TangoReceiverProgram(
            local_endpoints=[REMOTE_ENDPOINT],
            on_measurement=lambda pid, t, owd, hdr: measurements.append(
                (pid, owd)
            ),
            **recv_kwargs,
        )
        packet = sender(tx, data_packet())
        # Simulate 30 ms of network transit.
        net.sim.advance_to(net.sim.now + 0.030)
        inner = receiver(rx, packet)
        return inner, measurements, receiver

    def test_measures_one_way_delay(self):
        inner, measurements, _ = self.roundtrip()
        assert len(measurements) == 1
        path_id, owd = measurements[0]
        assert path_id == 5
        assert owd == pytest.approx(0.030, abs=1e-6)

    def test_clock_offset_distorts_measurement_constantly(self):
        """Receiver ahead by 2 ms -> every OWD reads 2 ms high."""
        _, measurements, _ = self.roundtrip(receiver_offset=0.002)
        assert measurements[0][1] == pytest.approx(0.032, abs=1e-6)

    def test_decapsulated_inner_returned_for_forwarding(self):
        inner, _, _ = self.roundtrip()
        assert not inner.tunneled
        assert str(inner.dst) == "2001:db8:20::9"

    def test_measurement_annotations_on_inner(self):
        inner, _, _ = self.roundtrip()
        assert inner.meta["tango_path_id"] == 5
        assert inner.meta["tango_owd_s"] == pytest.approx(0.030, abs=1e-6)

    def test_foreign_destination_passes_through(self):
        net, rx = make_switch()
        receiver = TangoReceiverProgram(local_endpoints=[])
        packet = data_packet()
        assert receiver(rx, packet) is packet
        assert receiver.passed_through == 1

    def test_tracker_observes_sequences(self):
        _, _, receiver = self.roundtrip()
        assert receiver.tracker.stats_for(5).received == 1

    def test_authenticated_packet_accepted(self):
        auth = TelemetryAuthenticator(b"s" * 16)
        net, tx = make_switch()
        rx = net.add_switch("rx")
        sender = TangoSenderProgram(lookup, FirstTunnelSelector(), authenticator=auth)
        receiver = TangoReceiverProgram(
            local_endpoints=[REMOTE_ENDPOINT], authenticator=auth
        )
        inner = receiver(rx, sender(tx, data_packet()))
        assert inner is not None
        assert receiver.rejected_auth == 0

    def test_forged_packet_dropped(self):
        """An on-path attacker rewriting the timestamp is caught."""
        auth = TelemetryAuthenticator(b"s" * 16)
        net, tx = make_switch()
        rx = net.add_switch("rx")
        sender = TangoSenderProgram(lookup, FirstTunnelSelector(), authenticator=auth)
        receiver = TangoReceiverProgram(
            local_endpoints=[REMOTE_ENDPOINT], authenticator=auth
        )
        packet = sender(tx, data_packet())
        # Tamper: replace the Tango header timestamp (tag now stale).
        from dataclasses import replace

        packet.replace_header(2, replace(packet.headers[2], timestamp_ns=999))
        assert receiver(rx, packet) is None
        assert receiver.rejected_auth == 1

    def test_unauthenticated_packet_rejected_when_auth_required(self):
        auth = TelemetryAuthenticator(b"s" * 16)
        net, tx = make_switch()
        rx = net.add_switch("rx")
        sender = TangoSenderProgram(lookup, FirstTunnelSelector())  # no auth
        receiver = TangoReceiverProgram(
            local_endpoints=[REMOTE_ENDPOINT], authenticator=auth
        )
        assert receiver(rx, sender(tx, data_packet())) is None
