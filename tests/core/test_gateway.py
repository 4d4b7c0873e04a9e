"""Tests for the Tango gateway wiring."""

import ipaddress

import pytest

from repro.core.config import EdgeConfig
from repro.core.gateway import TangoGateway
from repro.core.policy import StaticSelector
from repro.core.tunnels import TangoTunnel
from repro.netsim.topology import Network
from repro.netsim.packet import Ipv6Header, Packet, TangoHeader, UdpHeader


def make_edge(name="ny", offset=0.0):
    return EdgeConfig(
        name=name,
        tenant_router=f"tango-{name}",
        tenant_asn=64512,
        provider_router=f"vultr-{name}",
        provider_asn=20473,
        host_prefix=ipaddress.IPv6Network("2001:db8:20::/48"),
        route_prefixes=(
            ipaddress.IPv6Network("2001:db8:b0::/48"),
            ipaddress.IPv6Network("2001:db8:b1::/48"),
        ),
        clock_offset_s=offset,
    )


def make_gateway(auth_key=b""):
    net = Network()
    switch = net.add_switch("gw")
    gateway = TangoGateway(switch, make_edge(), auth_key=auth_key)
    return net, switch, gateway


def make_tunnel(path_id=0):
    return TangoTunnel(
        path_id=path_id,
        label="NTT",
        local_endpoint=ipaddress.IPv6Address("2001:db8:b0::1"),
        remote_endpoint=ipaddress.IPv6Address("2001:db8:c0::1"),
        remote_prefix=ipaddress.IPv6Network("2001:db8:c0::/48"),
    )


class TestWiring:
    def test_programs_attached_to_switch(self):
        net, switch, gateway = make_gateway()
        assert gateway.receiver in switch.ingress_programs
        assert gateway.sender in switch.egress_programs

    def test_local_endpoints_registered_from_config(self):
        net, switch, gateway = make_gateway()
        assert (
            ipaddress.IPv6Address("2001:db8:b0::1") in gateway.receiver.local_endpoints
        )
        assert (
            ipaddress.IPv6Address("2001:db8:b1::1") in gateway.receiver.local_endpoints
        )

    def test_install_tunnels_populates_table(self):
        net, switch, gateway = make_gateway()
        remote_host = ipaddress.IPv6Network("2001:db8:30::/48")
        gateway.install_tunnels(remote_host, [make_tunnel()])
        assert len(gateway.tunnel_table) == 1
        hits = gateway.tunnel_table.tunnels_for(
            ipaddress.IPv6Address("2001:db8:30::7")
        )
        assert len(hits) == 1

    def test_set_selector_swaps_policy(self):
        net, switch, gateway = make_gateway()
        selector = StaticSelector(0)
        gateway.set_selector(selector)
        assert gateway.selector is selector

    def test_auth_key_builds_authenticators(self):
        net, switch, gateway = make_gateway(auth_key=b"k" * 16)
        assert gateway.authenticator is not None
        assert gateway.receiver.authenticator is gateway.authenticator
        assert gateway.sender.authenticator is gateway.authenticator


class TestDataPath:
    def test_outbound_traffic_encapsulated_and_forwarded(self):
        net, switch, gateway = make_gateway()
        remote_host = ipaddress.IPv6Network("2001:db8:30::/48")
        gateway.install_tunnels(remote_host, [make_tunnel()])
        sink = net.add_host("sink")
        wan = net.add_link("wan", switch, sink, delay_s=0.010)
        switch.fib.add_route("2001:db8:c0::/48", wan)
        packet = Packet(
            headers=[
                Ipv6Header(
                    src=ipaddress.IPv6Address("2001:db8:20::9"),
                    dst=ipaddress.IPv6Address("2001:db8:30::9"),
                ),
                UdpHeader(sport=1, dport=2),
            ]
        )
        net.inject(switch, packet)
        net.run()
        assert sink.stats.received == 1
        assert sink.received_packets[0].tunneled

    def test_inbound_measurement_recorded(self):
        net, switch, gateway = make_gateway()
        # Build an encapsulated packet addressed to our endpoint.
        from repro.dataplane.encap import encapsulate, tunnel_headers

        inner = Packet(
            headers=[
                Ipv6Header(
                    src=ipaddress.IPv6Address("2001:db8:30::9"),
                    dst=ipaddress.IPv6Address("2001:db8:20::9"),
                ),
            ]
        )
        encapsulate(
            inner,
            tunnel_headers("2001:db8:c0::1", "2001:db8:b0::1"),
            TangoHeader(timestamp_ns=0, seq=0, path_id=5),
        )
        net.sim.advance_to(0.030)
        host = net.add_host("host")
        edge_link = net.add_link("edge", switch, host, delay_s=0.0001)
        switch.fib.add_route("2001:db8:20::/48", edge_link)
        net.inject(switch, inner)
        net.run()
        assert gateway.inbound.path_ids() == [5]
        owd = gateway.inbound.series(5).values[0]
        assert owd == pytest.approx(0.030, abs=1e-6)
        assert host.stats.received == 1

    def test_tunnel_report_rows(self):
        net, switch, gateway = make_gateway()
        gateway.install_tunnels(
            ipaddress.IPv6Network("2001:db8:30::/48"), [make_tunnel()]
        )
        rows = gateway.tunnel_report()
        assert rows[0]["label"] == "NTT"
        assert rows[0]["outbound_delay_ms"] is None  # nothing mirrored yet
