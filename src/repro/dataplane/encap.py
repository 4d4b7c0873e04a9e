"""Tango tunnel encapsulation and decapsulation.

The encapsulation format follows the paper's Section 3/4.2 exactly: an
outer IP header whose *destination address selects the wide-area route*
(each Tango prefix propagates over a distinct AS path), a UDP header with
a fixed 5-tuple (pinning ECMP), and a Tango header carrying the sender
wall-clock timestamp, a per-tunnel sequence number, and a path id.
"""

from __future__ import annotations

import ipaddress
from typing import Union

from ..netsim.packet import (
    TANGO_UDP_PORT,
    Ipv6Header,
    Packet,
    TangoHeader,
    UdpHeader,
)

__all__ = [
    "TunnelDecapError",
    "encapsulate",
    "tunnel_headers",
    "decapsulate",
    "TUNNEL_OVERHEAD_BYTES",
]

#: Fixed per-packet tunnel tax for IPv6 outer encapsulation (40 + 8 + 16).
TUNNEL_OVERHEAD_BYTES = (
    Ipv6Header.WIRE_BYTES + UdpHeader.WIRE_BYTES + TangoHeader.WIRE_BYTES
)


class TunnelDecapError(ValueError):
    """Raised when a packet presented for decapsulation is not a
    well-formed Tango tunnel packet."""


def tunnel_headers(
    src: Union[str, ipaddress.IPv6Address],
    dst: Union[str, ipaddress.IPv6Address],
    sport: int = TANGO_UDP_PORT,
    dport: int = TANGO_UDP_PORT,
) -> tuple[Ipv6Header, UdpHeader]:
    """A tunnel's outer IPv6 and UDP headers, built once per tunnel.

    Headers are frozen, so every packet of the tunnel shares the pair.

    Args:
        src: tunnel source — an address in the local edge's route prefix
            for this path.
        dst: tunnel destination — an address in the remote edge's route
            prefix for this path; this choice *is* the routing decision.
        sport, dport: tunnel UDP ports.  All packets of a tunnel share
            them, so core ECMP sees one flow.
    """
    return (
        Ipv6Header(
            src=ipaddress.IPv6Address(src) if isinstance(src, str) else src,
            dst=ipaddress.IPv6Address(dst) if isinstance(dst, str) else dst,
        ),
        UdpHeader(sport=sport, dport=dport),
    )


def encapsulate(
    packet: Packet,
    outer: tuple[Ipv6Header, UdpHeader],
    tango: TangoHeader,
) -> Packet:
    """Wrap ``packet`` in a Tango tunnel.

    Args:
        packet: the inner (host-addressed) packet; mutated in place.
        outer: the tunnel's shared outer headers (:func:`tunnel_headers`).
        tango: this packet's Tango header — timestamp, per-tunnel
            sequence number, path id and optional authenticated-telemetry
            MAC.

    Returns:
        The same packet object with three headers pushed.
    """
    packet.encapsulate(outer[0], outer[1], tango)
    return packet


def decapsulate(packet: Packet) -> tuple[Packet, TangoHeader, Ipv6Header]:
    """Strip the tunnel headers, returning (inner packet, tango, outer IP).

    Raises:
        TunnelDecapError: if the packet is not Tango-encapsulated.
    """
    if not packet.tunneled:
        raise TunnelDecapError(
            f"packet {packet.packet_id} is not a Tango tunnel packet: "
            f"{[type(h).__name__ for h in packet.headers[:3]]}"
        )
    outer, _udp, tango = packet.decapsulate()
    return packet, tango, outer  # type: ignore[return-value]
