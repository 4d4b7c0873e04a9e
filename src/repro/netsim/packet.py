"""Packets and header stacks.

The Tango data plane works by *encapsulation*: a data packet destined to a
host prefix is wrapped in an outer IP header (whose destination address
selects the wide-area route, because each Tango prefix propagates over a
distinct AS path), a UDP header (whose fixed 5-tuple pins ECMP behaviour),
and a Tango header carrying a wall-clock timestamp and per-tunnel sequence
number.

We model headers as small frozen dataclasses pushed onto / popped off a
packet's header stack, mirroring how a P4 or eBPF program parses and edits a
real packet.  Header sizes are bytes-on-the-wire accurate so that
serialization overhead computations (tunnel tax, MTU checks) are honest.
"""

from __future__ import annotations

import ipaddress
import itertools
from dataclasses import dataclass, field
from typing import Optional, Union

__all__ = [
    "IPAddress",
    "Ipv4Header",
    "Ipv6Header",
    "UdpHeader",
    "TangoHeader",
    "Header",
    "Packet",
    "FiveTuple",
    "TANGO_UDP_PORT",
]

IPAddress = Union[ipaddress.IPv4Address, ipaddress.IPv6Address]

#: UDP destination port Tango tunnels use.  Any fixed value works; what
#: matters is that all packets of a tunnel share one 5-tuple so ECMP hashes
#: them onto a single physical path (paper Section 3).
TANGO_UDP_PORT = 6112


@dataclass(frozen=True)
class Ipv4Header:
    """Minimal IPv4 header (20 bytes, no options)."""

    src: ipaddress.IPv4Address
    dst: ipaddress.IPv4Address
    ttl: int = 64
    protocol: int = 17
    _successor: Optional["Ipv4Header"] = field(
        default=None, init=False, repr=False, compare=False
    )

    WIRE_BYTES = 20
    #: On-wire size of this header; every header type answers ``wire_bytes``.
    wire_bytes = WIRE_BYTES

    @property
    def version(self) -> int:
        return 4

    def decremented(self) -> "Ipv4Header":
        """This header with ``ttl`` one lower, built on first use and then
        kept here: every packet sharing this header shares its successor."""
        successor = self._successor
        if successor is None:
            successor = Ipv4Header(self.src, self.dst, self.ttl - 1, self.protocol)
            object.__setattr__(self, "_successor", successor)
        return successor


@dataclass(frozen=True)
class Ipv6Header:
    """Minimal IPv6 header (40 bytes).

    Tango's prototype announces IPv6 /48s from the edge, so IPv6 is the
    default address family throughout this repository.
    """

    src: ipaddress.IPv6Address
    dst: ipaddress.IPv6Address
    hop_limit: int = 64
    next_header: int = 17
    _successor: Optional["Ipv6Header"] = field(
        default=None, init=False, repr=False, compare=False
    )

    WIRE_BYTES = 40
    wire_bytes = WIRE_BYTES

    @property
    def version(self) -> int:
        return 6

    def decremented(self) -> "Ipv6Header":
        """This header with ``hop_limit`` one lower, built on first use and
        then kept here: every packet sharing this header shares its
        successor."""
        successor = self._successor
        if successor is None:
            successor = Ipv6Header(
                self.src, self.dst, self.hop_limit - 1, self.next_header
            )
            object.__setattr__(self, "_successor", successor)
        return successor


@dataclass(frozen=True)
class UdpHeader:
    """UDP header (8 bytes).  Present in every Tango encapsulation."""

    sport: int
    dport: int

    WIRE_BYTES = 8
    wire_bytes = WIRE_BYTES

    def __post_init__(self) -> None:
        for name, port in (("sport", self.sport), ("dport", self.dport)):
            if not 0 <= port <= 0xFFFF:
                raise ValueError(f"{name} out of range: {port}")


@dataclass(frozen=True)
class TangoHeader:
    """The Tango telemetry header piggybacked on data packets.

    Attributes:
        timestamp_ns: sender wall-clock timestamp (nanoseconds).  The
            receiving switch subtracts this from its own wall clock to get
            a (constant-offset-distorted) one-way delay.
        seq: per-tunnel sequence number, enabling loss and reordering
            detection without probing (paper Sections 3 and 6).
        path_id: identifier of the Tango tunnel/path the sender chose;
            lets the receiver attribute the measurement to a path even if
            tunnels share an egress prefix.
        auth_tag: optional truncated MAC over (timestamp, seq, path_id);
            models the "trustworthy telemetry" extension of Section 6.
    """

    timestamp_ns: int
    seq: int
    path_id: int
    auth_tag: Optional[bytes] = None

    #: 8B timestamp + 4B seq + 2B path id + 2B flags/reserved.
    WIRE_BYTES = 16
    #: The largest ``path_id`` the 2-byte field carries.  Allocators
    #: check their id blocks against it once; packets are not checked.
    MAX_PATH_ID = 0xFFFF
    #: Truncated MAC length when authentication is enabled.
    AUTH_TAG_BYTES = 8

    @property
    def wire_bytes(self) -> int:
        """Actual on-wire size including the optional auth tag."""
        if self.auth_tag is None:
            return self.WIRE_BYTES
        return self.WIRE_BYTES + self.AUTH_TAG_BYTES


Header = Union[Ipv4Header, Ipv6Header, UdpHeader, TangoHeader]


@dataclass(frozen=True)
class FiveTuple:
    """The classic ECMP hash input."""

    src: str
    dst: str
    protocol: int
    sport: int
    dport: int


_packet_ids = itertools.count(1)


@dataclass
class Packet:
    """A simulated packet: a header stack plus an opaque payload size.

    The header stack is ordered outermost-first, like bytes on the wire.
    Forwarding elements only ever look at ``outer_ip`` (index of the first
    IP header); Tango programs push and pop encapsulation headers.

    Attributes:
        headers: outermost-first header list.
        payload_bytes: size of the application payload.
        flow_label: opaque application flow identifier used by traffic
            generators and the TCP model to group packets.
        created_at: simulation time the packet entered the network.
        meta: free-form annotations (measurements, trace tags).  Kept in a
            dict so substrates stay decoupled.
    """

    headers: list[Header]
    payload_bytes: int = 0
    flow_label: int = 0
    created_at: float = 0.0
    meta: dict = field(default_factory=dict)
    packet_id: int = field(default_factory=lambda: next(_packet_ids))

    def __post_init__(self) -> None:
        if self.payload_bytes < 0:
            raise ValueError(f"payload_bytes must be >= 0, got {self.payload_bytes}")

    # -- header stack operations -------------------------------------------

    def push(self, *headers: Header) -> None:
        """Encapsulate: add ``headers`` as the new outermost headers,
        outermost first."""
        self.headers[0:0] = headers

    def pop(self) -> Header:
        """Decapsulate: remove and return the outermost header."""
        if not self.headers:
            raise IndexError("pop from empty header stack")
        return self.headers.pop(0)

    # -- convenience accessors ----------------------------------------------

    @property
    def outer_ip(self) -> Union[Ipv4Header, Ipv6Header]:
        """The outermost IP header — what routers route on."""
        for header in self.headers:
            if isinstance(header, (Ipv4Header, Ipv6Header)):
                return header
        raise ValueError("packet has no IP header")

    @property
    def dst(self) -> IPAddress:
        """Destination address of the outermost IP header."""
        return self.outer_ip.dst

    @property
    def src(self) -> IPAddress:
        """Source address of the outermost IP header."""
        return self.outer_ip.src

    def find(self, header_type: type) -> Optional[Header]:
        """First header of the given type, or None."""
        for header in self.headers:
            if isinstance(header, header_type):
                return header
        return None

    @property
    def tango(self) -> Optional[TangoHeader]:
        """The outermost Tango header if present."""
        header = self.find(TangoHeader)
        return header if isinstance(header, TangoHeader) else None

    @property
    def wire_bytes(self) -> int:
        """Total serialized size: headers + payload."""
        total = self.payload_bytes
        for header in self.headers:
            total += header.wire_bytes
        return total

    def five_tuple(self) -> FiveTuple:
        """5-tuple of the outermost IP (+UDP if present) headers.

        This is what an ECMP hash in the core sees.  Note that an
        encapsulated Tango packet exposes only the *outer* tunnel 5-tuple —
        precisely the mechanism the paper uses to defeat unpredictable
        ECMP spraying.
        """
        ip = self.outer_ip
        ip_index = self.headers.index(ip)
        sport = dport = 0
        if ip_index + 1 < len(self.headers):
            nxt = self.headers[ip_index + 1]
            if isinstance(nxt, UdpHeader):
                sport, dport = nxt.sport, nxt.dport
        protocol = ip.protocol if isinstance(ip, Ipv4Header) else ip.next_header
        return FiveTuple(str(ip.src), str(ip.dst), protocol, sport, dport)

    def copy(self) -> "Packet":
        """Deep-enough copy: fresh header list and meta dict, new packet id.

        Headers themselves are immutable so sharing them is safe.
        """
        return Packet(
            headers=list(self.headers),
            payload_bytes=self.payload_bytes,
            flow_label=self.flow_label,
            created_at=self.created_at,
            meta=dict(self.meta),
        )

    def decrement_ttl(self) -> "Packet":
        """Return a packet whose outer IP TTL/hop-limit is one lower.

        Raises:
            ValueError: when the TTL would drop to zero (packet must be
                discarded by the caller; loops surface loudly, not silently).
        """
        ip = self.outer_ip
        if isinstance(ip, Ipv4Header):
            if ip.ttl <= 1:
                raise ValueError(f"TTL expired for packet {self.packet_id}")
        elif ip.hop_limit <= 1:
            raise ValueError(f"hop limit expired for packet {self.packet_id}")
        self.headers[self.headers.index(ip)] = ip.decremented()
        return self
