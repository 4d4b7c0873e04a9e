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

A packet derives what forwarding reads of its stack — the outer IP
header, the header byte count, whether the outer headers form a Tango
tunnel — when the stack is built or edited, not on every read: the
stack is a tuple that only the packet's own methods replace.
"""

from __future__ import annotations

import ipaddress
import itertools
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Any, Iterable, Optional, Union

from ..frozen import slot_init

__all__ = [
    "IPAddress",
    "InternedIPv4Address",
    "InternedIPv6Address",
    "as_address",
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


# The addresses as_address hands out.  The stdlib hashes an address with
# a Python-level ``__hash__`` on every dict or set lookup, and two equal
# addresses built apart compare with a Python-level ``__eq__``; these
# take the stdlib hash once, at construction, and there is one object
# per address, so lookups resolve by identity.  Interned and plain
# addresses of one value are one key in every dict and set, both ways;
# ``repr`` names the plain type, and pickling and copying go back
# through as_address.


class _InternedAddress:
    """The part both interned address types share (see :func:`as_address`)."""

    __slots__ = ()

    def __init__(self, address: Any) -> None:
        super().__init__(address)  # type: ignore[call-arg]
        self._hash = super().__hash__()

    def __hash__(self) -> int:
        return self._hash  # type: ignore[attr-defined]

    def __repr__(self) -> str:
        return f"IPv{self.version}Address({str(self)!r})"  # type: ignore[attr-defined]

    def __reduce__(self) -> tuple[Any, ...]:
        return as_address, (str(self),)


class InternedIPv4Address(_InternedAddress, ipaddress.IPv4Address):
    """An ``IPv4Address`` whose hash is taken once."""

    __slots__ = ("_hash",)


class InternedIPv6Address(_InternedAddress, ipaddress.IPv6Address):
    """An ``IPv6Address`` whose hash is taken once."""

    __slots__ = ("_hash",)


#: Bound on the interning table; a federation of 12 members uses a few
#: hundred distinct addresses.
_ADDRESS_CACHE_SIZE = 8192


@lru_cache(maxsize=_ADDRESS_CACHE_SIZE)
def _interned(version: int, value: int) -> IPAddress:
    """The one interned object of an address, keyed by its integer value
    (a ``str`` key would parse every spelling first)."""
    if version == 6:
        return InternedIPv6Address(value)
    return InternedIPv4Address(value)


def as_address(value: Union[str, IPAddress]) -> IPAddress:
    """Normalize an address argument to its interned ``ip_address``.

    Equal addresses give the *same* (immutable) object, with its hash
    taken once.  A scoped IPv6 address (``fe80::1%eth0``) passes through
    as is: its scope is part of its identity.

    Raises:
        TypeError: ``value`` is neither a string nor an address.
        ValueError: the string is not an address.
    """
    cls = type(value)
    if cls is InternedIPv6Address or cls is InternedIPv4Address:
        return value  # type: ignore[return-value]
    if isinstance(value, str):
        value = ipaddress.ip_address(value)
    # ``_ip`` / ``_scope_id`` are the fields the stdlib's own ``__hash__``
    # reads; going through ``int()`` and ``scope_id`` would cost two
    # Python-level calls per address.
    if isinstance(value, ipaddress.IPv6Address):
        if value._scope_id is not None:
            return value
        return _interned(6, value._ip)
    if isinstance(value, ipaddress.IPv4Address):
        return _interned(4, value._ip)
    raise TypeError(f"an address is a str or an ip_address, got {value!r}")


def _header_address(name: str, value: Any, family: type) -> Any:
    """``value`` interned, or the error naming the header field."""
    if not isinstance(value, family):
        raise TypeError(f"{name} must be an {family.__name__}, got {value!r}")
    return as_address(value)


def _check_hops(name: str, value: Any) -> None:
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"{name} must be an int, got {value!r}")
    if not 0 <= value <= 255:
        raise ValueError(f"{name} must be in 0..255, got {value}")


@dataclass(frozen=True)
class Ipv4Header:
    """Minimal IPv4 header (20 bytes, no options).

    ``src`` and ``dst`` are interned at construction (:func:`as_address`).
    """

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

    def __post_init__(self) -> None:
        _check_hops("ttl", self.ttl)
        for name in ("src", "dst"):
            address = _header_address(name, getattr(self, name), ipaddress.IPv4Address)
            object.__setattr__(self, name, address)

    @property
    def version(self) -> int:
        return 4

    def decremented(self) -> "Ipv4Header":
        """This header with ``ttl`` one lower, built on first use and then
        kept here: every packet sharing this header shares its successor,
        and the successor shares this header's address objects."""
        successor = self._successor
        if successor is None:
            successor = Ipv4Header(self.src, self.dst, self.ttl - 1, self.protocol)
            object.__setattr__(self, "_successor", successor)
        return successor


@dataclass(frozen=True)
class Ipv6Header:
    """Minimal IPv6 header (40 bytes).

    Tango's prototype announces IPv6 /48s from the edge, so IPv6 is the
    default address family throughout this repository.  ``src`` and
    ``dst`` are interned at construction (:func:`as_address`).
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

    def __post_init__(self) -> None:
        _check_hops("hop_limit", self.hop_limit)
        for name in ("src", "dst"):
            address = _header_address(name, getattr(self, name), ipaddress.IPv6Address)
            object.__setattr__(self, name, address)

    @property
    def version(self) -> int:
        return 6

    def decremented(self) -> "Ipv6Header":
        """This header with ``hop_limit`` one lower, built on first use and
        then kept here: every packet sharing this header shares its
        successor, and the successor shares this header's address
        objects."""
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
            if isinstance(port, bool) or not isinstance(port, int):
                raise TypeError(f"{name} must be an int, got {port!r}")
            if not 0 <= port <= 0xFFFF:
                raise ValueError(f"{name} out of range: {port}")


@slot_init
@dataclass(frozen=True, slots=True)
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
IpHeader = Union[Ipv4Header, Ipv6Header]
_IP_HEADERS = (Ipv4Header, Ipv6Header)


@dataclass(frozen=True)
class FiveTuple:
    """The classic ECMP hash input."""

    src: str
    dst: str
    protocol: int
    sport: int
    dport: int


_packet_ids = itertools.count(1)


class Packet:
    """A simulated packet: a header stack plus an opaque payload size.

    The header stack is ordered outermost-first, like bytes on the wire.
    Forwarding elements only ever look at ``outer_ip`` (the first IP
    header); Tango programs encapsulate and decapsulate.

    The stack is a tuple that changes only through this class's methods,
    and each of them keeps the stack's facts — ``outer_ip``, the header
    byte count behind ``wire_bytes``, ``tunneled`` — equal to what
    deriving them from the stack would give.  Building a packet, ``pop``
    and ``replace_header`` derive them from scratch; ``push`` reads only
    the pushed headers; ``encapsulate`` takes them from the tunnel's
    three header types and saves the inner stack's, which
    ``decapsulate`` restores; ``decrement_ttl`` changes only the outer
    IP header.

    Attributes:
        headers: outermost-first header tuple (read-only).
        tunneled: True when the outer headers form a Tango tunnel.  A
            plain attribute, read per packet by the switch programs;
            only this class writes it.
        payload_bytes: size of the application payload.
        flow_label: opaque application flow identifier used by traffic
            generators and the TCP model to group packets.
        created_at: simulation time the packet entered the network.
        meta: free-form annotations (measurements, trace tags).  Kept in a
            dict so substrates stay decoupled.
    """

    __slots__ = (
        "_headers",
        "_outer_ip",
        "_header_bytes",
        "tunneled",
        "_inner",
        "payload_bytes",
        "flow_label",
        "created_at",
        "meta",
        "packet_id",
    )

    def __init__(
        self,
        headers: Iterable[Header],
        payload_bytes: int = 0,
        flow_label: int = 0,
        created_at: float = 0.0,
        meta: Optional[dict] = None,
        packet_id: Optional[int] = None,
    ) -> None:
        if isinstance(payload_bytes, bool) or not isinstance(payload_bytes, int):
            raise TypeError(f"payload_bytes must be an int, got {payload_bytes!r}")
        if payload_bytes < 0:
            raise ValueError(f"payload_bytes must be >= 0, got {payload_bytes}")
        self._restack(headers)
        self.payload_bytes = payload_bytes
        self.flow_label = flow_label
        self.created_at = created_at
        self.meta = {} if meta is None else meta
        self.packet_id = next(_packet_ids) if packet_id is None else packet_id

    def __repr__(self) -> str:
        return (
            f"Packet(headers={self._headers!r}, payload_bytes={self.payload_bytes}, "
            f"flow_label={self.flow_label}, created_at={self.created_at}, "
            f"meta={self.meta!r}, packet_id={self.packet_id})"
        )

    # -- header stack operations -------------------------------------------

    def _restack(self, headers: Iterable[Header]) -> None:
        """Install ``headers``, deriving their facts from scratch."""
        self._headers = ()
        self._outer_ip = None
        self._header_bytes = 0
        self.push(*headers)

    def push(self, *headers: Header) -> None:
        """Add ``headers`` as the new outermost headers, outermost first.

        Only the pushed headers are read: the stack below keeps its facts.
        The stack is tunneled when its outer three headers are IPv6 (the
        prototype tunnels over IPv6), UDP to :data:`TANGO_UDP_PORT` and
        Tango.
        """
        outer_ip = self._outer_ip
        total = self._header_bytes
        for header in reversed(headers):
            total += header.wire_bytes
            if isinstance(header, _IP_HEADERS):
                outer_ip = header
        stack = headers + self._headers
        self._headers = stack
        self._outer_ip = outer_ip
        self._header_bytes = total
        self.tunneled = (
            len(stack) >= 3
            and isinstance(stack[0], Ipv6Header)
            and isinstance(stack[1], UdpHeader)
            and stack[1].dport == TANGO_UDP_PORT
            and isinstance(stack[2], TangoHeader)
        )
        self._inner = None

    def pop(self) -> Header:
        """Remove and return the outermost header."""
        headers = self._headers
        if not headers:
            raise IndexError("pop from empty header stack")
        self._restack(headers[1:])
        return headers[0]

    def replace_header(self, index: int, header: Header) -> None:
        """Put ``header`` in place of the header at ``index``."""
        headers = list(self._headers)
        index = range(len(headers))[index]
        headers[index] = header
        inner = self._inner
        self._restack(headers)
        if index < 3:
            # The stack below a tunnel's three headers is unchanged.
            self._inner = inner

    def encapsulate(self, outer: IpHeader, udp: UdpHeader, tango: TangoHeader) -> None:
        """Push a tunnel's three headers, saving the inner stack's facts
        for :meth:`decapsulate`.  The tunnel's own facts follow from its
        header types: ``outer`` is the outer IP header, and the packet is
        tunneled when it is IPv6 and ``udp`` goes to the Tango port.

        Raises:
            TypeError: the headers are not an IP, a UDP and a Tango header.
        """
        if not (
            isinstance(outer, _IP_HEADERS)
            and isinstance(udp, UdpHeader)
            and isinstance(tango, TangoHeader)
        ):
            raise TypeError("a tunnel is an IP, a UDP and a Tango header")
        self._inner = (
            self._headers,
            self._outer_ip,
            self._header_bytes,
            self.tunneled,
            self._inner,
        )
        self._headers = (outer, udp, tango) + self._headers
        self._outer_ip = outer
        self._header_bytes += outer.wire_bytes + udp.wire_bytes + tango.wire_bytes
        self.tunneled = isinstance(outer, Ipv6Header) and udp.dport == TANGO_UDP_PORT

    def decapsulate(self) -> tuple[Header, ...]:
        """Pop a tunnel's three headers, outermost first, restoring the
        inner stack's saved facts.

        Raises:
            ValueError: the outer headers are not a Tango tunnel.
        """
        if not self.tunneled:
            raise ValueError(f"packet {self.packet_id} is not tunneled")
        headers = self._headers
        inner = self._inner
        if inner is None:
            self._restack(headers[3:])
        else:
            (
                self._headers,
                self._outer_ip,
                self._header_bytes,
                self.tunneled,
                self._inner,
            ) = inner
        return headers[:3]

    # -- convenience accessors ----------------------------------------------

    @property
    def headers(self) -> tuple[Header, ...]:
        """The header stack, outermost first."""
        return self._headers

    @property
    def outer_ip(self) -> IpHeader:
        """The outermost IP header — what routers route on."""
        ip = self._outer_ip
        if ip is None:
            raise ValueError("packet has no IP header")
        return ip

    @property
    def dst(self) -> IPAddress:
        """Destination address of the outermost IP header."""
        ip = self._outer_ip
        if ip is None:
            raise ValueError("packet has no IP header")
        return ip.dst

    @property
    def src(self) -> IPAddress:
        """Source address of the outermost IP header."""
        return self.outer_ip.src

    def find(self, header_type: type) -> Optional[Header]:
        """First header of the given type, or None."""
        for header in self._headers:
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
        return self.payload_bytes + self._header_bytes

    def five_tuple(self) -> FiveTuple:
        """5-tuple of the outermost IP (+UDP if present) headers.

        This is what an ECMP hash in the core sees.  Note that an
        encapsulated Tango packet exposes only the *outer* tunnel 5-tuple —
        precisely the mechanism the paper uses to defeat unpredictable
        ECMP spraying.
        """
        ip = self.outer_ip
        headers = self._headers
        ip_index = headers.index(ip)
        sport = dport = 0
        if ip_index + 1 < len(headers):
            nxt = headers[ip_index + 1]
            if isinstance(nxt, UdpHeader):
                sport, dport = nxt.sport, nxt.dport
        protocol = ip.protocol if isinstance(ip, Ipv4Header) else ip.next_header
        return FiveTuple(str(ip.src), str(ip.dst), protocol, sport, dport)

    def copy(self) -> "Packet":
        """Deep-enough copy: fresh meta dict, new packet id.

        Headers themselves are immutable so sharing them is safe.
        """
        return Packet(
            headers=self._headers,
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
        ip = self._outer_ip
        if ip is None:
            raise ValueError("packet has no IP header")
        if isinstance(ip, Ipv4Header):
            if ip.ttl <= 1:
                raise ValueError(f"TTL expired for packet {self.packet_id}")
        elif ip.hop_limit <= 1:
            raise ValueError(f"hop limit expired for packet {self.packet_id}")
        successor = ip._successor or ip.decremented()
        headers = self._headers
        if headers[0] is ip:
            self._headers = (successor,) + headers[1:]
        else:
            index = headers.index(ip)
            self._headers = headers[:index] + (successor,) + headers[index + 1 :]
            if index >= 3:
                self._inner = None
        self._outer_ip = successor
        return self
