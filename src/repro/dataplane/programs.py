"""The Tango switch programs (eBPF stand-ins).

Two programs, exactly as in the paper's prototype (Section 4.2):

* :class:`TangoSenderProgram` — attached at *egress* of the border switch.
  Packets destined to the remote edge's host prefix are encapsulated into
  the tunnel chosen by the installed path selector, stamped with the local
  wall-clock time and a per-tunnel sequence number.
* :class:`TangoReceiverProgram` — attached at *ingress*.  Tango tunnel
  packets addressed to a local tunnel endpoint are measured (one-way delay
  = local wall clock minus carried timestamp — distorted by the constant
  clock offset, which relative comparisons cancel), tracked for loss and
  reordering, decapsulated, and forwarded on to the end host.

Both programs are plain callables matching the
:class:`~repro.netsim.node.ProgrammableSwitch` program signature, and both
run on *every* packet: Tango needs no probe traffic when data is flowing.
"""

from __future__ import annotations

import ipaddress
from typing import Callable, Iterable, Optional, Protocol

from ..netsim.node import ProgrammableSwitch
from ..netsim.packet import Ipv6Header, Packet, TangoHeader, UdpHeader
from ..telemetry.auth import TelemetryAuthenticator
from .encap import decapsulate
from .seqnum import SequenceStamper, SequenceTracker

__all__ = [
    "Tunnel",
    "TunnelLookup",
    "PathSelector",
    "MeasurementSink",
    "TangoSenderProgram",
    "TangoReceiverProgram",
]


class Tunnel(Protocol):
    """What the data plane needs to know about a tunnel (duck-typed;
    the concrete class lives in :mod:`repro.core.tunnels`)."""

    path_id: int
    #: The tunnel's shared outer headers
    #: (:func:`~repro.dataplane.encap.tunnel_headers`).
    outer_headers: tuple[Ipv6Header, UdpHeader]


#: Looks up the tunnels available toward a destination host address;
#: returns an empty sequence for non-Tango destinations.
TunnelLookup = Callable[[ipaddress.IPv6Address], list]


class PathSelector(Protocol):
    """The routing-decision hook (paper component 3: "logic for how a
    forwarding decision should be made based on path performance")."""

    def select(self, tunnels: list, packet: Packet, now: float) -> Tunnel:
        """Choose one tunnel from ``tunnels`` for ``packet``."""


#: Measurement delivery: (path_id, receive_wall_time_s, one_way_delay_s, header).
MeasurementSink = Callable[[int, float, float, TangoHeader], None]


class TangoSenderProgram:
    """Egress program: tunnel selection + timestamping + encapsulation."""

    def __init__(
        self,
        tunnel_lookup: TunnelLookup,
        selector: PathSelector,
        stamper: Optional[SequenceStamper] = None,
        authenticator: Optional[TelemetryAuthenticator] = None,
    ) -> None:
        self.tunnel_lookup = tunnel_lookup
        self.selector = selector
        self.stamper = stamper or SequenceStamper()
        self.authenticator = authenticator
        self.encapsulated = 0
        self.passed_through = 0

    def __call__(self, switch: ProgrammableSwitch, packet: Packet) -> Optional[Packet]:
        if packet.tunneled:
            # Already tunneled (e.g. re-forwarded transit traffic).
            self.passed_through += 1
            return packet
        dst = packet.dst
        if not isinstance(dst, ipaddress.IPv6Address):
            self.passed_through += 1
            return packet
        tunnels = self.tunnel_lookup(dst)
        if not tunnels:
            # Not a Tango destination: normal BGP forwarding applies.
            self.passed_through += 1
            return packet
        tunnel = self.selector.select(tunnels, packet, switch.sim.now)
        path_id = tunnel.path_id
        seq = self.stamper.next_for(path_id)
        timestamp_ns = switch.clock.now_ns()
        auth_tag = None
        if self.authenticator is not None:
            auth_tag = self.authenticator.tag(timestamp_ns, seq, path_id)
        outer, udp = tunnel.outer_headers
        tango = TangoHeader(timestamp_ns, seq, path_id, auth_tag)
        packet.encapsulate(outer, udp, tango)
        self.encapsulated += 1
        return packet


class TangoReceiverProgram:
    """Ingress program: measurement extraction + decapsulation."""

    def __init__(
        self,
        local_endpoints: Iterable[ipaddress.IPv6Address],
        on_measurement: Optional[MeasurementSink] = None,
        tracker: Optional[SequenceTracker] = None,
        authenticator: Optional[TelemetryAuthenticator] = None,
    ) -> None:
        self.local_endpoints = set(local_endpoints)
        self.on_measurement = on_measurement
        self.tracker = tracker or SequenceTracker()
        self.authenticator = authenticator
        self.decapsulated = 0
        self.rejected_auth = 0
        self.passed_through = 0

    def add_endpoint(self, address: ipaddress.IPv6Address) -> None:
        """Register one more local tunnel endpoint address."""
        self.local_endpoints.add(address)

    def __call__(self, switch: ProgrammableSwitch, packet: Packet) -> Optional[Packet]:
        if not packet.tunneled or packet.dst not in self.local_endpoints:
            self.passed_through += 1
            return packet
        inner, tango, _outer = decapsulate(packet)
        if self.authenticator is not None and not self.authenticator.verify(
            tango.timestamp_ns, tango.seq, tango.path_id, tango.auth_tag
        ):
            # Forged or tampered telemetry (Section 6): drop and count.
            self.rejected_auth += 1
            return None
        receive_wall = switch.clock.now()
        one_way_delay = receive_wall - tango.timestamp_ns * 1e-9
        self.tracker.observe(tango.path_id, tango.seq)
        if self.on_measurement is not None:
            self.on_measurement(tango.path_id, receive_wall, one_way_delay, tango)
        inner.meta["tango_owd_s"] = one_way_delay
        inner.meta["tango_path_id"] = tango.path_id
        inner.meta["tango_seq"] = tango.seq
        self.decapsulated += 1
        return inner
