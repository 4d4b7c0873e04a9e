"""Workload generators.

The paper generates measurement traffic by sending one probe per path every
10 ms for eight days; application traffic in the motivating example is
drone telemetry (small, periodic, latency-critical).  This module provides
those workloads.
"""

from __future__ import annotations

import ipaddress
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

from ..validate import positive
from .events import PeriodicTask, Simulator
from .packet import Ipv6Header, Packet, UdpHeader

__all__ = [
    "PacketFactory",
    "ProbeGenerator",
    "DroneTelemetryWorkload",
]


@dataclass
class PacketFactory:
    """Builds plain (pre-encapsulation) data packets for a host pair.

    The addresses are parsed and the header stack built once, at
    construction: headers are frozen and a packet's stack is a tuple, so
    every packet of the factory shares them, while each packet gets its
    own ``meta`` dict.
    """

    src: str
    dst: str
    sport: int = 40000
    dport: int = 50000
    payload_bytes: int = 64
    flow_label: int = 0
    _headers: tuple[Ipv6Header, UdpHeader] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        self._headers = (
            Ipv6Header(
                src=ipaddress.IPv6Address(self.src),
                dst=ipaddress.IPv6Address(self.dst),
            ),
            UdpHeader(sport=self.sport, dport=self.dport),
        )

    def build(self) -> Packet:
        """A fresh packet with an IPv6+UDP header stack."""
        return Packet(
            headers=self._headers,
            payload_bytes=self.payload_bytes,
            flow_label=self.flow_label,
        )


class ProbeGenerator:
    """Constant-rate probe streams: every ``interval`` seconds, one packet
    from each factory, in factory order.

    This is the paper's measurement workload ("we ran a ping along each
    path every 10ms"), except that Tango needs no ping: any packet gets
    timestamped by the sender-side program, so probes here are ordinary
    small UDP packets.  One generator carries all of an edge's per-path
    streams as one heap event per round; a one-factory generator is one
    plain stream.
    """

    def __init__(
        self,
        sim: Simulator,
        factories: Sequence[PacketFactory],
        send: Callable[[Packet], None],
        interval: float = 0.010,
    ) -> None:
        positive("interval", interval)
        self._sim = sim
        self._factories = tuple(factories)
        self._send = send
        self._interval = interval
        self._task: Optional[PeriodicTask] = None
        #: Packets sent, over all factories.
        self.sent = 0
        #: Packets counted by :meth:`count_delivery`, a far host's sink.
        self.delivered = 0

    def start(self, at: Optional[float] = None, until: Optional[float] = None) -> None:
        """Begin emitting probes (immediately or at ``at``)."""
        if self._task is not None:
            raise RuntimeError("probe generator already started")
        self._task = self._sim.call_every(
            self._interval, self._emit, start=at, end=until
        )

    def stop(self) -> None:
        """Stop emitting."""
        if self._task is not None:
            self._task.stop()
            self._task = None

    def count_delivery(self, packet: Packet, now: float) -> None:
        """A host sink that counts one delivered probe."""
        self.delivered += 1

    def _emit(self) -> None:
        now = self._sim.now
        send = self._send
        for factory in self._factories:
            packet = factory.build()
            packet.created_at = now
            self.sent += 1
            send(packet)


#: Every ``BURST_EVERY``-th drone packet carries ``BURST_MULTIPLIER``
#: times the payload.
BURST_EVERY = 50
BURST_MULTIPLIER = 10


class DroneTelemetryWorkload:
    """The paper's motivating application (Section 2.2).

    An access network (ASX) streams drone sensor data to cloud VMs (ASY)
    for real-time analytics and adaptive control.  Control loops run at a
    fixed rate; occasionally a burst (e.g. a video keyframe or an event
    upload) multiplies the packet size.

    Deadline accounting is left to the caller: packets carry a
    ``deadline_s`` annotation in ``meta`` so sinks can classify arrivals
    as on-time or late.
    """

    def __init__(
        self,
        sim: Simulator,
        factory: PacketFactory,
        send: Callable[[Packet], None],
        rate_hz: float = 100.0,
        deadline_s: float = 0.050,
    ) -> None:
        positive("rate_hz", rate_hz)
        positive("deadline_s", deadline_s)
        self._sim = sim
        self._factory = factory
        self._send = send
        self._interval = 1.0 / rate_hz
        self.deadline_s = deadline_s
        self._task: Optional[PeriodicTask] = None
        self.sent = 0

    def start(self, until: Optional[float] = None) -> None:
        if self._task is not None:
            raise RuntimeError("workload already started")
        self._task = self._sim.call_every(self._interval, self._emit, end=until)

    def stop(self) -> None:
        if self._task is not None:
            self._task.stop()
            self._task = None

    def _emit(self) -> None:
        packet = self._factory.build()
        self.sent += 1
        if self.sent % BURST_EVERY == 0:
            packet.payload_bytes *= BURST_MULTIPLIER
        packet.created_at = self._sim.now
        packet.meta["deadline_s"] = self.deadline_s
        packet.meta["sent_at"] = self._sim.now
        self._send(packet)
