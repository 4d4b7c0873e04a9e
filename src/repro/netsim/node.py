"""Forwarding nodes: hosts, routers, and programmable border switches.

Three node flavours cover everything the reproduction needs:

* :class:`HostNode` — traffic sources/sinks inside an edge network.
* :class:`RouterNode` — longest-prefix-match forwarding with optional ECMP
  groups; models both edge gateways and backbone routers.
* :class:`ProgrammableSwitch` — a router that additionally runs ingress and
  egress *programs* on every packet, the stand-in for the paper's
  eBPF/programmable-switch data plane.  Tango's sender and receiver
  programs (``repro.dataplane.programs``) attach here.

Every node owns a :class:`~repro.netsim.simclock.NodeClock`; programs read
wall-clock time only through it, which is how the unsynchronized-clock
semantics of the paper are preserved end to end.
"""

from __future__ import annotations

import ipaddress
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Optional, Sequence, Union

from .ecmp import select_index
from .packet import IPAddress, Packet
from .simclock import NodeClock

if TYPE_CHECKING:  # pragma: no cover
    from .events import Simulator
    from .links import Link

__all__ = [
    "Fib",
    "FibEntry",
    "Node",
    "HostNode",
    "RouterNode",
    "ProgrammableSwitch",
    "NodeStats",
]

IPNetwork = Union[ipaddress.IPv4Network, ipaddress.IPv6Network]

#: A data-plane program: called as ``program(switch, packet)``; returns the
#: (possibly re-encapsulated) packet to keep processing, or None to consume
#: it (measurement extraction, drops).
Program = Callable[["ProgrammableSwitch", Packet], Optional[Packet]]


@dataclass
class FibEntry:
    """A FIB route: destination prefix -> one or more egress links."""

    prefix: IPNetwork
    links: list["Link"]

    def __post_init__(self) -> None:
        if not self.links:
            raise ValueError(f"FIB entry for {self.prefix} has no egress links")


class Fib:
    """Longest-prefix-match forwarding table.

    Small and explicit rather than trie-based: edge and backbone tables in
    these experiments hold tens of routes, and an ordered scan keeps the
    matching semantics obvious.  Routes are kept per prefix length, each
    length in install order (a replaced route moves to the back of its
    length), keyed by integers so that an install or removal compares no
    ``ipaddress`` objects.  The scan order, longest prefix first, is
    rebuilt at the first lookup after a change.  A router sees few
    distinct destinations, so each lookup's answer (a miss included) is
    remembered per address until the next route change.
    """

    def __init__(self) -> None:
        #: prefix length -> {route key: entry}, each in install order.
        self._by_length: dict[int, dict[tuple[int, int], FibEntry]] = {}
        #: Every entry, longest prefix first; None after a change.
        self._entries: Optional[list[FibEntry]] = []
        self._memo: dict[IPAddress, Optional[FibEntry]] = {}

    def add_route(
        self, prefix: Union[str, IPNetwork], links: Union["Link", Sequence["Link"]]
    ) -> FibEntry:
        """Install (or replace) the route for ``prefix``.

        Accepts a single link or a sequence (an ECMP group).
        """
        network = ipaddress.ip_network(prefix) if isinstance(prefix, str) else prefix
        from .links import Link as _Link  # local import to avoid cycle

        link_list = [links] if isinstance(links, _Link) else list(links)
        entry = FibEntry(prefix=network, links=link_list)
        self.remove_route(network)
        self._by_length.setdefault(network.prefixlen, {})[_route_key(network)] = entry
        self._changed()
        return entry

    def remove_route(self, prefix: Union[str, IPNetwork]) -> bool:
        """Remove the exact route for ``prefix``; True if one existed."""
        network = ipaddress.ip_network(prefix) if isinstance(prefix, str) else prefix
        routes = self._by_length.get(network.prefixlen)
        if routes is None or routes.pop(_route_key(network), None) is None:
            return False
        self._changed()
        return True

    def _changed(self) -> None:
        self._entries = None
        self._memo.clear()

    def _ordered(self) -> list[FibEntry]:
        entries = self._entries
        if entries is None:
            by_length = self._by_length
            entries = self._entries = [
                entry
                for length in sorted(by_length, reverse=True)
                for entry in by_length[length].values()
            ]
        return entries

    def lookup(self, address: IPAddress) -> Optional[FibEntry]:
        """Longest-prefix match, or None if no route covers ``address``."""
        try:
            return self._memo[address]
        except KeyError:
            pass
        found = None
        for entry in self._ordered():
            if entry.prefix.version == address.version and address in entry.prefix:
                found = entry
                break
        self._memo[address] = found
        return found

    def routes(self) -> list[FibEntry]:
        """All installed entries, longest prefix first."""
        return list(self._ordered())

    def __len__(self) -> int:
        return sum(len(routes) for routes in self._by_length.values())


def _route_key(network: IPNetwork) -> tuple[int, int]:
    """An exact route's identity within its prefix length: the address
    family and the network address, as plain ints."""
    return network.version, int(network.network_address)


@dataclass
class NodeStats:
    """Per-node counters."""

    received: int = 0
    forwarded: int = 0
    delivered_local: int = 0
    dropped_no_route: int = 0
    dropped_ttl: int = 0
    consumed_by_program: int = 0


class Node:
    """Base node: a name, a wall clock, and a receive hook."""

    def __init__(self, name: str, sim: "Simulator", clock_offset: float = 0.0):
        self.name = name
        self.sim = sim
        self.clock = NodeClock(sim, offset=clock_offset)
        self.stats = NodeStats()

    def receive(self, packet: Packet, ingress: Optional["Link"] = None) -> None:
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.name})"


class HostNode(Node):
    """An end host: a received packet goes to exactly one place, called
    as ``sink(packet, now)``: the sink bound to its flow label, else the
    catch-all ``on_packet``, else the inbox ``received_packets``."""

    def __init__(
        self,
        name: str,
        sim: "Simulator",
        clock_offset: float = 0.0,
        on_packet: Optional[Callable[[Packet, float], None]] = None,
    ) -> None:
        super().__init__(name, sim, clock_offset)
        self.received_packets: list[Packet] = []
        self.on_packet = on_packet
        self._sinks: dict[int, Callable[[Packet, float], None]] = {}

    def bind(self, flow_label: int, sink: Callable[[Packet, float], None]) -> None:
        """Deliver every packet of ``flow_label`` to ``sink`` from now on."""
        self._sinks[flow_label] = sink

    def receive(self, packet: Packet, ingress: Optional["Link"] = None) -> None:
        self.stats.received += 1
        self.stats.delivered_local += 1
        sink = self._sinks.get(packet.flow_label, self.on_packet)
        if sink is None:
            self.received_packets.append(packet)
        else:
            sink(packet, self.sim.now)


class RouterNode(Node):
    """Longest-prefix-match router with ECMP groups."""

    def __init__(
        self,
        name: str,
        sim: "Simulator",
        clock_offset: float = 0.0,
        ecmp_salt: int = 0,
    ) -> None:
        super().__init__(name, sim, clock_offset)
        self.fib = Fib()
        self.ecmp_salt = ecmp_salt

    def receive(self, packet: Packet, ingress: Optional["Link"] = None) -> None:
        self.stats.received += 1
        self.forward(packet)

    def forward(self, packet: Packet) -> None:
        """FIB lookup + ECMP selection + transmit."""
        entry = self.fib.lookup(packet.dst)
        if entry is None:
            self.stats.dropped_no_route += 1
            return
        try:
            packet.decrement_ttl()
        except ValueError:
            self.stats.dropped_ttl += 1
            return
        if len(entry.links) == 1:
            link = entry.links[0]
        else:
            index = select_index(packet.five_tuple(), len(entry.links), self.ecmp_salt)
            link = entry.links[index]
        link.transmit(self.sim, packet)
        self.stats.forwarded += 1


class ProgrammableSwitch(RouterNode):
    """A border switch running attachable data-plane programs.

    Mirrors the structure of the paper's eBPF deployment: an *ingress*
    program sees packets arriving from the wide area or the edge before
    routing, an *egress* program sees packets just before transmission.
    Programs may rewrite the header stack (encap/decap) or consume packets.

    Program ordering is the attachment order; each program receives the
    output of the previous one.
    """

    def __init__(
        self,
        name: str,
        sim: "Simulator",
        clock_offset: float = 0.0,
        ecmp_salt: int = 0,
    ) -> None:
        super().__init__(name, sim, clock_offset, ecmp_salt)
        self.ingress_programs: list[Program] = []
        self.egress_programs: list[Program] = []

    def attach_ingress(self, program: Program) -> None:
        """Run ``program`` on every packet entering this switch."""
        self.ingress_programs.append(program)

    def attach_egress(self, program: Program) -> None:
        """Run ``program`` on every packet about to be forwarded."""
        self.egress_programs.append(program)

    def receive(self, packet: Packet, ingress: Optional["Link"] = None) -> None:
        self.stats.received += 1
        current: Optional[Packet] = packet
        for program in self.ingress_programs:
            current = program(self, current)
            if current is None:
                self.stats.consumed_by_program += 1
                return
        self.forward(current)

    def forward(self, packet: Packet) -> None:
        current: Optional[Packet] = packet
        for program in self.egress_programs:
            current = program(self, current)
            if current is None:
                self.stats.consumed_by_program += 1
                return
        super().forward(current)
