"""Relay encapsulation hop: stitch two Tango tunnels at a member edge.

A stitched transit tunnel carries A's traffic to B *through* a third
cooperating member R when the pair lacks a disjoint direct path: the
packet rides an A→R tunnel to R's border switch, where this program
swaps the outer tunnel coordinates for an R→B tunnel — the moral
equivalent of a segment-routing label swap done with Tango's existing
prefixes-as-routes machinery ("Stitching Inter-Domain Paths over IXPs").

The Tango header is deliberately left untouched: the stitched tunnel's
own ``path_id`` and the *origin* timestamp survive the swap, so the
final receiver's measurement is the true end-to-end one-way delay (the
per-edge clock offsets telescope exactly as in the direct case) and the
stitched route participates unmodified in selectors, quarantine, SRLG
scoring and fast reroute at the sender.

The program must run *before* the relay gateway's own receiver — the
arrival endpoint is one of R's local tunnel endpoints, and the receiver
would otherwise decapsulate-and-terminate the packet.  Use
:func:`attach_relay_program`, which inserts at ingress position 0.
"""

from __future__ import annotations

import ipaddress
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Callable, Optional

from ..netsim.packet import Ipv6Header, Packet, UdpHeader

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..netsim.node import ProgrammableSwitch

__all__ = ["RelayBinding", "RelayForwardProgram", "attach_relay_program"]


@dataclass(frozen=True)
class RelayBinding:
    """One stitched tunnel's swap entry at the relay switch.

    Attributes:
        path_id: the stitched tunnel's end-to-end path id (matched
            against the Tango header; never a default ``% 64 == 0`` id).
        arrival_endpoint: segment-1 remote endpoint at the relay — the
            outer destination a stitched packet arrives with.
        next_src: segment-2 local endpoint (rewritten outer source).
        next_dst: segment-2 remote endpoint at the final edge
            (rewritten outer destination; the relay FIB already routes
            it, because it is a plain R→B tunnel endpoint).
        next_sport: segment-2 tunnel source port (keeps the stitched
            flow on one ECMP sub-path of the second segment).
    """

    path_id: int
    arrival_endpoint: ipaddress.IPv6Address
    next_src: ipaddress.IPv6Address
    next_dst: ipaddress.IPv6Address
    next_sport: int


class RelayForwardProgram:
    """Ingress program performing the outer-header swap for bound ids."""

    def __init__(
        self,
        on_transit: Optional[Callable[[int, float], None]] = None,
    ) -> None:
        """``on_transit(path_id, relay_wall_clock)`` fires per relayed
        packet — the hook segment telemetry composition taps to record
        the segment-1 arrival in the relay's own clock."""
        self._bindings: dict[int, RelayBinding] = {}
        self.on_transit = on_transit
        self.relayed = 0
        self.passed_through = 0

    def bind(self, binding: RelayBinding) -> None:
        if binding.path_id in self._bindings:
            raise ValueError(f"path id {binding.path_id} already bound")
        self._bindings[binding.path_id] = binding

    def __call__(
        self, switch: "ProgrammableSwitch", packet: Packet
    ) -> Optional[Packet]:
        tango = packet.tango
        if tango is None:
            self.passed_through += 1
            return packet
        binding = self._bindings.get(tango.path_id)
        if binding is None or packet.dst != binding.arrival_endpoint:
            self.passed_through += 1
            return packet
        outer = packet.headers[0]
        udp = packet.headers[1]
        if not isinstance(outer, Ipv6Header) or not isinstance(udp, UdpHeader):
            self.passed_through += 1
            return packet
        if self.on_transit is not None:
            self.on_transit(tango.path_id, switch.clock.now())
        packet.replace_header(
            0, replace(outer, src=binding.next_src, dst=binding.next_dst)
        )
        packet.replace_header(1, replace(udp, sport=binding.next_sport))
        self.relayed += 1
        return packet


def attach_relay_program(
    switch: "ProgrammableSwitch",
    on_transit: Optional[Callable[[int, float], None]] = None,
) -> RelayForwardProgram:
    """Install (or return the already-installed) relay program.

    Inserted at ingress position 0 so the swap happens before the
    gateway's receiver can terminate the packet at the relay.
    """
    for program in switch.ingress_programs:
        if isinstance(program, RelayForwardProgram):
            return program
    program = RelayForwardProgram(on_transit=on_transit)
    switch.ingress_programs.insert(0, program)
    return program
