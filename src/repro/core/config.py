"""Static Tango configuration.

The paper's third architectural component: "a local configuration
containing the available routes to the other Tango switch and logic for
how a forwarding decision should be made based on path performance."

Configuration is static because both endpoints cooperate: each edge knows
the other's host prefix and the route prefixes it will announce, so no
discovery protocol is needed on the data path — a lookup table suffices.
"""

from __future__ import annotations

import ipaddress
from dataclasses import dataclass, field

from ..netsim.packet import as_address
from ..validate import check_fields, finite, positive

__all__ = ["EdgeConfig", "PairingConfig"]


@dataclass(frozen=True)
class EdgeConfig:
    """One edge network's identity and address plan.

    Attributes:
        name: short label ("ny", "la", "factory", ...).
        tenant_router: name of this edge's BGP speaker (the BIRD instance
            of the prototype).
        tenant_asn: the (typically private) ASN the edge peers with its
            provider under; the provider strips it on export.
        provider_router: name of the provider border router the edge has
            its eBGP session with (the co-located Vultr router).
        provider_asn: the provider's public ASN — the admin of the
            traffic-control communities the edge attaches.
        host_prefix: the prefix end-host addresses come from.  Announced
            normally so non-Tango endpoints can reach it.
        route_prefixes: prefixes reserved to *represent routes*: each one
            gets pinned to a distinct wide-area path and carries a tunnel
            endpoint.  (The prototype used four /48s per edge.)
        clock_offset_s: this edge's wall-clock offset — deliberately
            nonzero in scenarios, since surviving unsynchronized clocks is
            part of the design.
    """

    name: str
    tenant_router: str
    tenant_asn: int
    provider_router: str
    provider_asn: int
    host_prefix: ipaddress.IPv6Network
    route_prefixes: tuple[ipaddress.IPv6Network, ...]
    clock_offset_s: float = field(default=0.0, metadata={"check": finite})

    def __post_init__(self) -> None:
        check_fields(self)
        if not self.route_prefixes:
            raise ValueError(f"edge {self.name!r} needs at least one route prefix")
        overlapping = [
            p for p in self.route_prefixes if p.overlaps(self.host_prefix)
        ]
        if overlapping:
            raise ValueError(
                f"edge {self.name!r}: route prefixes {overlapping} overlap the "
                "host prefix; prefixes-as-routes must be disjoint from "
                "host addressing"
            )

    def host_address(self, index: int = 1) -> ipaddress.IPv6Address:
        """The ``index``-th host address inside the host prefix (interned,
        see :func:`~repro.netsim.packet.as_address`)."""
        return as_address(self.host_prefix[index])

    def tunnel_endpoint(self, route_index: int) -> ipaddress.IPv6Address:
        """The tunnel endpoint address within route prefix ``route_index``.

        By convention the endpoint is the ``::1`` address of the prefix.
        It is interned (see :func:`~repro.netsim.packet.as_address`).
        """
        return as_address(self.route_prefixes[route_index][1])


@dataclass(frozen=True)
class PairingConfig:
    """A Tango pairing: two cooperating edges plus measurement knobs.

    Attributes:
        a, b: the two edges.  All APIs treat the pairing symmetrically.
        probe_interval_s: measurement cadence; the paper used 10 ms.
        report_interval_s: how often each side mirrors its inbound
            measurements back to the peer (piggybacked on reverse
            traffic, so this costs no packets — only freshness).
        control_interval_s: the controllers' decision-loop cadence.
        auth_key: shared key enabling authenticated telemetry; empty
            disables it (the paper's prototype did not authenticate).
    """

    a: EdgeConfig
    b: EdgeConfig
    probe_interval_s: float = field(default=0.010, metadata={"check": positive})
    report_interval_s: float = field(default=0.100, metadata={"check": positive})
    control_interval_s: float = field(default=0.100, metadata={"check": positive})
    auth_key: bytes = b""

    def __post_init__(self) -> None:
        check_fields(self)
        if self.a.name == self.b.name:
            raise ValueError("the two edges of a pairing must be distinct")

    def peer_of(self, edge_name: str) -> EdgeConfig:
        """The other edge of the pairing."""
        if edge_name == self.a.name:
            return self.b
        if edge_name == self.b.name:
            return self.a
        raise KeyError(f"{edge_name!r} is not part of this pairing")

    def edge(self, edge_name: str) -> EdgeConfig:
        if edge_name == self.a.name:
            return self.a
        if edge_name == self.b.name:
            return self.b
        raise KeyError(f"{edge_name!r} is not part of this pairing")
