"""Prefixes as routes: the Tango tunnel table.

Tango's central trick (paper Section 3): instead of multiple routes to one
prefix (which needs core cooperation), announce *multiple prefixes*, each
propagating over a different wide-area path, and tunnel traffic to an
endpoint address inside the prefix whose path you want.  Host addressing
lives in separate prefixes, so a border switch seeing traffic for the
remote edge's host prefix picks a tunnel — a performance-driven,
per-packet source-routing decision the core never learns about.
"""

from __future__ import annotations

import ipaddress
from dataclasses import dataclass, field
from typing import Mapping, Optional, Sequence

from ..bgp.attributes import LargeCommunity
from ..dataplane.encap import tunnel_headers
from ..netsim.packet import TANGO_UDP_PORT, Ipv6Header, UdpHeader, as_address
from .discovery import DiscoveredPath, asn_label

__all__ = ["TangoTunnel", "TunnelTable", "build_tunnels", "bgp_best"]


@dataclass(frozen=True)
class TangoTunnel:
    """One unidirectional tunnel, bound to one wide-area path.

    Attributes:
        path_id: globally unique id carried in the Tango header.
        label: human-readable path name ("GTT", "NTT Cogent", ...).
        local_endpoint: outer source address (in a local route prefix).
        remote_endpoint: outer destination address (in the remote edge's
            route prefix pinned to this path) — choosing it chooses the
            path.
        remote_prefix: the remote route prefix, for FIB bookkeeping.
        transit_asns: the path's transit view, for reports.
        communities: communities the remote edge keeps attached to pin
            the prefix to this path.
        sport: tunnel UDP source port.  Unique per tunnel so each tunnel
            is one stable ECMP flow, distinct from its siblings.
        srlgs: shared-risk link groups this tunnel's wide-area path
            traverses — physical failure domains (conduits, regional
            grids) plus ``transit:<AS>`` fate tags.  Empty when the
            scenario carries no annotations (legacy behaviour).
        outer_headers: the tunnel's outer IPv6 and UDP headers, built once
            from the endpoints and ``sport`` and shared by every packet.

    Both endpoints are interned at construction
    (:func:`~repro.netsim.packet.as_address`).
    """

    path_id: int
    label: str
    local_endpoint: ipaddress.IPv6Address
    remote_endpoint: ipaddress.IPv6Address
    remote_prefix: ipaddress.IPv6Network
    transit_asns: tuple[int, ...] = ()
    communities: frozenset[LargeCommunity] = frozenset()
    sport: int = TANGO_UDP_PORT
    short_label: str = ""
    srlgs: frozenset[str] = frozenset()
    outer_headers: tuple[Ipv6Header, UdpHeader] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        for name in ("local_endpoint", "remote_endpoint"):
            object.__setattr__(self, name, as_address(getattr(self, name)))
        object.__setattr__(
            self,
            "outer_headers",
            tunnel_headers(self.local_endpoint, self.remote_endpoint, self.sport),
        )

    @property
    def is_default_path(self) -> bool:
        """Tunnels are created in discovery order; id 0 per direction is
        the BGP-default path (set by :func:`build_tunnels`)."""
        return self.path_id % _PATH_ID_STRIDE == 0


#: path ids are allocated as direction_base + index; stride keeps the two
#: directions of a pairing (and multiple pairings) disjoint.
_PATH_ID_STRIDE = 64


def bgp_best(tunnels: Sequence[TangoTunnel]) -> TangoTunnel:
    """The BGP-default tunnel of a candidate set — the last-resort path.

    When every tunnel looks unhealthy, degrading to the path BGP itself
    would use loses nothing relative to the status quo.  Falls back to the
    lowest path id when no candidate is marked default (e.g. an already
    filtered set).

    Raises:
        ValueError: on an empty candidate set.
    """
    if not tunnels:
        raise ValueError("no tunnels to choose a BGP-best fallback from")
    for tunnel in tunnels:
        if tunnel.is_default_path:
            return tunnel
    return min(tunnels, key=lambda t: t.path_id)


class TunnelTable:
    """Maps remote host prefixes to their available tunnels.

    This is the "statically configured table" of the paper: both endpoints
    cooperate, so each side simply knows which host prefixes live behind
    the other's Tango switch.  Each destination's answer (a miss
    included) is remembered until the next :meth:`add`.
    """

    def __init__(self) -> None:
        self._by_prefix: dict[ipaddress.IPv6Network, list[TangoTunnel]] = {}
        self._by_id: dict[int, TangoTunnel] = {}
        self._memo: dict[ipaddress.IPv6Address, list[TangoTunnel]] = {}

    def add(self, remote_host_prefix: ipaddress.IPv6Network, tunnel: TangoTunnel) -> None:
        """Register ``tunnel`` as a way to reach ``remote_host_prefix``."""
        if tunnel.path_id in self._by_id:
            raise ValueError(f"duplicate tunnel path_id {tunnel.path_id}")
        self._by_prefix.setdefault(remote_host_prefix, []).append(tunnel)
        self._by_id[tunnel.path_id] = tunnel
        self._memo.clear()

    def tunnels_for(self, dst: ipaddress.IPv6Address) -> list[TangoTunnel]:
        """Tunnels toward the Tango edge hosting ``dst`` ([] if none)."""
        try:
            return self._memo[dst]
        except KeyError:
            pass
        found: list[TangoTunnel] = []
        for prefix, tunnels in self._by_prefix.items():
            if dst in prefix:
                found = tunnels
                break
        self._memo[dst] = found
        return found

    def by_id(self, path_id: int) -> Optional[TangoTunnel]:
        return self._by_id.get(path_id)

    def all_tunnels(self) -> list[TangoTunnel]:
        return [self._by_id[k] for k in sorted(self._by_id)]

    def prefixes(self) -> list[ipaddress.IPv6Network]:
        return list(self._by_prefix)

    def __len__(self) -> int:
        return len(self._by_id)


def build_tunnels(
    paths: tuple[DiscoveredPath, ...],
    local_route_prefixes: tuple[ipaddress.IPv6Network, ...],
    remote_route_prefixes: tuple[ipaddress.IPv6Network, ...],
    direction_base: int,
    sport_base: int = 40000,
    srlg_tags: Optional[Mapping[str, Sequence[str]]] = None,
) -> list[TangoTunnel]:
    """Turn one direction's discovered paths into tunnels.

    Path ``i`` uses the remote edge's ``i``-th route prefix (which the
    remote edge announces with that path's pinned communities) and the
    local ``i``-th route prefix as the return address.

    Args:
        paths: discovery output, in preference order.
        local_route_prefixes: this (sending) edge's route prefixes.
        remote_route_prefixes: the receiving edge's route prefixes.
        direction_base: base path id for this direction — use
            ``direction_index * 64`` so ids never collide.
        sport_base: first UDP source port; tunnel ``i`` gets ``base + i``.
        srlg_tags: optional scenario annotations keyed by path
            ``short_label``.  When given, each tunnel's ``srlgs`` is the
            annotated groups plus an automatic ``transit:<AS>`` tag per
            transit hop (an AS is itself a shared fate: one operator's
            backbone-wide incident takes all its paths at once).  When
            omitted, tunnels carry no tags and every SRLG-aware consumer
            degrades to today's behaviour.

    Raises:
        ValueError: when an edge exposed fewer route prefixes than
            discovery found paths (the prototype's answer was "allocate
            more /48s"; ours is a loud error).
    """
    if len(paths) > len(remote_route_prefixes):
        raise ValueError(
            f"{len(paths)} paths discovered but only "
            f"{len(remote_route_prefixes)} remote route prefixes available"
        )
    if len(paths) > len(local_route_prefixes):
        raise ValueError(
            f"{len(paths)} paths discovered but only "
            f"{len(local_route_prefixes)} local route prefixes available"
        )
    if direction_base % _PATH_ID_STRIDE != 0:
        raise ValueError(
            f"direction_base must be a multiple of {_PATH_ID_STRIDE}"
        )
    tunnels = []
    for path in paths:
        srlgs: frozenset[str] = frozenset()
        if srlg_tags is not None:
            groups = set(srlg_tags.get(path.short_label, ()))
            groups.update(f"transit:{asn_label(asn)}" for asn in path.transit_asns)
            srlgs = frozenset(groups)
        tunnels.append(
            TangoTunnel(
                path_id=direction_base + path.index,
                label=path.label,
                local_endpoint=local_route_prefixes[path.index][1],
                remote_endpoint=remote_route_prefixes[path.index][1],
                remote_prefix=remote_route_prefixes[path.index],
                transit_asns=path.transit_asns,
                communities=path.communities,
                sport=sport_base + path.index,
                short_label=path.short_label,
                srlgs=srlgs,
            )
        )
    return tunnels
