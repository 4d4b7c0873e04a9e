"""Synthetic topologies: the Tango-of-N federation and the ECMP ablation fabric.

Two generators:

* :func:`build_live_federation` — N edge networks attached to a fully
  peered transit core, with per-member address plans and a
  deterministic delay calibration for every path the federation will
  discover — the substrate of the Section 6 "Tango of N" study (E9) and
  of the live federation (E20).
* :func:`build_ecmp_fanout` — a packet-level fabric where one BGP path
  hides several ECMP sub-paths with different delays, demonstrating why
  unpinned probing measures "multiple paths as one" and why Tango's
  fixed tunnel 5-tuple fixes it (DESIGN.md E8).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..bgp.messages import as_ipv6_prefix
from ..bgp.network import BgpNetwork
from ..bgp.router import BgpRouter
from ..core.config import EdgeConfig
from ..core.discovery import DiscoveredPath
from ..netsim.delaymodels import ConstantDelay, GaussianJitterDelay, Pcg64Stream
from ..netsim.topology import Network
from ..validate import int_in
from .vultr import PathCalibration

__all__ = [
    "LiveFederationScenario",
    "build_live_federation",
    "EcmpFanout",
    "build_ecmp_fanout",
]

#: Transit core used by the federation generator (ASN -> base one-way ms
#: "speed" factor; paths through lower-factor transits are faster).
_TRANSIT_SPEED = {2914: 1.00, 1299: 1.12, 3257: 0.92, 174: 1.25, 3356: 1.18}
_TRANSIT_ASNS = tuple(sorted(_TRANSIT_SPEED))
_EDGE_BASE_ASN = 65100
_PROVIDER_BASE_ASN = 64900


def _pair_distance(i: int, j: int, n: int, rng: Pcg64Stream) -> float:
    """Deterministic pseudo-geographic distance (ms) between edges."""
    base = 12.0 + 40.0 * abs(i - j) / max(n - 1, 1)
    return base + rng.uniform(0.0, 8.0)


@dataclass
class LiveFederationScenario:
    """Substrate for a *live* N-edge federation (E9, E20).

    This carries everything a
    :class:`~repro.federation.registry.FederationRegistry` needs to run
    establishment itself over one shared :class:`BgpNetwork`: full per-member address plans (host prefix plus
    per-peer route-prefix slices), canonical probe prefixes, and a
    deterministic calibration for every (pair, path) the registry will
    discover.

    The address plan partitions each member's route prefixes into
    per-peer *slices*: one member's prefix can carry only one community
    set at a time, so each pair pins into its own disjoint slice and
    every pairing stays a standard two-party Tango session.
    """

    bgp: BgpNetwork
    members: list[EdgeConfig]
    member_transits: dict[str, list[int]]
    probe_prefixes: dict[str, str]
    prefixes_per_peer: int
    #: (lower-index member, higher-index member) -> pseudo-geographic
    #: distance (one-way ms).
    pair_distance_ms: dict[tuple[str, str], float]
    #: The deliberately fate-shared pair (both single-homed to one
    #: transit), or None when the knob is off.
    degraded_pair: Optional[tuple[str, str]]
    seed: int

    @property
    def n(self) -> int:
        return len(self.members)

    @property
    def member_names(self) -> list[str]:
        return [m.name for m in self.members]

    def member(self, name: str) -> EdgeConfig:
        for config in self.members:
            if config.name == name:
                return config
        raise KeyError(f"no federation member {name!r}")

    def member_index(self, name: str) -> int:
        for index, config in enumerate(self.members):
            if config.name == name:
                return index
        raise KeyError(f"no federation member {name!r}")

    def peer_slice(self, member: str, peer: str) -> EdgeConfig:
        """``member``'s config restricted to its route slice for ``peer``.

        Same identity (name, routers, ASNs, host prefix) — only
        ``route_prefixes`` narrows, so the sliced view drops into
        :class:`~repro.core.session.TangoSession` unchanged while pin
        announcements from different pairs can never collide.
        """
        config = self.member(member)
        k, j = self.member_index(member), self.member_index(peer)
        if k == j:
            raise ValueError(f"{member!r} cannot peer with itself")
        position = j if j < k else j - 1
        start = position * self.prefixes_per_peer
        return EdgeConfig(
            name=config.name,
            tenant_router=config.tenant_router,
            tenant_asn=config.tenant_asn,
            provider_router=config.provider_router,
            provider_asn=config.provider_asn,
            host_prefix=config.host_prefix,
            route_prefixes=config.route_prefixes[
                start : start + self.prefixes_per_peer
            ],
            clock_offset_s=config.clock_offset_s,
        )

    def path_delay_ms(self, src: str, dst: str, path: DiscoveredPath) -> float:
        """Deterministic base one-way delay for one discovered path."""
        # Keyed lower member index first — not by name: "edge10" < "edge2".
        forward = self.member_index(src) < self.member_index(dst)
        distance = self.pair_distance_ms[(src, dst) if forward else (dst, src)]
        speed = float(
            np.mean([_TRANSIT_SPEED.get(a, 1.3) for a in path.transit_asns])
            if path.transit_asns
            else 1.0
        )
        hop_tax = 1.0 + 0.06 * max(len(path.transit_asns) - 1, 0)
        return distance * speed * hop_tax

    def calibration(
        self, src: str, dst: str, path: DiscoveredPath, label: str
    ) -> PathCalibration:
        """Delay-process calibration for the ``src``→``dst`` path."""
        k, j = self.member_index(src), self.member_index(dst)
        return PathCalibration(
            label=label,
            base_ms=self.path_delay_ms(src, dst, path),
            sigma_ms=0.05,
            seed=self.seed * 10007 + k * 512 + j * 32 + path.index,
        )


def build_live_federation(
    n_edges: int,
    prefixes_per_peer: int = 4,
    providers_per_edge: int = 2,
    seed: int = 42,
    degraded_pair: bool = True,
) -> LiveFederationScenario:
    """Build the substrate for a live N-edge federation.

    Each edge gets its own provider AS (its "Vultr") which buys transit
    from ``providers_per_edge`` distinct core transits (deterministically
    chosen), so pairwise discovery exposes a few paths per ordered pair.
    Path delays derive from a pseudo-geographic pair distance scaled by
    the transit's speed factor — slower transits give strictly worse
    paths, so relaying through a well-placed third edge can win.

    With ``degraded_pair=True`` (and ≥ 3 members) the first two members
    are single-homed to the *same* transit, so their direct connectivity
    collapses to one fate-shared path: the pair the E20 experiment heals
    with a stitched relay tunnel.
    """
    int_in(2)("n_edges", n_edges)
    int_in(1, len(_TRANSIT_ASNS))("providers_per_edge", providers_per_edge)
    int_in(1)("prefixes_per_peer", prefixes_per_peer)
    int_in(0)("seed", seed)
    rng = Pcg64Stream(seed)
    bgp = BgpNetwork()
    for asn in _TRANSIT_ASNS:
        bgp.add_router(BgpRouter(f"transit-{asn}", asn))
    for i, a in enumerate(_TRANSIT_ASNS):
        for b in _TRANSIT_ASNS[i + 1 :]:
            bgp.add_peering(f"transit-{a}", f"transit-{b}")

    degrade = degraded_pair and n_edges >= 3
    members: list[EdgeConfig] = []
    member_transits: dict[str, list[int]] = {}
    probe_prefixes: dict[str, str] = {}
    slices = max(n_edges - 1, 1) * prefixes_per_peer
    for index in range(n_edges):
        edge = f"edge{index}"
        provider = f"provider-{index}"
        bgp.add_router(
            BgpRouter(provider, _PROVIDER_BASE_ASN + index, allowas_in=True)
        )
        bgp.add_router(BgpRouter(edge, _EDGE_BASE_ASN + index))
        bgp.add_provider(edge, provider)
        if degrade and index in (0, 1):
            # Both fate-shared members buy from the one same transit.
            chosen = [_TRANSIT_ASNS[0]]
        else:
            start = index % len(_TRANSIT_ASNS)
            chosen = [
                _TRANSIT_ASNS[(start + k) % len(_TRANSIT_ASNS)]
                for k in range(providers_per_edge)
            ]
        for preference, transit in enumerate(chosen, start=1):
            bgp.add_provider(
                provider, f"transit-{transit}", customer_preference=preference
            )
        members.append(
            EdgeConfig(
                name=edge,
                tenant_router=edge,
                tenant_asn=_EDGE_BASE_ASN + index,
                provider_router=provider,
                provider_asn=_PROVIDER_BASE_ASN + index,
                host_prefix=as_ipv6_prefix(f"2001:db8:{0x1000 + index:x}::/48"),
                route_prefixes=tuple(
                    as_ipv6_prefix(f"2001:db8:{0x2000 + index * 0x100 + m:x}::/48")
                    for m in range(slices)
                ),
                clock_offset_s=((index * 37) % 23 - 11) * 1e-3,
            )
        )
        member_transits[edge] = chosen
        probe_prefixes[edge] = f"2001:db8:{0xF000 + index:x}::/48"

    # Distances in one fixed double loop so the rng consumption order —
    # and with it every delay in the federation — is seed-determined.
    pair_distance_ms: dict[tuple[str, str], float] = {}
    for i in range(n_edges):
        for j in range(i + 1, n_edges):
            pair_distance_ms[(f"edge{i}", f"edge{j}")] = _pair_distance(
                i, j, n_edges, rng
            )
    return LiveFederationScenario(
        bgp=bgp,
        members=members,
        member_transits=member_transits,
        probe_prefixes=probe_prefixes,
        prefixes_per_peer=prefixes_per_peer,
        pair_distance_ms=pair_distance_ms,
        degraded_pair=("edge0", "edge1") if degrade else None,
        seed=seed,
    )


@dataclass
class EcmpFanout:
    """Packet-level fabric with hidden ECMP sub-paths.

    ``src`` and ``dst`` are programmable switches; between them sits one
    core router whose route to the destination prefix is an ECMP group of
    ``sub_path_delays_ms`` parallel links.  To BGP this is *one* path.
    """

    net: Network
    src_name: str
    dst_name: str
    dst_prefix: str
    sub_path_delays_ms: tuple[float, ...]


def build_ecmp_fanout(
    sub_path_delays_ms: tuple[float, ...] = (30.0, 35.0, 41.0),
    jitter_ms: float = 0.05,
    ecmp_salt: int = 7,
) -> EcmpFanout:
    """Build the E8 ablation fabric.

    Probes that vary their 5-tuple are sprayed over the sub-paths and see
    a multi-modal delay mix; packets inside one Tango tunnel share a
    5-tuple and stick to a single sub-path.
    """
    if len(sub_path_delays_ms) < 2:
        raise ValueError("need at least two ECMP sub-paths for the ablation")
    net = Network()
    src = net.add_switch("ecmp-src")
    core = net.add_router("ecmp-core", ecmp_salt=ecmp_salt)
    dst = net.add_switch("ecmp-dst")
    uplink = net.add_link("src->core", src, core, delay=ConstantDelay(0.0002))
    group = []
    for index, delay_ms in enumerate(sub_path_delays_ms):
        group.append(
            net.add_link(
                f"core->dst:{index}",
                core,
                dst,
                delay=GaussianJitterDelay(
                    delay_ms * 1e-3, jitter_ms * 1e-3, seed=700 + index
                ),
            )
        )
    dst_prefix = "2001:db8:ecf::/48"
    src.fib.add_route(dst_prefix, uplink)
    core.fib.add_route(dst_prefix, group)  # the ECMP group
    # Also route the Tango outer prefix the same way so encapsulated
    # packets traverse the identical fabric.
    outer_prefix = "2001:db8:eca::/48"
    src.fib.add_route(outer_prefix, uplink)
    core.fib.add_route(outer_prefix, group)
    return EcmpFanout(
        net=net,
        src_name="ecmp-src",
        dst_name="ecmp-dst",
        dst_prefix=dst_prefix,
        sub_path_delays_ms=tuple(sub_path_delays_ms),
    )
