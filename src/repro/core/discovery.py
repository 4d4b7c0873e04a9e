"""Iterative path discovery via suppression communities (paper Section 4.1).

The algorithm, verbatim from the paper's three-step procedure for one
direction between a source and a destination edge:

1. Observe the best BGP route for the destination's probe prefix at the
   source edge.
2. Configure the destination's BGP speaker to attach a community that
   suppresses the provider's export toward the transit AS currently
   carrying the route.
3. Wait for BGP to propagate; confirm the source now sees an alternate
   route.
4. Record the (route, community set) pair and repeat, until suppressing
   the used route makes the prefix unreachable.

Each discovered path is identified by its *transit view*: the AS path with
the provider's own ASN and private tenant ASNs removed — the "NTT",
"Telia", "GTT", "NTT Cogent" labels of the paper's Figure 3.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

from ..bgp.attributes import AsPath, LargeCommunity, RouteAttributes
from ..bgp.communities import no_export_to
from ..bgp.messages import Prefix, as_prefix
from ..bgp.poisoning import poisoned_attributes
from ..bgp.network import BgpNetwork
from ..bgp.snapshot import SnapshotCache

__all__ = ["DiscoveredPath", "DiscoveryResult", "PathDiscovery", "AS_NAMES"]

#: Human-readable names for the transit ASNs of the Vultr deployment plus
#: a few common networks; unknown ASNs render as "AS<number>".
AS_NAMES: dict[int, str] = {
    174: "Cogent",
    1299: "Telia",
    2914: "NTT",
    3257: "GTT",
    3356: "Level3",
    6939: "HE",
    7018: "AT&T",
    20473: "Vultr",
}


def asn_label(asn: int) -> str:
    """Render one ASN with its well-known name when available."""
    return AS_NAMES.get(asn, f"AS{asn}")


@dataclass(frozen=True)
class DiscoveredPath:
    """One wide-area path exposed by the discovery procedure.

    Attributes:
        index: discovery order — index 0 is the provider's (BGP-default)
            most preferred path.
        full_path: the AS path exactly as observed at the source edge.
        transit_asns: the transit view (provider/private ASNs stripped).
        communities: the suppression communities the destination edge must
            keep attached to the corresponding route prefix to pin it
            (community-method discovery).
        poisoned_asns: the ASNs the destination edge must keep poisoned
            in the route prefix's announced path to pin it
            (poisoning-method discovery).
    """

    index: int
    full_path: AsPath
    transit_asns: tuple[int, ...]
    communities: frozenset[LargeCommunity]
    poisoned_asns: tuple[int, ...] = ()

    @property
    def label(self) -> str:
        """Display label, e.g. ``"NTT"`` or ``"NTT Cogent"``."""
        return " ".join(asn_label(a) for a in self.transit_asns) or "direct"

    @property
    def short_label(self) -> str:
        """The paper's naming: the *distinguishing* AS — the transit
        adjacent to the announcing edge ("NTT and Cogent (we refer to this
        as Cogent)")."""
        if not self.transit_asns:
            return "direct"
        return asn_label(self.transit_asns[-1])


@dataclass(frozen=True)
class DiscoveryResult:
    """Everything one direction's discovery learned."""

    source: str
    destination: str
    probe_prefix: Prefix
    paths: tuple[DiscoveredPath, ...]
    convergence_waves: int

    @property
    def path_count(self) -> int:
        return len(self.paths)

    def labels(self) -> list[str]:
        return [p.label for p in self.paths]


class PathDiscovery:
    """Runs the iterative suppression algorithm on a BGP network.

    Args:
        network: the converged control plane to probe.
        provider_asn: ASN whose traffic-control communities are driven
            (Vultr's 20473 in the paper).
        snapshots: optional convergence snapshot cache.  Discovery keeps
            revisiting configurations (every run ends by withdrawing the
            probe and re-converging to the base state; repeated runs over
            the same base replay the same suppression ladder), so a cache
            turns those convergences into O(state) restores.
    """

    def __init__(
        self,
        network: BgpNetwork,
        provider_asn: int,
        snapshots: Optional[SnapshotCache] = None,
    ) -> None:
        self.network = network
        self.provider_asn = provider_asn
        self.snapshots = snapshots

    def _converge(self) -> int:
        """One convergence, through the snapshot cache when present."""
        if self.snapshots is not None:
            return self.snapshots.converge(self.network)
        return self.network.converge()

    def discover(
        self,
        announcer: str,
        observer: str,
        probe_prefix: Union[str, Prefix],
        max_paths: int = 16,
        method: str = "communities",
    ) -> DiscoveryResult:
        """Discover the distinct paths from ``observer`` toward ``announcer``.

        Note the direction: the *destination* edge announces; the paths
        found carry traffic from the observer (source) to the announcer
        (destination).

        Args:
            announcer: router name announcing the probe prefix (the
                destination edge's BGP speaker).
            observer: router name observing best paths (the source edge).
            probe_prefix: a prefix dedicated to probing (re-announced per
                round with growing suppression sets).
            max_paths: safety bound on the iteration.
            method: how the current route is suppressed each round —
                ``"communities"`` (the paper's prototype: provider
                traffic-control communities) or ``"poisoning"``
                (Section 6's alternative knob: include the target transit
                in the announced AS path so its loop detection drops the
                route).  Poisoning needs no provider support but kills
                the target *everywhere* in the topology, so it typically
                exposes fewer paths — e.g. a backup path that re-enters
                a poisoned transit further upstream is lost too.

        Returns:
            A :class:`DiscoveryResult`; ``paths`` is empty if the prefix
            never became reachable.
        """
        if method not in ("communities", "poisoning"):
            raise ValueError(
                f"method must be 'communities' or 'poisoning', got {method!r}"
            )
        prefix = as_prefix(probe_prefix)
        announcer_router = self.network.router(announcer)
        observer_router = self.network.router(observer)
        communities: set[LargeCommunity] = set()
        poisoned: list[int] = []
        paths: list[DiscoveredPath] = []
        waves = 0

        announcer_router.originate(prefix)
        waves += self._converge()
        for index in range(max_paths):
            best = observer_router.best_path(prefix)
            if best is None:
                break
            # Poisoned ASNs ride at the tail of every announced path
            # (that is the mechanism); exclude them from the transit
            # view — they are not hops the traffic traverses.
            transit = self._transit_view(best, exclude=tuple(poisoned))
            paths.append(
                DiscoveredPath(
                    index=index,
                    full_path=best,
                    transit_asns=transit.asns,
                    communities=frozenset(communities),
                    poisoned_asns=tuple(poisoned),
                )
            )
            suppress_target = self._suppression_target(transit)
            if suppress_target is None:
                # Degenerate: provider-only path; nothing left to suppress.
                break
            if method == "communities":
                communities.add(
                    no_export_to(self.provider_asn, suppress_target)
                )
                announcer_router.originate(
                    prefix,
                    RouteAttributes().add_communities(large=communities),
                )
            else:
                poisoned.append(suppress_target)
                announcer_router.originate(
                    prefix, poisoned_attributes(poisoned)
                )
            waves += self._converge()
        announcer_router.withdraw_origination(prefix)
        waves += self._converge()
        return DiscoveryResult(
            source=observer,
            destination=announcer,
            probe_prefix=prefix,
            paths=tuple(paths),
            convergence_waves=waves,
        )

    def _transit_view(
        self, path: AsPath, exclude: tuple[int, ...] = ()
    ) -> AsPath:
        """Strip provider/private/excluded ASNs, keeping the transit
        networks the traffic actually traverses."""
        view = path.without(self.provider_asn).strip_private()
        for asn in exclude:
            view = view.without(asn)
        return view

    def _suppression_target(self, transit: AsPath) -> Optional[int]:
        """The transit AS adjacent to the announcing edge's provider.

        That is the AS the provider exports the prefix to directly — the
        one a ``no_export_to`` community can cut off.  In the observed
        path it is the *last* transit ASN (closest to the origin).
        """
        return transit.asns[-1] if transit.asns else None
