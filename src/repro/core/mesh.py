"""From Tango of 2 to Tango of N (paper Section 6).

The pairwise session is the building block; with N participating edges the
same tunnels compose into a RON-like overlay: traffic from A to C may go
direct over any of A–C's discovered paths, or *relay* through a member B
(decapsulated and re-encapsulated at B's Tango switch), buying path
diversity the direct BGP graph doesn't expose.

This module is control-plane-level: it reasons over the per-pair path
sets and their measured one-way delays (which the pairwise machinery
produces) to answer the Section 6 questions — how much diversity and how
much delay improvement does each additional member buy?
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterable, Optional

from ..validate import check_fields, int_in, non_negative

__all__ = ["MeshPath", "MeshRoute", "TangoMesh"]

#: Per-relay processing cost: decapsulate, select, re-encapsulate at the
#: relay's border switch.  Programmable switches do this at line rate, so
#: the cost is one store-and-forward, not software overlay milliseconds.
DEFAULT_RELAY_OVERHEAD_S = 200e-6


@dataclass(frozen=True)
class MeshPath:
    """One direct wide-area path between a member pair (one direction)."""

    src: str
    dst: str
    label: str
    delay_s: float = field(metadata={"check": non_negative})

    def __post_init__(self) -> None:
        check_fields(self)


@dataclass(frozen=True)
class MeshRoute:
    """A composed route: a sequence of direct paths through members."""

    hops: tuple[MeshPath, ...]
    relay_overhead_s: float

    @property
    def src(self) -> str:
        return self.hops[0].src

    @property
    def dst(self) -> str:
        return self.hops[-1].dst

    @property
    def relays(self) -> tuple[str, ...]:
        return tuple(hop.dst for hop in self.hops[:-1])

    @property
    def total_delay_s(self) -> float:
        return (
            sum(hop.delay_s for hop in self.hops)
            + len(self.relays) * self.relay_overhead_s
        )

    @property
    def label(self) -> str:
        return " | ".join(
            f"{hop.src}->{hop.dst}:{hop.label}" for hop in self.hops
        )


class TangoMesh:
    """A set of edges with pairwise Tango sessions between them.

    Members and their pairwise path sets are registered explicitly (they
    come from pairwise discovery); route enumeration then answers
    diversity/latency questions.
    """

    def __init__(self, relay_overhead_s: float = DEFAULT_RELAY_OVERHEAD_S) -> None:
        non_negative("relay_overhead_s", relay_overhead_s)
        self.relay_overhead_s = relay_overhead_s
        self._members: set[str] = set()
        self._paths: dict[tuple[str, str], list[MeshPath]] = {}

    # -- construction -----------------------------------------------------------

    def add_member(self, name: str) -> None:
        self._members.add(name)

    def add_paths(
        self, src: str, dst: str, labeled_delays: Iterable[tuple[str, float]]
    ) -> None:
        """Register one direction's discovered paths between two members."""
        for name in (src, dst):
            if name not in self._members:
                raise KeyError(f"{name!r} is not a mesh member; add it first")
        if src == dst:
            raise ValueError("src and dst must differ")
        paths = [
            MeshPath(src=src, dst=dst, label=label, delay_s=delay)
            for label, delay in labeled_delays
        ]
        self._paths[(src, dst)] = paths

    def direct_paths(self, src: str, dst: str) -> list[MeshPath]:
        return list(self._paths.get((src, dst), []))

    # -- route enumeration ---------------------------------------------------------

    def routes(self, src: str, dst: str, max_relays: int = 1) -> list[MeshRoute]:
        """All routes from ``src`` to ``dst`` using up to ``max_relays``.

        Routes are returned sorted by total delay, best first.  Relay
        candidates are mesh members with sessions to both sides; each hop
        independently picks any of the pair's direct paths, so diversity
        multiplies.
        """
        int_in(0)("max_relays", max_relays)
        routes = [
            MeshRoute(hops=(p,), relay_overhead_s=self.relay_overhead_s)
            for p in self.direct_paths(src, dst)
        ]
        others = [m for m in self._members if m not in (src, dst)]
        for count in range(1, max_relays + 1):
            for relays in itertools.permutations(others, count):
                waypoints = (src, *relays, dst)
                legs = [
                    self.direct_paths(a, b)
                    for a, b in zip(waypoints, waypoints[1:])
                ]
                if any(not leg for leg in legs):
                    continue
                for combo in itertools.product(*legs):
                    routes.append(
                        MeshRoute(
                            hops=tuple(combo),
                            relay_overhead_s=self.relay_overhead_s,
                        )
                    )
        routes.sort(key=lambda r: r.total_delay_s)
        return routes

    def best_route(
        self, src: str, dst: str, max_relays: int = 1
    ) -> Optional[MeshRoute]:
        """Lowest-delay route, or None when unreachable."""
        routes = self.routes(src, dst, max_relays)
        return routes[0] if routes else None

    def diversity(self, src: str, dst: str, max_relays: int = 1) -> int:
        """How many distinct routes the mesh exposes for this pair."""
        return len(self.routes(src, dst, max_relays))

    def diversity_gain(self, src: str, dst: str, max_relays: int = 1) -> float:
        """Best-route delay improvement vs the pair's BGP-default path.

        Returns the (non-negative) seconds saved; 0.0 when the direct
        default is already optimal or no routes exist.
        """
        direct = self.direct_paths(src, dst)
        if not direct:
            return 0.0
        default_delay = direct[0].delay_s  # index 0 = BGP default
        best = self.best_route(src, dst, max_relays)
        if best is None:
            return 0.0
        return max(default_delay - best.total_delay_s, 0.0)
