"""Routing policy: relationships, Gao–Rexford rules, and policy chains.

Interdomain routing economics are captured by the classic Gao–Rexford
model: an AS exports customer-learned (and self-originated) routes to
everyone, but peer- and provider-learned routes only to customers.  This
"valley-free" discipline is what limits an edge network's path visibility —
the very limitation Tango's cooperative prefix announcements work around —
so the simulator enforces it faithfully.
"""

from __future__ import annotations

import enum
from typing import Callable, Optional

from .attributes import RouteAttributes

__all__ = [
    "Relationship",
    "default_local_pref",
    "gao_rexford_allows_export",
    "ImportPolicy",
    "ExportPolicy",
]


class Relationship(enum.Enum):
    """Business relationship to a neighbor, from the local AS's viewpoint."""

    CUSTOMER = "customer"  # neighbor pays us
    PEER = "peer"  # settlement-free
    PROVIDER = "provider"  # we pay neighbor

    def inverse(self) -> "Relationship":
        """The relationship as seen from the other side."""
        if self is Relationship.CUSTOMER:
            return Relationship.PROVIDER
        if self is Relationship.PROVIDER:
            return Relationship.CUSTOMER
        return Relationship.PEER


#: Conventional LOCAL_PREF tiers: prefer routes that earn money.
_LOCAL_PREF = {
    Relationship.CUSTOMER: 300,
    Relationship.PEER: 200,
    Relationship.PROVIDER: 100,
}


def default_local_pref(relationship: Relationship) -> int:
    """LOCAL_PREF assigned on import, by neighbor relationship."""
    return _LOCAL_PREF[relationship]


def gao_rexford_allows_export(
    learned_from: Optional[Relationship], exporting_to: Relationship
) -> bool:
    """Valley-free export test.

    Args:
        learned_from: relationship of the neighbor the route was learned
            from; ``None`` for locally originated routes.
        exporting_to: relationship of the neighbor being exported to.

    Returns:
        True when export is permitted: originated and customer-learned
        routes go everywhere; peer/provider-learned routes go to customers
        only.
    """
    if learned_from is None or learned_from is Relationship.CUSTOMER:
        return True
    return exporting_to is Relationship.CUSTOMER


#: An import filter: (neighbor_name, prefix, attributes) -> accept?
ImportPolicy = Callable[[str, object, RouteAttributes], bool]
#: An export filter: (neighbor_name, prefix, attributes) -> accept?
ExportPolicy = Callable[[str, object, RouteAttributes], bool]
