"""Provider traffic-control communities (the Vultr dialect).

The Tango prototype shapes announcement propagation with the BGP
communities Vultr offers its BGP customers [AS20473 BGP customer guide]:
a tenant attaches, e.g., *"do not announce to AS 2914"* and Vultr's border
routers honor it when exporting.  Prior work (Streibelt et al., IMC'18;
Birge-Lee et al., CCS'19) shows such communities are widely supported —
this is the paper's deployability argument.

We model the mechanism precisely:

* Action communities are :class:`~repro.bgp.attributes.LargeCommunity`
  values whose ``global_admin`` is the provider's ASN.
* Only routers of that provider *interpret* them (at export time); all
  other ASes carry them transitively and ignore them.
* Supported actions: suppress export to a specific AS, suppress export to
  all transit/peer neighbors, and prepend N times to a specific AS.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..frozen import slot_init
from .attributes import LargeCommunity, RouteAttributes

__all__ = [
    "ACTION_NO_EXPORT_TO",
    "ACTION_NO_EXPORT_ALL",
    "ACTION_PREPEND_TO",
    "no_export_to",
    "ExportAction",
    "TrafficControlInterpreter",
]

#: data1 values for the action encoding (modeled on Vultr's 6000-series).
ACTION_NO_EXPORT_TO = 6000
ACTION_NO_EXPORT_ALL = 6001
ACTION_PREPEND_TO = 6600  # 6600 + n encodes "prepend n times", n in 1..3


def no_export_to(provider_asn: int, target_asn: int) -> LargeCommunity:
    """Community telling ``provider_asn`` not to export to ``target_asn``.

    This is the knob Tango's path discovery turns: suppress the currently
    observed transit, wait for convergence, observe the next-best path.
    """
    return LargeCommunity(provider_asn, ACTION_NO_EXPORT_TO, target_asn)


@slot_init
@dataclass(frozen=True, slots=True)
class ExportAction:
    """Outcome of interpreting traffic-control communities for one export."""

    allow: bool = True
    prepend: int = 0


#: The outcome of every export no community acts on, built once.
_EXPORT_UNCHANGED = ExportAction()


class TrafficControlInterpreter:
    """Export-time community interpreter for one provider AS.

    Instantiated by provider routers; :meth:`evaluate` is called per
    (route, target neighbor) pair during export processing.
    """

    def __init__(self, provider_asn: int) -> None:
        self.provider_asn = provider_asn

    def evaluate(
        self,
        attributes: RouteAttributes,
        target_asn: int,
        target_is_customer: bool = False,
    ) -> ExportAction:
        """Interpret the route's communities for an export to ``target_asn``.

        Communities addressed to other providers are ignored (transitive
        baggage), matching real deployments.  ``NO_EXPORT_ALL`` keeps the
        route within the provider's customer cone, so customer sessions
        are exempt from it.
        """
        allow = True
        prepend = 0
        for community in attributes.large_communities:
            if community.global_admin != self.provider_asn:
                continue
            if (
                community.data1 == ACTION_NO_EXPORT_TO
                and community.data2 == target_asn
            ):
                allow = False
            elif community.data1 == ACTION_NO_EXPORT_ALL and not target_is_customer:
                allow = False
            elif (
                ACTION_PREPEND_TO < community.data1 <= ACTION_PREPEND_TO + 3
                and community.data2 == target_asn
            ):
                prepend = max(prepend, community.data1 - ACTION_PREPEND_TO)
        if allow and not prepend:
            return _EXPORT_UNCHANGED
        return ExportAction(allow=allow, prepend=prepend)
