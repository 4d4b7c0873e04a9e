"""Stitched transit tunnels: first-class relay routes through members.

When a pair lacks a disjoint direct path (or its SRLG-diverse backup is
down), the federation composes a relay route through an intermediate
member: an existing src→relay tunnel carries the packet to the relay's
border switch, where a :class:`~repro.dataplane.relay.RelayForwardProgram`
swaps the outer header onto an existing relay→dst tunnel.  The result is
represented as an ordinary :class:`~repro.core.tunnels.TangoTunnel` —
with its own path id, the union of both segments' risk groups plus a
``member:<relay>`` fate tag, and the concatenated transit view — so
selectors, quarantine, SRLG diversity scoring and fast reroute treat it
exactly like a direct route.

For the fluid traffic engine the stitched route is backed by a
:class:`StitchedWanLink`: a virtual WAN link whose delay and loss are
live compositions of the two real segment links.  Blackholing the relay
member's links therefore drives the composed loss to 1 within the same
step — telemetry goes silent, staleness fires, and the sender reroutes,
with no stitching-specific failure handling anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.mesh import DEFAULT_RELAY_OVERHEAD_S
from ..core.tunnels import TangoTunnel
from ..netsim.links import LossModel
from .segments import compose_delay, compose_loss

__all__ = ["StitchedWanLink", "RelayPlan", "build_stitched_tunnel"]


class _ComposedDelay:
    def __init__(self, link: "StitchedWanLink") -> None:
        self._link = link

    def delay_at(self, now: float) -> float:
        link = self._link
        return compose_delay(
            link.seg1.delay.delay_at(now),
            link.seg2.delay.delay_at(now),
            link.overhead_s,
        )


class _ComposedLoss(LossModel):
    """Reads both segments' loss models live — a fault may swap either
    at any moment — so it keeps the base class's promise of no horizon
    beyond the instant asked (:meth:`LossModel.constant_until`)."""

    def __init__(self, link: "StitchedWanLink") -> None:
        self._link = link

    def loss_probability(self, now: float) -> float:
        link = self._link
        return compose_loss(
            link.seg1.loss.loss_probability(now),
            link.seg2.loss.loss_probability(now),
        )


class StitchedWanLink:
    """Virtual WAN link over two real segment links.

    Duck-types the slice of the netsim ``Link`` surface the fluid engine
    consumes (``.name``, ``.delay.delay_at``, ``.loss`` a
    :class:`~repro.netsim.links.LossModel`).
    Both components read the segment links *live* — an
    :class:`~repro.netsim.links.OverrideLoss` blackhole installed on a
    segment by a fault (e.g. ``relay_outage``) is visible through the
    composition on the very next evaluation.
    """

    def __init__(
        self,
        name: str,
        seg1,
        seg2,
        overhead_s: float = DEFAULT_RELAY_OVERHEAD_S,
    ) -> None:
        self.name = name
        self.seg1 = seg1
        self.seg2 = seg2
        self.overhead_s = overhead_s
        self.delay = _ComposedDelay(self)
        self.loss = _ComposedLoss(self)


@dataclass(frozen=True)
class RelayPlan:
    """A chosen relay composition for one ordered pair."""

    src: str
    dst: str
    relay: str
    seg1: TangoTunnel  # src -> relay
    seg2: TangoTunnel  # relay -> dst
    path_id: int
    sport: int
    #: Sum of segment base delays plus the relay swap overhead — the
    #: planning metric (live delay comes from telemetry once running).
    composed_base_delay_s: float


def build_stitched_tunnel(plan: RelayPlan) -> TangoTunnel:
    """Materialize a relay plan as a first-class tunnel.

    The wire coordinates are segment 1's (the packet physically rides
    src→relay first; the relay swap substitutes segment 2's), but the
    path id, source port, risk groups and transit view are the stitched
    route's own — distinct from either segment, so its telemetry,
    quarantine state and fate tags never alias a direct route's.
    """
    seg1, seg2 = plan.seg1, plan.seg2
    if plan.path_id % 64 == 0:
        raise ValueError(
            f"stitched path id {plan.path_id} would alias a BGP-default "
            "id (multiple-of-64 ids are reserved for direction bases)"
        )
    return TangoTunnel(
        path_id=plan.path_id,
        label=f"{seg1.label} | via {plan.relay} | {seg2.label}",
        local_endpoint=seg1.local_endpoint,
        remote_endpoint=seg1.remote_endpoint,
        remote_prefix=seg1.remote_prefix,
        transit_asns=seg1.transit_asns + seg2.transit_asns,
        communities=seg1.communities,
        sport=plan.sport,
        short_label=f"via-{plan.relay}",
        srlgs=seg1.srlgs | seg2.srlgs | {f"member:{plan.relay}"},
    )
