"""A Tango pairing: control-plane establishment plus telemetry mirroring.

"It takes two": a :class:`TangoSession` joins two gateways.  Establishment
runs the paper's Section 4.1 procedure for both directions:

1. announce both edges' *host* prefixes plainly (reachability for
   everyone, including non-Tango endpoints);
2. run iterative suppression discovery in each direction;
3. pin each discovered path to one of the destination edge's route
   prefixes by re-announcing that prefix with the path's community set;
4. build the per-direction tunnels and install them in the gateways.

The session also owns the cooperative feedback loop the paper's routing
component needs: one-way delays are *measured at the receiver*, but the
routing decision for that direction is made at the *sender*.  A
:class:`TelemetryMirror` therefore periodically replays each gateway's
inbound measurements into its peer's outbound store — in deployment this
report rides piggybacked on reverse-direction traffic, so the cost is
freshness (one report interval plus the reverse path delay), not packets.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping, Optional

from ..bgp.attributes import RouteAttributes
from ..bgp.network import BgpNetwork
from ..bgp.snapshot import SnapshotCache
from ..netsim.events import Simulator
from ..netsim.ticks import TickScheduler
from ..telemetry.store import MeasurementStore, StoreCursor, TimeSeries
from ..validate import non_negative
from .config import EdgeConfig, PairingConfig
from .discovery import DiscoveryResult, PathDiscovery
from .gateway import TangoGateway
from .tunnels import TangoTunnel, build_tunnels

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..resilience.channel import ChannelConfig, ReliableTelemetryChannel

__all__ = ["TelemetryMirror", "SessionState", "TangoSession"]

#: Path-id bases for the two directions of a pairing.
DIRECTION_A_TO_B = 0
DIRECTION_B_TO_A = 64


class TelemetryMirror:
    """Replays one store's new samples into another, with latency.

    Samples keep their original timestamps; a sample taken at time ``t``
    becomes visible in the sink once the mirror runs at or after
    ``t + latency_s``.  That models a report piggybacked on reverse
    traffic: the information is as fresh as the reverse path allows.
    """

    def __init__(
        self,
        source: MeasurementStore,
        sink: MeasurementStore,
        latency_s: float = 0.0,
        path_ids: Optional[set[int]] = None,
    ) -> None:
        """``path_ids`` restricts mirroring to those ids; ``None`` (the
        default) mirrors every id in the source — the two-party case,
        where source and sink belong to exactly one pairing.  A
        federation scopes each session's mirror to its own tunnel ids so
        N sessions sharing per-member stores do not cross-feed."""
        non_negative("latency_s", latency_s)
        self.source = source
        self.sink = sink
        self.latency_s = latency_s
        self._cursor = StoreCursor(source, path_ids)
        #: The sink series each path is copied into, looked up on its
        #: first block (the store keeps a series once it creates one).
        self._targets: dict[int, TimeSeries] = {}
        self.samples_mirrored = 0
        self.samples_discarded = 0

    @property
    def path_ids(self) -> Optional[frozenset[int]]:
        """The scope (``None``: unscoped); the cursor owns it."""
        return self._cursor.scope

    def extend_scope(self, path_id: int) -> None:
        """Mirror ``path_id`` too (a stitched relay tunnel joining after
        establishment); no-op unscoped, where every id is followed."""
        self._cursor.extend_scope(path_id)

    def discard_before(self, t: float) -> int:
        """Drop all not-yet-mirrored samples older than ``t`` — lost reports.

        Fault injection uses this when un-silencing a mirror: reports that
        would have been delivered during the outage window are gone, they
        are not batched up and replayed.  Returns the number discarded.
        """
        discarded = self._cursor.discard_before(t)
        self.samples_discarded += discarded
        return discarded

    def sync(self, now: float) -> int:
        """Copy every source sample older than the latency horizon.

        Returns:
            Number of samples copied this call.
        """
        sink, targets = self.sink, self._targets
        copied = 0
        for path_id, series, start, end in self._cursor.take(now - self.latency_s):
            target = targets.get(path_id)
            if target is None:
                target = targets[path_id] = sink.series(path_id)
            elif sink._written:
                sink._sync()
            if end - start == 1:  # the common block: one report interval
                target.append(series._times.item(start), series._values.item(start))
            else:
                target.extend_from(series, start, end)
            copied += end - start
        self.samples_mirrored += copied
        return copied


@dataclass
class SessionState:
    """Everything establishment produced."""

    discovery_a_to_b: DiscoveryResult
    discovery_b_to_a: DiscoveryResult
    tunnels_a_to_b: list[TangoTunnel]
    tunnels_b_to_a: list[TangoTunnel]

    @property
    def path_counts(self) -> tuple[int, int]:
        return (len(self.tunnels_a_to_b), len(self.tunnels_b_to_a))


class TangoSession:
    """The cooperative pairing between two Tango gateways."""

    def __init__(
        self,
        pairing: PairingConfig,
        bgp: BgpNetwork,
        gateway_a: TangoGateway,
        gateway_b: TangoGateway,
        sim: Simulator,
        srlg_tags: Optional[
            Mapping[str, Mapping[str, tuple[str, ...]]]
        ] = None,
        snapshots: Optional[SnapshotCache] = None,
        direction_base_a_to_b: int = DIRECTION_A_TO_B,
        direction_base_b_to_a: int = DIRECTION_B_TO_A,
    ) -> None:
        """``srlg_tags`` maps sending-edge name -> path ``short_label``
        -> risk-group names; establishment stamps them (plus automatic
        ``transit:<AS>`` tags) onto that direction's tunnels.  Omit for
        tag-free legacy behaviour.

        ``snapshots`` injects a convergence cache shared beyond this
        pairing (a federation dedupes discovery across N sessions this
        way); ``None`` keeps the private two-party cache.  The direction
        bases carve this pairing's slice of path-id space — a federation
        assigns each pair a disjoint 128-id block so every session's
        tunnels coexist in the members' shared gateways."""
        if gateway_a.config.name != pairing.a.name:
            raise ValueError("gateway_a does not match pairing.a")
        if gateway_b.config.name != pairing.b.name:
            raise ValueError("gateway_b does not match pairing.b")
        self.pairing = pairing
        self.bgp = bgp
        self.gateway_a = gateway_a
        self.gateway_b = gateway_b
        self.sim = sim
        self.srlg_tags = dict(srlg_tags) if srlg_tags else {}
        self.direction_base_a_to_b = direction_base_a_to_b
        self.direction_base_b_to_a = direction_base_b_to_a
        self.state: Optional[SessionState] = None
        #: Convergence snapshot cache shared by both directions'
        #: discoveries — each one's closing withdraw-and-reconverge
        #: restores the converged base state instead of re-propagating.
        self.snapshots = snapshots if snapshots is not None else SnapshotCache()
        self._mirror_tasks = []
        #: edge name -> (mirror feeding that edge's outbound store, its task).
        self._mirrors_by_edge: dict[str, tuple[TelemetryMirror, object]] = {}
        #: edge name -> reliable channel feeding that edge (subset of above).
        self._channels_by_edge: dict[str, object] = {}

    # -- control plane ------------------------------------------------------------

    def establish(self, max_paths: int = 16) -> SessionState:
        """Run both directions' discovery and wire up the tunnels."""
        a, b = self.pairing.a, self.pairing.b

        # Step 0: host prefixes are plain announcements.
        self.bgp.router(a.tenant_router).originate(a.host_prefix)
        self.bgp.router(b.tenant_router).originate(b.host_prefix)
        self.snapshots.converge(self.bgp)

        # Discovery per direction.  The destination edge announces; the
        # source edge observes (paths carry source -> destination traffic).
        discovery_ab = PathDiscovery(
            self.bgp, b.provider_asn, snapshots=self.snapshots
        ).discover(
            announcer=b.tenant_router,
            observer=a.tenant_router,
            probe_prefix=b.route_prefixes[0],
            max_paths=max_paths,
        )
        discovery_ba = PathDiscovery(
            self.bgp, a.provider_asn, snapshots=self.snapshots
        ).discover(
            announcer=a.tenant_router,
            observer=b.tenant_router,
            probe_prefix=a.route_prefixes[0],
            max_paths=max_paths,
        )

        # Pin each path to a route prefix by announcing with its
        # communities.  Through the cache: the pinned state is the base
        # every later fault replay and rediscovery returns to.
        self._pin_route_prefixes(b, discovery_ab)
        self._pin_route_prefixes(a, discovery_ba)
        self.snapshots.converge(self.bgp)

        tunnels_ab = build_tunnels(
            discovery_ab.paths,
            local_route_prefixes=a.route_prefixes,
            remote_route_prefixes=b.route_prefixes,
            direction_base=self.direction_base_a_to_b,
            srlg_tags=self.srlg_tags.get(a.name),
        )
        tunnels_ba = build_tunnels(
            discovery_ba.paths,
            local_route_prefixes=b.route_prefixes,
            remote_route_prefixes=a.route_prefixes,
            direction_base=self.direction_base_b_to_a,
            srlg_tags=self.srlg_tags.get(b.name),
        )
        return self.install_established(
            discovery_ab, discovery_ba, tunnels_ab, tunnels_ba
        )

    def install_established(
        self,
        discovery_ab: DiscoveryResult,
        discovery_ba: DiscoveryResult,
        tunnels_ab: list[TangoTunnel],
        tunnels_ba: list[TangoTunnel],
    ) -> SessionState:
        """Adopt externally-produced establishment results.

        The federation registry drives the BGP phases itself (batched
        across all pairs so the shared snapshot cache dedupes announcer
        states); each session then installs the resulting tunnels and
        reaches the established state without re-running any control-
        plane work.  :meth:`establish` funnels through here too, so the
        two entry points cannot drift.
        """
        self.gateway_a.install_tunnels(self.pairing.b.host_prefix, tunnels_ab)
        self.gateway_b.install_tunnels(self.pairing.a.host_prefix, tunnels_ba)
        self.state = SessionState(
            discovery_a_to_b=discovery_ab,
            discovery_b_to_a=discovery_ba,
            tunnels_a_to_b=tunnels_ab,
            tunnels_b_to_a=tunnels_ba,
        )
        return self.state

    def _pin_route_prefixes(
        self, edge: EdgeConfig, discovery: DiscoveryResult
    ) -> None:
        """Announce the destination edge's route prefixes, one per path."""
        router = self.bgp.router(edge.tenant_router)
        for path in discovery.paths:
            router.originate(
                edge.route_prefixes[path.index],
                RouteAttributes().add_communities(large=path.communities),
            )

    # -- telemetry feedback ----------------------------------------------------------

    def start_telemetry_mirrors(
        self, scoped: bool = False, scheduler: Optional[TickScheduler] = None
    ) -> tuple[TelemetryMirror, TelemetryMirror]:
        """Begin the cooperative measurement feedback loop.

        Mirror latency is the report interval (piggyback freshness); the
        reverse-path propagation component is dominated by it at the
        paper's parameters.  This is the idealized lossless feed; see
        :meth:`start_reliable_telemetry` for the transport that can
        actually lose, delay, reorder and duplicate reports.

        ``scoped=True`` restricts each mirror to this session's own
        tunnel path-ids (requires an established state) — mandatory when
        the gateways' stores are shared across a federation's sessions,
        harmless for a lone pairing.

        ``scheduler`` registers both syncs on a shared tick wheel (a
        federation runs every session's mirrors on one heap event, in
        registration order) instead of one dedicated task each; the
        handles :meth:`mirror_to` returns pause, resume and stop alike.
        """
        path_ids_to_a: Optional[set[int]] = None
        path_ids_to_b: Optional[set[int]] = None
        if scoped:
            if self.state is None:
                raise RuntimeError(
                    "scoped mirrors need an established session "
                    "(tunnel ids define the scope)"
                )
            # The mirror feeding A reflects what B *received*: the a->b
            # direction's ids.  Symmetrically for B.
            path_ids_to_a = {t.path_id for t in self.state.tunnels_a_to_b}
            path_ids_to_b = {t.path_id for t in self.state.tunnels_b_to_a}
        latency = self.pairing.report_interval_s
        mirror_to_a = TelemetryMirror(
            source=self.gateway_b.inbound,
            sink=self.gateway_a.outbound,
            latency_s=latency,
            path_ids=path_ids_to_a,
        )
        mirror_to_b = TelemetryMirror(
            source=self.gateway_a.inbound,
            sink=self.gateway_b.outbound,
            latency_s=latency,
            path_ids=path_ids_to_b,
        )
        interval = self.pairing.report_interval_s
        if scheduler is None:
            task_a = self.sim.call_every(
                interval, lambda: mirror_to_a.sync(self.sim.now)
            )
            task_b = self.sim.call_every(
                interval, lambda: mirror_to_b.sync(self.sim.now)
            )
        else:
            task_a = scheduler.register_every_s(
                interval, mirror_to_a.sync, name=f"mirror->{self.pairing.a.name}"
            )
            task_b = scheduler.register_every_s(
                interval, mirror_to_b.sync, name=f"mirror->{self.pairing.b.name}"
            )
        self._mirror_tasks += [task_a, task_b]
        self._mirrors_by_edge[self.pairing.a.name] = (mirror_to_a, task_a)
        self._mirrors_by_edge[self.pairing.b.name] = (mirror_to_b, task_b)
        return mirror_to_a, mirror_to_b

    def start_reliable_telemetry(
        self, config: Optional[ChannelConfig] = None
    ) -> tuple[ReliableTelemetryChannel, ReliableTelemetryChannel]:
        """Begin the feedback loop over the sequenced, acked transport.

        Each direction's reports ride a
        :class:`~repro.resilience.channel.ReliableTelemetryChannel`
        simulated over the WAN — loss, delay, reordering and duplication
        are survivable rather than impossible.  Registered under the same
        per-edge handles as plain mirrors, so :meth:`mirror_to` (and the
        ``telemetry_drop`` fault built on it) works unchanged.

        Returns:
            ``(channel_to_a, channel_to_b)``.
        """
        from ..resilience.channel import ChannelConfig, ReliableTelemetryChannel

        if config is None:
            config = ChannelConfig(
                report_interval_s=self.pairing.report_interval_s
            )
        channel_to_a = ReliableTelemetryChannel(
            source=self.gateway_b.inbound,
            sink=self.gateway_a.outbound,
            sim=self.sim,
            config=config,
            seed=0,
            name=f"telemetry->{self.pairing.a.name}",
        )
        channel_to_b = ReliableTelemetryChannel(
            source=self.gateway_a.inbound,
            sink=self.gateway_b.outbound,
            sim=self.sim,
            config=config,
            seed=1,
            name=f"telemetry->{self.pairing.b.name}",
        )
        task_a = channel_to_a.start()
        task_b = channel_to_b.start()
        self._mirror_tasks += [task_a, task_b]
        self._mirrors_by_edge[self.pairing.a.name] = (channel_to_a, task_a)
        self._mirrors_by_edge[self.pairing.b.name] = (channel_to_b, task_b)
        self._channels_by_edge[self.pairing.a.name] = channel_to_a
        self._channels_by_edge[self.pairing.b.name] = channel_to_b
        return channel_to_a, channel_to_b

    def channel_to(self, edge_name: str) -> ReliableTelemetryChannel:
        """The reliable channel feeding ``edge_name`` (the
        ``telemetry_loss`` fault's handle).  LookupError when the session
        runs plain lossless mirrors instead."""
        try:
            return self._channels_by_edge[edge_name]
        except KeyError:
            raise LookupError(
                f"no reliable telemetry channel for edge {edge_name!r}; "
                f"the session runs "
                + (
                    "plain lossless mirrors — establish with a channel "
                    "config (see start_reliable_telemetry)"
                    if not self._channels_by_edge
                    else f"channels for: {sorted(self._channels_by_edge)}"
                )
            ) from None

    def mirror_to(self, edge_name: str) -> tuple[TelemetryMirror, object]:
        """The mirror (and its task) feeding ``edge_name``'s outbound store.

        This is the OWD reflection that edge's policies and health checks
        depend on — the handle a fault injector silences to simulate
        telemetry loss.
        """
        try:
            return self._mirrors_by_edge[edge_name]
        except KeyError:
            raise KeyError(
                f"no mirror for edge {edge_name!r}; started mirrors: "
                f"{sorted(self._mirrors_by_edge)}"
            ) from None

    def stop(self) -> None:
        """Stop mirror tasks (teardown).

        Idempotent: registry teardown stops every session defensively —
        including ones a caller already stopped by hand — so repeat
        calls (and calls on a never-started session) are no-ops.
        """
        tasks, self._mirror_tasks = self._mirror_tasks, []
        for task in tasks:
            task.stop()
        self._mirrors_by_edge.clear()
        self._channels_by_edge.clear()
