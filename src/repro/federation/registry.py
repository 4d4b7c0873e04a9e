"""The federation registry: a live control plane for N cooperating edges.

"It takes N": the registry owns the full mesh of pairwise
:class:`~repro.core.session.TangoSession`\\ s over **one** shared
:class:`~repro.bgp.network.BgpNetwork`, and keeps a single process able
to simulate dozens of edges by sharing every heavyweight resource:

* one :class:`~repro.bgp.snapshot.SnapshotCache` dedupes convergence
  work across all pairs' establishments — discovery is run
  *announcer-major* in a dedicated phase, so every announcer's
  suppression states recur across its N−1 observers and are restored
  instead of re-propagated;
* one :class:`~repro.netsim.ticks.TickScheduler` carries every member's
  controller, every rebalancer and every segment composer on a single
  recurring heap event, and a second one every session's telemetry
  mirrors;
* one :class:`~repro.traffic.vector.FluidRows` array state holds every
  driven direction's tunnels — direct and stitched alike — and advances
  them all on a third.

Within a grid instant the three fire in the order they were created and
re-armed: fluid step, mirror syncs in session order, control wheel —
which is why :meth:`FederationRegistry.start_telemetry` creates the
telemetry wheel (before the control plane exists) and not
``start_control_plane``.

Path-id space is partitioned so all sessions coexist in the members'
shared gateways: unordered pair *k* owns ids ``[128k, 128k+128)`` (two
direction bases), and stitched relay tunnels draw from a block above all
pairs.  Each member's route prefixes are likewise partitioned into
per-peer slices, so concurrent pins from different pairs can never
contend for one prefix's community set.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..bgp.attributes import RouteAttributes
from ..bgp.snapshot import SnapshotCache
from ..core.config import EdgeConfig, PairingConfig
from ..core.controller import QuarantinePolicy, TangoController
from ..core.discovery import DiscoveryResult, PathDiscovery
from ..core.gateway import TangoGateway
from ..core.mesh import DEFAULT_RELAY_OVERHEAD_S, TangoMesh
from ..core.multipop import MultiPopStore
from ..core.session import TangoSession
from ..core.tunnels import TangoTunnel, build_tunnels
from ..dataplane.relay import RelayBinding, attach_relay_program
from ..faults.plan import DeploymentShape
from ..netsim.packet import TangoHeader
from ..netsim.ticks import TickScheduler
from ..netsim.topology import Network
from ..scenarios.deployment import shape_of
from ..scenarios.topologies import LiveFederationScenario
from ..scenarios.vultr import PathCalibration
from ..srlg.registry import SrlgRegistry
from ..traffic.demand import DemandModel, FlowClass
from ..traffic.splitting import (
    LoadAwareWeights,
    SplitRebalancer,
    WeightedSplitSelector,
)
from ..traffic.vector import FluidRows, VectorFluidEngine
from .segments import Segment, SegmentComposer
from .stitching import RelayPlan, StitchedWanLink, build_stitched_tunnel

__all__ = [
    "FederationState",
    "StitchResult",
    "PairView",
    "FederationRegistry",
    "check_path_id_space",
]

#: Fault kinds a federation arms: clocks live on the member switches and
#: risk groups in the shared registry; the other kinds' paths, prefixes,
#: mirrors, controllers, engines and BGP-to-link sync are per pair.
_FEDERATION_KINDS = frozenset(
    {"clock_step", "clock_drift", "srlg_failure", "maintenance_window", "relay_outage"}
)

#: Path-id block per unordered pair: two direction bases of stride 64.
_PAIR_ID_STRIDE = 128
#: Stitched tunnels take ids 1..63 of the block after the last pair's.
_MAX_STITCHED = 63
#: Source-port region stitched tunnels draw from (direct tunnels use
#: ``build_tunnels``' 40000+ region).
_RELAY_SPORT_BASE = 41000


def check_path_id_space(pair_count: int) -> None:
    """Refuse an id allocation for ``pair_count`` pairs (plus the stitched
    block after them) that would not fit ``TangoHeader.path_id``."""
    last = _PAIR_ID_STRIDE * pair_count + _MAX_STITCHED
    if last > TangoHeader.MAX_PATH_ID:
        raise ValueError(
            f"{pair_count} pairs need path ids up to {last}, past the "
            f"Tango header's {TangoHeader.MAX_PATH_ID}"
        )


@dataclass
class FederationState:
    """Everything federation-wide establishment produced."""

    #: Unordered pairs in creation order (index = path-id block owner).
    pairs: list[tuple[str, str]]

    @property
    def pair_count(self) -> int:
        return len(self.pairs)


@dataclass
class StitchResult:
    """One installed stitched relay tunnel and its observers."""

    plan: RelayPlan
    tunnel: TangoTunnel
    link: StitchedWanLink
    composer: SegmentComposer


class PairView:
    """One ordered pair of the federation, shaped like a deployment.

    The fluid engine (and anything else written against the two-party
    deployment protocol: ``sim``, ``gateway``, ``peer_of``, ``tunnels``,
    ``wan_link``, ``clock_offset_delta``, ``calibrations``) runs over a
    federation through this adapter, unmodified.  Stitched tunnels are
    part of :meth:`tunnels`' answer, so creating an engine *after*
    stitching makes the relay route a first-class engine path.
    ``fluid_rows`` names the registry's one array state, so every
    array-kernel direction built over any pair's view shares it.
    """

    def __init__(self, registry: "FederationRegistry", a: str, b: str) -> None:
        self.registry = registry
        self.a = a
        self.b = b
        self.sim = registry.sim
        self.fluid_rows = registry.traffic
        self.calibrations = {
            a: registry.calibrations_for(a, b),
            b: registry.calibrations_for(b, a),
        }

    def gateway(self, name: str) -> TangoGateway:
        return self.registry.gateways[name]

    def peer_of(self, name: str) -> str:
        if name == self.a:
            return self.b
        if name == self.b:
            return self.a
        raise KeyError(f"{name!r} is not part of pair ({self.a}, {self.b})")

    def tunnels(self, src: str) -> list[TangoTunnel]:
        return self.registry.direction_tunnels(src, self.peer_of(src))

    def wan_link(self, src: str, short_label: str):
        return self.registry.wan_link(src, self.peer_of(src), short_label)

    def clock_offset_delta(self, src: str) -> float:
        peer = self.registry.scenario.member(self.peer_of(src))
        edge = self.registry.scenario.member(src)
        return peer.clock_offset_s - edge.clock_offset_s


class FederationRegistry:
    """Owns N members' gateways, sessions, wheel, engines and faults."""

    def __init__(
        self,
        scenario: LiveFederationScenario,
        *,
        probe_interval_s: float = 0.010,
        report_interval_s: float = 0.100,
        control_interval_s: float = 0.100,
        share_snapshots: bool = True,
        snapshot_capacity: int = 256,
    ) -> None:
        """``share_snapshots=False`` gives every pair its own private
        convergence cache — the *independent pairwise establishment*
        baseline the E20 dedup gate compares against."""
        self.scenario = scenario
        self.bgp = scenario.bgp
        self.net = Network()
        self.sim = self.net.sim
        self.srlg = SrlgRegistry()
        self.share_snapshots = share_snapshots
        self.snapshots: Optional[SnapshotCache] = (
            SnapshotCache(capacity=snapshot_capacity) if share_snapshots else None
        )
        self.probe_interval_s = probe_interval_s
        self.report_interval_s = report_interval_s
        self.control_interval_s = control_interval_s

        self.switches = {}
        self.gateways: dict[str, TangoGateway] = {}
        for config in scenario.members:
            switch = self.net.add_switch(
                f"{config.name}-sw", clock_offset=config.clock_offset_s
            )
            self.switches[config.name] = switch
            self.gateways[config.name] = TangoGateway(switch, config)

        self.sessions: dict[tuple[str, str], TangoSession] = {}
        self.state: Optional[FederationState] = None
        #: The control wheel (controllers, rebalancers, composers).
        self.scheduler: Optional[TickScheduler] = None
        #: The telemetry wheel (every session's mirror syncs).
        self.telemetry_scheduler: Optional[TickScheduler] = None
        self.controllers: dict[str, TangoController] = {}
        self.rebalancers: dict[tuple[str, str], SplitRebalancer] = {}
        #: Every driven direction's tunnel queues, advanced in one step.
        self.traffic = FluidRows(self.sim, report_interval_s)
        #: (src, dst) -> that direction's handle on :attr:`traffic`.
        self.engines: dict[tuple[str, str], VectorFluidEngine] = {}
        #: Control-wheel registrations of rebalancers and composers.
        self._wheel_handles: list = []
        self.stitches: dict[tuple[str, str], StitchResult] = {}
        #: (src, dst) -> {short_label: calibration} — per ordered pair,
        #: because AS-path short labels repeat across a member's peers.
        self._calibrations: dict[tuple[str, str], dict[str, PathCalibration]] = {}
        self._stitched_links: dict[tuple[str, str, str], StitchedWanLink] = {}
        self._extra_tunnels: dict[tuple[str, str], list[TangoTunnel]] = {}
        self._member_links: dict[str, list] = {
            name: [] for name in scenario.member_names
        }
        self._relay_count = 0
        self._telemetry_started = False

    # -- establishment ------------------------------------------------------------

    def establish(self) -> FederationState:
        """Establish every pairwise session over the shared network.

        Shared-cache mode batches the control-plane work into three
        phases so announcer state recurs: (A) all host-prefix
        originations, one convergence; (B) all discoveries,
        announcer-major, each probing the announcer's one canonical
        prefix; (C) all pins, one convergence, then tunnel installation
        per pair.  Baseline mode instead runs each session's own
        ``establish()`` sequentially — the independent-pairwise cost the
        dedup gate measures against.
        """
        if self.state is not None:
            raise RuntimeError("federation already established")
        names = self.scenario.member_names
        per = self.scenario.prefixes_per_peer
        pairs = [
            (names[i], names[j])
            for i in range(len(names))
            for j in range(i + 1, len(names))
        ]
        check_path_id_space(len(pairs))
        for pair_index, (a, b) in enumerate(pairs):
            a_cfg = self.scenario.peer_slice(a, b)
            b_cfg = self.scenario.peer_slice(b, a)
            pairing = PairingConfig(
                a_cfg,
                b_cfg,
                probe_interval_s=self.probe_interval_s,
                report_interval_s=self.report_interval_s,
                control_interval_s=self.control_interval_s,
            )
            self.sessions[(a, b)] = TangoSession(
                pairing,
                self.bgp,
                self.gateways[a],
                self.gateways[b],
                self.sim,
                # Empty per-edge maps (not None) so establishment stamps
                # the automatic transit:<AS> fate tags.
                srlg_tags={a: {}, b: {}},
                snapshots=self.snapshots,
                direction_base_a_to_b=pair_index * _PAIR_ID_STRIDE,
                direction_base_b_to_a=pair_index * _PAIR_ID_STRIDE + 64,
            )
        if self.share_snapshots:
            self._establish_phased(per)
        else:
            for session in self.sessions.values():
                session.establish(max_paths=per)
        self._build_wide_area()
        self.state = FederationState(pairs=pairs)
        return self.state

    def _establish_phased(self, max_paths: int) -> None:
        assert self.snapshots is not None
        # Phase A: every host prefix, one convergence.
        for config in self.scenario.members:
            self.bgp.router(config.tenant_router).originate(config.host_prefix)
        self.snapshots.converge(self.bgp)
        # Phase B: all discoveries, announcer-major.  One canonical
        # probe prefix per announcer means the announcer's suppression
        # sequence produces identical network configurations for every
        # observer — cache hits instead of re-convergences.
        discoveries: dict[tuple[str, str], DiscoveryResult] = {}
        for announcer in self.scenario.member_names:
            config = self.scenario.member(announcer)
            probe = self.scenario.probe_prefixes[announcer]
            for observer in self.scenario.member_names:
                if observer == announcer:
                    continue
                discoveries[(observer, announcer)] = PathDiscovery(
                    self.bgp, config.provider_asn, snapshots=self.snapshots
                ).discover(
                    announcer=config.tenant_router,
                    observer=self.scenario.member(observer).tenant_router,
                    probe_prefix=probe,
                    max_paths=max_paths,
                )
        # Phase C: all pins into per-peer slices, one convergence, then
        # tunnels.  Slices are disjoint, so no pin disturbs another
        # pair's pinned state.
        for (a, b), session in self.sessions.items():
            self._pin(session.pairing.b, discoveries[(a, b)])
            self._pin(session.pairing.a, discoveries[(b, a)])
        self.snapshots.converge(self.bgp)
        for (a, b), session in self.sessions.items():
            d_ab = discoveries[(a, b)]
            d_ba = discoveries[(b, a)]
            tunnels_ab = build_tunnels(
                d_ab.paths,
                local_route_prefixes=session.pairing.a.route_prefixes,
                remote_route_prefixes=session.pairing.b.route_prefixes,
                direction_base=session.direction_base_a_to_b,
                srlg_tags={},
            )
            tunnels_ba = build_tunnels(
                d_ba.paths,
                local_route_prefixes=session.pairing.b.route_prefixes,
                remote_route_prefixes=session.pairing.a.route_prefixes,
                direction_base=session.direction_base_b_to_a,
                srlg_tags={},
            )
            session.install_established(d_ab, d_ba, tunnels_ab, tunnels_ba)

    def _pin(self, edge: EdgeConfig, discovery: DiscoveryResult) -> None:
        """Pin each discovered path to one of ``edge``'s slice prefixes."""
        router = self.bgp.router(edge.tenant_router)
        for path in discovery.paths:
            router.originate(
                edge.route_prefixes[path.index],
                RouteAttributes().add_communities(large=path.communities),
            )

    def _build_wide_area(self) -> None:
        """One netsim link per (direction, tunnel), calibrated and tagged."""
        for (a, b), session in self.sessions.items():
            state = session.state
            assert state is not None
            directions = (
                (a, b, state.discovery_a_to_b, state.tunnels_a_to_b),
                (b, a, state.discovery_b_to_a, state.tunnels_b_to_a),
            )
            for src, dst, discovery, tunnels in directions:
                cal_map = self._calibrations.setdefault((src, dst), {})
                for path, tunnel in zip(discovery.paths, tunnels):
                    calibration = self.scenario.calibration(
                        src, dst, path, tunnel.short_label
                    )
                    cal_map[tunnel.short_label] = calibration
                    link = self.net.add_link(
                        f"{src}->{dst}:{tunnel.short_label}",
                        self.switches[src],
                        self.switches[dst],
                        delay=calibration.build(),
                    )
                    self.srlg.tag_link(
                        link.name,
                        *tunnel.srlgs,
                        f"member:{src}",
                        f"member:{dst}",
                    )
                    self.switches[src].fib.add_route(tunnel.remote_prefix, link)
                    if tunnel.is_default_path:
                        self.switches[src].fib.add_route(
                            self.scenario.member(dst).host_prefix, link
                        )
                    self._member_links[src].append(link)
                    self._member_links[dst].append(link)

    # -- lookups ------------------------------------------------------------------

    def session_for(self, x: str, y: str) -> TangoSession:
        """The (unordered) session joining two members."""
        i, j = self.scenario.member_index(x), self.scenario.member_index(y)
        key = (x, y) if i < j else (y, x)
        try:
            return self.sessions[key]
        except KeyError:
            raise KeyError(f"no session between {x!r} and {y!r}") from None

    def direction_tunnels(self, src: str, dst: str) -> list[TangoTunnel]:
        """Tunnels carrying ``src``→``dst`` traffic: direct + stitched."""
        session = self.session_for(src, dst)
        state = session.state
        if state is None:
            raise RuntimeError("federation not established")
        direct = (
            state.tunnels_a_to_b
            if src == session.pairing.a.name
            else state.tunnels_b_to_a
        )
        return list(direct) + list(self._extra_tunnels.get((src, dst), []))

    def wan_link(self, src: str, dst: str, short_label: str):
        stitched = self._stitched_links.get((src, dst, short_label))
        if stitched is not None:
            return stitched
        return self.net.links[f"{src}->{dst}:{short_label}"]

    def calibrations_for(self, src: str, dst: str) -> dict[str, PathCalibration]:
        return self._calibrations.setdefault((src, dst), {})

    def member_links(self, member: str) -> list:
        """Every real WAN link touching ``member`` — the blast radius a
        ``relay_outage`` fault blackholes."""
        try:
            return list(self._member_links[member])
        except KeyError:
            raise ValueError(
                f"{member!r} is not a federation member; members: "
                f"{self.scenario.member_names}"
            ) from None

    def shape(self) -> DeploymentShape:
        """What a fault plan may target here: member switches' clocks,
        risk groups (transit and member fate tags included) and members
        that have WAN links."""
        names = self.scenario.member_names
        return shape_of(
            f"federation-{len(names)}",
            _FEDERATION_KINDS,
            self.bgp,
            self.srlg,
            edges=tuple(names),
            members=tuple(name for name in names if self._member_links[name]),
        )

    def snapshot_stats(self) -> dict:
        """Convergence-cache counters (the CI-visible dedup evidence)."""
        caches = (
            [self.snapshots]
            if self.snapshots is not None
            else [s.snapshots for s in self.sessions.values()]
        )
        hits = sum(c.hits for c in caches)
        misses = sum(c.misses for c in caches)
        bypasses = sum(c.bypasses for c in caches)
        return {
            "shared": self.share_snapshots,
            "hits": hits,
            "misses": misses,
            "bypasses": bypasses,
            "hit_rate": hits / max(hits + misses, 1),
        }

    # -- stitched relay tunnels ----------------------------------------------------

    def plan_relay(
        self, src: str, dst: str, relay: Optional[str] = None
    ) -> RelayPlan:
        """Pick the relay composition with the lowest composed base delay.

        Candidate relays are members with established tunnels on both
        segments; pass ``relay`` to force one.  Segment tunnels are the
        base-delay-best of each direction.
        """
        if self.state is None:
            raise RuntimeError("establish() before planning relays")
        candidates = (
            [relay]
            if relay is not None
            else [n for n in self.scenario.member_names if n not in (src, dst)]
        )
        best: Optional[RelayPlan] = None
        for member in candidates:
            if member in (src, dst):
                raise ValueError(f"relay {member!r} is an endpoint of the pair")
            seg1 = self._best_segment(src, member)
            seg2 = self._best_segment(member, dst)
            if seg1 is None or seg2 is None:
                continue
            composed = (
                self._base_delay_s(src, member, seg1)
                + self._base_delay_s(member, dst, seg2)
                + self.scenario_overhead_s
            )
            plan = RelayPlan(
                src=src,
                dst=dst,
                relay=member,
                seg1=seg1,
                seg2=seg2,
                path_id=0,  # allocated at install time
                sport=0,
                composed_base_delay_s=composed,
            )
            if best is None or composed < best.composed_base_delay_s:
                best = plan
        if best is None:
            raise LookupError(
                f"no member can relay {src}->{dst}: need established "
                "tunnels on both segments"
            )
        return best

    @property
    def scenario_overhead_s(self) -> float:
        return DEFAULT_RELAY_OVERHEAD_S

    def _best_segment(self, src: str, dst: str) -> Optional[TangoTunnel]:
        try:
            tunnels = [
                t
                for t in self.direction_tunnels(src, dst)
                if not t.short_label.startswith("via-")
            ]
        except KeyError:
            return None
        if not tunnels:
            return None
        return min(tunnels, key=lambda t: self._base_delay_s(src, dst, t))

    def _base_delay_s(self, src: str, dst: str, tunnel: TangoTunnel) -> float:
        calibration = self._calibrations[(src, dst)][tunnel.short_label]
        return calibration.base_ms * 1e-3

    def stitch_pair(
        self, src: str, dst: str, relay: Optional[str] = None
    ) -> StitchResult:
        """Install a stitched relay tunnel for ``src``→``dst`` traffic.

        The stitched route becomes part of the direction's tunnel set
        (selectors, quarantine, diversity and FRR see it unmodified),
        backed by a composed virtual WAN link for the fluid engine and a
        header-swap binding at the relay switch for packet mode.  Its
        telemetry joins the pair's existing mirror, and a
        :class:`SegmentComposer` is wired over the two segments' own
        series.
        """
        if (src, dst) in self.stitches:
            raise ValueError(f"{src}->{dst} already has a stitched tunnel")
        if (src, dst) in self.engines:
            raise RuntimeError(
                f"{src}->{dst} already carries traffic and its engine would "
                "never see the relay route: stitch before starting traffic"
            )
        plan = self.plan_relay(src, dst, relay=relay)
        self._relay_count += 1
        if self._relay_count > _MAX_STITCHED:
            raise RuntimeError(
                f"stitched-tunnel id block exhausted ({_MAX_STITCHED} max)"
            )
        offset = self._relay_count
        assert self.state is not None
        base = _PAIR_ID_STRIDE * self.state.pair_count
        plan = RelayPlan(
            src=plan.src,
            dst=plan.dst,
            relay=plan.relay,
            seg1=plan.seg1,
            seg2=plan.seg2,
            path_id=base + offset,
            sport=_RELAY_SPORT_BASE + offset,
            composed_base_delay_s=plan.composed_base_delay_s,
        )
        tunnel = build_stitched_tunnel(plan)

        # Data plane: available to src's traffic for dst's hosts, plus
        # the header swap at the relay.
        dst_cfg = self.scenario.member(dst)
        self.gateways[src].install_tunnels(dst_cfg.host_prefix, [tunnel])
        self._extra_tunnels.setdefault((src, dst), []).append(tunnel)
        attach_relay_program(self.switches[plan.relay]).bind(
            RelayBinding(
                path_id=tunnel.path_id,
                arrival_endpoint=plan.seg1.remote_endpoint,
                next_src=plan.seg2.local_endpoint,
                next_dst=plan.seg2.remote_endpoint,
                next_sport=plan.seg2.sport,
            )
        )

        # Fluid plane: composed virtual link + capacity calibration.
        link = StitchedWanLink(
            f"{src}->{dst}:{tunnel.short_label}",
            self.wan_link(src, plan.relay, plan.seg1.short_label),
            self.wan_link(plan.relay, dst, plan.seg2.short_label),
        )
        self._stitched_links[(src, dst, tunnel.short_label)] = link
        seg1_cal = self._calibrations[(src, plan.relay)][plan.seg1.short_label]
        seg2_cal = self._calibrations[(plan.relay, dst)][plan.seg2.short_label]
        self.calibrations_for(src, dst)[tunnel.short_label] = PathCalibration(
            label=tunnel.short_label,
            base_ms=plan.composed_base_delay_s * 1e3,
            sigma_ms=0.0,
            capacity_bps=min(seg1_cal.capacity_bps, seg2_cal.capacity_bps),
        )
        self.srlg.tag_link(link.name, *tunnel.srlgs)

        # Telemetry: the stitched id joins the pair's mirror scope, and
        # the segments' own series compose into an end-to-end estimate.
        self._extend_mirror_scope(src, dst, tunnel.path_id)
        src_offset = self.scenario.member(src).clock_offset_s
        offsets = MultiPopStore(reference_pop=src)
        for config in self.scenario.members:
            offsets.set_offset(
                config.name, config.clock_offset_s - src_offset
            )
        composer = SegmentComposer(
            tunnel.path_id,
            [
                Segment(
                    sender_pop=src,
                    receiver_pop=plan.relay,
                    store=self.gateways[plan.relay].inbound,
                    path_id=plan.seg1.path_id,
                ),
                Segment(
                    sender_pop=plan.relay,
                    receiver_pop=dst,
                    store=self.gateways[dst].inbound,
                    path_id=plan.seg2.path_id,
                ),
            ],
            offsets,
        )
        if self.scheduler is not None:
            self._wheel_handles.append(
                composer.attach(self.scheduler, name=f"segments:{src}->{dst}")
            )
        result = StitchResult(
            plan=plan, tunnel=tunnel, link=link, composer=composer
        )
        self.stitches[(src, dst)] = result
        return result

    def _extend_mirror_scope(self, src: str, dst: str, path_id: int) -> None:
        if not self._telemetry_started:
            return
        mirror, _task = self.session_for(src, dst).mirror_to(src)
        mirror.extend_scope(path_id)

    # -- runtime ------------------------------------------------------------------

    def start_telemetry(self) -> None:
        """Start every session's scoped mirror pair, all on one wheel
        (created here, so it fires before a control wheel started later:
        controllers read what this instant's syncs delivered)."""
        if self._telemetry_started:
            raise RuntimeError("telemetry already started")
        self.telemetry_scheduler = TickScheduler(self.sim, self.report_interval_s)
        for session in self.sessions.values():
            session.start_telemetry_mirrors(
                scoped=True, scheduler=self.telemetry_scheduler
            )
        self._telemetry_started = True
        for (src, dst), result in self.stitches.items():
            self._extend_mirror_scope(src, dst, result.tunnel.path_id)

    def start_control_plane(
        self,
        *,
        staleness_s: float = 0.5,
        quarantine: Optional[QuarantinePolicy] = None,
        focus: Optional[list[tuple[str, str]]] = None,
    ) -> TickScheduler:
        """One shared wheel: every member's controller, every focused
        direction's rebalancer, every stitched composer.

        ``focus`` directions additionally get a load-aware weighted
        split selector (rebalanced on the wheel) so relay routes
        participate in split decisions, and their send-side member is
        where reroute behaviour is observed.
        """
        if self.scheduler is not None:
            raise RuntimeError("control plane already started")
        if quarantine is None:
            quarantine = QuarantinePolicy(unhealthy_ticks=1)
        self.scheduler = TickScheduler(self.sim, self.control_interval_s)
        for src, dst in focus or []:
            tunnels = self.direction_tunnels(src, dst)
            gateway = self.gateways[src]
            # The rebalancer pushes fresh static weights each wheel round;
            # the selector itself stays policy-free (a dynamic policy
            # would shadow the pushed weights).
            selector = WeightedSplitSelector(refresh_s=self.control_interval_s)
            rebalancer = SplitRebalancer(
                selector, LoadAwareWeights(gateway.outbound), tunnels
            )
            gateway.set_data_selector(selector)
            self._wheel_handles.append(
                rebalancer.attach(self.scheduler, name=f"rebalance:{src}->{dst}")
            )
            self.rebalancers[(src, dst)] = rebalancer
        for name in self.scenario.member_names:
            controller = TangoController(
                self.gateways[name],
                self.sim,
                interval_s=self.control_interval_s,
                staleness_s=staleness_s,
                quarantine=quarantine,
                srlg_registry=self.srlg,
                scheduler=self.scheduler,
            )
            controller.start()
            self.controllers[name] = controller
        for result in self.stitches.values():
            self._wheel_handles.append(
                result.composer.attach(
                    self.scheduler,
                    name=f"segments:{result.plan.src}->{result.plan.dst}",
                )
            )
        return self.scheduler

    def start_traffic(
        self,
        src: str,
        dst: str,
        demand: Optional[DemandModel] = None,
    ) -> VectorFluidEngine:
        """Drive one direction: its tunnels (stitched routes included —
        start traffic *after* stitching) join :attr:`traffic` and step
        with every other driven direction; returns the direction's
        handle.  Once the simulation has run, a direction can join only
        at a step instant (see :class:`~repro.traffic.vector.FluidRows`).
        """
        if (src, dst) in self.engines:
            raise ValueError(f"{src}->{dst} already carries traffic")
        if demand is None:
            pair_seed = (
                self.scenario.member_index(src) * 64
                + self.scenario.member_index(dst)
            )
            demand = DemandModel(
                classes=(
                    FlowClass(
                        name=f"{src}->{dst}",
                        flow_label=1,
                        arrival_rate_per_s=200.0,
                        mean_size_bytes=125_000,
                        rate_bps=2e6,
                    ),
                ),
                seed=pair_seed,
            )
        view = PairView(self, *self._pair_key(src, dst))
        fluid = VectorFluidEngine(
            view, src, demand, step_s=self.report_interval_s
        )
        fluid.start(at_equilibrium=True)
        self.engines[(src, dst)] = fluid
        return fluid

    def _pair_key(self, x: str, y: str) -> tuple[str, str]:
        i, j = self.scenario.member_index(x), self.scenario.member_index(y)
        return (x, y) if i < j else (y, x)

    def analytical_mesh(self) -> TangoMesh:
        """Project the live federation onto the analytical
        :class:`TangoMesh` (diversity / delay-gain reporting), using the
        calibrated base delays of every established direct tunnel."""
        mesh = TangoMesh()
        for name in self.scenario.member_names:
            mesh.add_member(name)
        for (a, b), session in self.sessions.items():
            state = session.state
            if state is None:
                continue
            for src, dst, tunnels in (
                (a, b, state.tunnels_a_to_b),
                (b, a, state.tunnels_b_to_a),
            ):
                mesh.add_paths(
                    src,
                    dst,
                    [
                        (t.short_label, self._base_delay_s(src, dst, t))
                        for t in tunnels
                    ],
                )
        return mesh

    def stop(self) -> None:
        """Teardown: traffic, controllers, rebalancers, composers,
        sessions and both wheels — nothing of the registry's stays
        queued in the simulator.  Idempotent (every ``stop()`` below
        is), so double-stops are safe."""
        self.traffic.stop()
        for controller in self.controllers.values():
            controller.stop()
        for handle in self._wheel_handles:
            handle.stop()
        for session in self.sessions.values():
            session.stop()
        for wheel in (self.telemetry_scheduler, self.scheduler):
            if wheel is not None:
                wheel.stop()
