"""Generic two-edge packet-level Tango deployment.

Everything scenario-independent about standing up a pairing lives here:

* hosts and programmable border switches for both edges (clock offsets
  from the edge configs);
* noisy host↔gateway access links (the edge noise Tango's border
  placement excludes from measurements);
* control-plane establishment via :class:`~repro.core.session.TangoSession`;
* one wide-area link per discovered path, FIB-pinned to its route
  prefix, with a delay process supplied by the scenario's calibration
  tables;
* per-path probe streams, data-policy installation, failure injection,
  and the fast (sampled) campaign that provably matches the packet path.

Concrete scenarios (:class:`repro.scenarios.vultr.VultrDeployment`, the
enterprise pairing) provide a BGP topology, a pairing config, and
per-direction calibration tables, and inherit the rest.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

import numpy as np

from ..bgp.network import BgpNetwork
from ..core.config import PairingConfig
from ..core.controller import TangoController
from ..core.gateway import TangoGateway
from ..core.policy import ApplicationSelector, StaticSelector
from ..core.session import SessionState, TangoSession
from ..core.tunnels import TangoTunnel
from ..dataplane.programs import PathSelector
from ..faults.plan import FAULT_KINDS, DeploymentShape
from ..netsim.delaymodels import GaussianJitterDelay
from ..netsim.links import ConstantLoss, Link, WindowedLoss, replace_models
from ..netsim.packet import Packet
from ..netsim.topology import Network
from ..netsim.trace import PacketFactory, ProbeGenerator
from ..resilience.channel import ChannelConfig
from ..resilience.supervisor import Supervisor
from ..srlg import Region, SrlgRegistry
from ..telemetry.store import MeasurementStore
from ..validate import finite, positive

__all__ = ["PacketLevelDeployment", "shape_of"]

#: Default edge-network noise (ms): base and sigma of each access link.
DEFAULT_EDGE_NOISE_MS = (0.6, 0.35)


def shape_of(
    name: str,
    kinds: frozenset[str],
    bgp: BgpNetwork,
    srlg: SrlgRegistry,
    **targets,
) -> DeploymentShape:
    """A :class:`DeploymentShape` whose BGP, risk-group and region
    targets are read off the live ``bgp`` and ``srlg``; ``targets`` are
    the deployment type's own (edges, paths, members)."""
    return DeploymentShape(
        name=name,
        kinds=kinds,
        bgp_neighbors={
            router_name: frozenset(router.neighbors)
            for router_name, router in bgp.routers.items()
        },
        srlg_groups=frozenset(srlg.groups()),
        regions=srlg.regions(),
        **targets,
    )


class PacketLevelDeployment:
    """A two-edge Tango deployment wired end to end.

    Args:
        pairing: the two edges' static configuration.
        bgp: the control plane (unconverged is fine; establishment
            converges it).
        calibrations: per-direction delay calibrations —
            ``{src_edge_name: {path_short_label: PathCalibration}}``.
        include_events: build delay processes with their event overlays.
        instability_loss: elevated loss rate during instability windows
            of paths that carry one (0 disables).
        auth_key: non-empty enables authenticated telemetry.
        edge_noise_ms: (base, sigma) of the access links.
        telemetry_channel: run the feedback loop over the reliable
            sequenced/acked transport with this config instead of the
            idealized lossless mirrors (``None`` keeps PR 1 behavior).
    """

    #: Label in fault-plan problems and lint findings.
    name = "two-party"

    def __init__(
        self,
        pairing: PairingConfig,
        bgp: BgpNetwork,
        calibrations: dict[str, dict[str, object]],
        include_events: bool = True,
        instability_loss: float = 0.0,
        auth_key: bytes = b"",
        edge_noise_ms: tuple[float, float] = DEFAULT_EDGE_NOISE_MS,
        telemetry_channel: Optional[ChannelConfig] = None,
        srlg_regions: Sequence[Region] = (),
    ) -> None:
        for edge in (pairing.a, pairing.b):
            if edge.name not in calibrations:
                raise ValueError(
                    f"no calibration table for direction from {edge.name!r}"
                )
        self.pairing = pairing
        self.bgp = bgp
        self.calibrations = calibrations
        self.include_events = include_events
        self._instability_loss = instability_loss
        self.edge_noise_ms = edge_noise_ms

        self.net = Network()
        self.sim = self.net.sim
        self.hosts = {}
        self.switches = {}
        self.gateways = {}
        for edge in (pairing.a, pairing.b):
            self.hosts[edge.name] = self.net.add_host(
                f"host-{edge.name}", clock_offset=edge.clock_offset_s
            )
            switch = self.net.add_switch(
                f"gw-{edge.name}", clock_offset=edge.clock_offset_s
            )
            self.switches[edge.name] = switch
            self.gateways[edge.name] = TangoGateway(switch, edge, auth_key=auth_key)

        #: Failure-domain registry shared by the injector, the
        #: fate-aware data plane, and the controller's fast reroute.
        self.srlg = SrlgRegistry()
        for region in srlg_regions:
            self.srlg.add_region(region)

        # Only edges whose calibrations carry annotations get a tag map;
        # an un-annotated scenario passes None through to build_tunnels
        # and keeps today's tag-free tunnels bit-for-bit.
        srlg_tags = {}
        for edge in (pairing.a, pairing.b):
            tags = {
                label: tuple(getattr(calibration, "srlgs", ()))
                for label, calibration in calibrations[edge.name].items()
            }
            if any(tags.values()):
                srlg_tags[edge.name] = tags
        self.session = TangoSession(
            pairing,
            bgp,
            self.gateways[pairing.a.name],
            self.gateways[pairing.b.name],
            self.sim,
            srlg_tags=srlg_tags,
        )
        self.state: Optional[SessionState] = None
        self._probe_generators: list[ProbeGenerator] = []
        self.telemetry_channel = telemetry_channel
        #: edge name -> attached TangoController (the controller-crash
        #: fault and the supervisor both resolve controllers here).
        self.controllers: dict[str, object] = {}
        self.supervisors: dict[str, Supervisor] = {}
        #: edge name -> armed DefenseStack (see repro.trust.stack); the
        #: chaos campaign and reports resolve defenses here.
        self.defenses: dict[str, object] = {}
        #: edge name -> attached fluid traffic engine (the demand_surge
        #: fault resolves engines here; see repro.traffic.fluid).
        self.traffic_engines: dict[str, object] = {}

    # -- establishment ------------------------------------------------------------

    def establish(self) -> SessionState:
        """Run control-plane establishment and build the data plane."""
        self.state = self.session.establish()
        self._build_edge_links()
        a, b = self.pairing.a.name, self.pairing.b.name
        self._build_wide_area(a, b, self.state.tunnels_a_to_b)
        self._build_wide_area(b, a, self.state.tunnels_b_to_a)
        if self.telemetry_channel is not None:
            self.session.start_reliable_telemetry(self.telemetry_channel)
        else:
            self.session.start_telemetry_mirrors()
        return self.state

    def shape(self) -> DeploymentShape:
        """What a fault plan may target here; every kind but the
        federation's ``relay_outage`` applies."""
        edges = (self.pairing.a.name, self.pairing.b.name)
        return shape_of(
            self.name,
            FAULT_KINDS - {"relay_outage"},
            self.bgp,
            self.srlg,
            edges=edges,
            path_labels={edge: tuple(self.path_labels(edge)) for edge in edges},
            route_prefix_counts={
                edge: len(self.pairing.edge(edge).route_prefixes) for edge in edges
            },
        )

    def _build_edge_links(self) -> None:
        base, sigma = self.edge_noise_ms
        for seed_offset, edge in enumerate((self.pairing.a, self.pairing.b)):
            host = self.hosts[edge.name]
            switch = self.switches[edge.name]
            self.net.add_link(
                f"{host.name}->{switch.name}",
                host,
                switch,
                delay=GaussianJitterDelay(
                    base * 1e-3, sigma * 1e-3, seed=31 + seed_offset
                ),
            )
            self.net.add_link(
                f"{switch.name}->{host.name}",
                switch,
                host,
                delay=GaussianJitterDelay(
                    base * 1e-3, sigma * 1e-3, seed=33 + seed_offset
                ),
            )
            switch.fib.add_route(
                edge.host_prefix, self.net.links[f"{switch.name}->{host.name}"]
            )

    def _build_wide_area(
        self, src: str, dst: str, tunnels: list[TangoTunnel]
    ) -> None:
        src_switch = self.switches[src]
        dst_switch = self.switches[dst]
        table = self.calibrations[src]
        for tunnel in tunnels:
            calibration = table.get(tunnel.short_label)
            if calibration is None:
                raise KeyError(
                    f"no calibration for path {tunnel.short_label!r} "
                    f"({src}->{dst}); have {sorted(table)}"
                )
            model = calibration.build(self.include_events)
            loss = None
            if (
                self._instability_loss > 0
                and getattr(calibration, "with_instability", False)
                and self.include_events
            ):
                loss = WindowedLoss.around_events(
                    model.events, baseline=0.0, elevated=self._instability_loss
                )
            link = self.net.add_link(
                f"{src}->{dst}:{tunnel.short_label}",
                src_switch,
                dst_switch,
                delay=model,
                loss=loss,
                srlgs=tuple(sorted(tunnel.srlgs)),
            )
            if tunnel.srlgs:
                self.srlg.tag_link(link.name, *tunnel.srlgs)
            src_switch.fib.add_route(tunnel.remote_prefix, link)
            if tunnel.is_default_path:
                remote_host = self.pairing.edge(dst).host_prefix
                src_switch.fib.add_route(remote_host, link)

    # -- workload helpers ---------------------------------------------------------

    def peer_of(self, edge_name: str) -> str:
        return self.pairing.peer_of(edge_name).name

    def sender_for(self, edge_name: str) -> Callable[[Packet], None]:
        """A send callable injecting packets at ``edge_name``'s host."""
        link = self.net.links[f"host-{edge_name}->gw-{edge_name}"]

        def send(packet: Packet) -> None:
            packet.created_at = self.sim.now
            link.transmit(self.sim, packet)

        return send

    def gateway(self, edge_name: str) -> TangoGateway:
        return self.gateways[edge_name]

    def tunnels(self, src: str) -> list[TangoTunnel]:
        """Tunnels for traffic originating at ``src``."""
        if self.state is None:
            raise RuntimeError("call establish() first")
        if src == self.pairing.a.name:
            return self.state.tunnels_a_to_b
        return self.state.tunnels_b_to_a

    def set_data_policy(self, src: str, selector: PathSelector) -> None:
        """Install the forwarding policy for data traffic from ``src``,
        preserving any pinned per-path probe streams."""
        self.gateway(src).set_data_selector(selector)

    def start_path_probes(
        self, src: str, interval_s: Optional[float] = None
    ) -> ProbeGenerator:
        """One probe stream pinned to each path from ``src`` (the paper
        ran "a ping along each path every 10ms"), all carried by one
        generator: a round sends one probe per path, in tunnel order."""
        if self.state is None:
            raise RuntimeError("call establish() first")
        interval = self.pairing.probe_interval_s if interval_s is None else interval_s
        gateway = self.gateway(src)
        dst_edge = self.pairing.peer_of(src)
        selector = gateway.selector
        if not isinstance(selector, ApplicationSelector):
            selector = ApplicationSelector(default=selector)
            gateway.set_selector(selector)
        factories = []
        for index, tunnel in enumerate(self.tunnels(src)):
            flow_label = 1000 + tunnel.path_id
            selector.assign(flow_label, StaticSelector(index))
            factories.append(
                PacketFactory(
                    src=str(self.pairing.edge(src).host_address(2)),
                    dst=str(dst_edge.host_address(2)),
                    sport=52000 + index,
                    dport=52000,
                    payload_bytes=16,
                    flow_label=flow_label,
                )
            )
        generator = ProbeGenerator(self.sim, factories, self.sender_for(src), interval)
        # Probes end in the generator's count at the peer host, not its inbox.
        peer_host = self.hosts[dst_edge.name]
        for factory in factories:
            peer_host.bind(factory.flow_label, generator.count_delivery)
        # An edge with no tunnels has nothing to probe: schedule no rounds.
        if factories:
            generator.start()
            self._probe_generators.append(generator)
        return generator

    def stop_probes(self) -> None:
        for generator in self._probe_generators:
            generator.stop()
        self._probe_generators.clear()

    # -- controllers & supervision ---------------------------------------------------

    def start_controller(
        self, edge_name: str, selector: PathSelector, **kwargs
    ) -> TangoController:
        """Install the data policy ``selector``, then build, start and
        attach ``edge_name``'s :class:`TangoController` (``kwargs`` are
        its keyword parameters); a ``journal`` also gets it supervised."""
        self.set_data_policy(edge_name, selector)
        controller = TangoController(self.gateway(edge_name), self.sim, **kwargs)
        controller.start()
        self.attach_controller(edge_name, controller)
        if kwargs.get("journal") is not None:
            self.supervise(edge_name)
        return controller

    def attach_controller(
        self, edge_name: str, controller: TangoController
    ) -> None:
        """Register ``edge_name``'s controller so faults and supervisors
        can find it (the ``controller_crash`` fault's handle)."""
        self.pairing.edge(edge_name)  # validates the name
        self.controllers[edge_name] = controller

    def controller_for(self, edge_name: str) -> TangoController:
        """The controller attached at ``edge_name`` (LookupError with the
        attached names otherwise)."""
        try:
            return self.controllers[edge_name]
        except KeyError:
            raise LookupError(
                f"no controller attached at edge {edge_name!r}; attached: "
                f"{sorted(self.controllers)}"
            ) from None

    # -- traffic engines -------------------------------------------------------------

    def attach_traffic_engine(self, edge_name: str, engine: object) -> None:
        """Register the fluid traffic engine sending *from* ``edge_name``
        so faults (``demand_surge``) and reports can find it.  Called
        automatically by :class:`repro.traffic.vector.VectorFluidEngine`."""
        self.pairing.edge(edge_name)  # validates the name
        self.traffic_engines[edge_name] = engine

    def traffic_engine(self, edge_name: str) -> object:
        """The traffic engine sending from ``edge_name`` (LookupError
        with the attached names otherwise)."""
        try:
            return self.traffic_engines[edge_name]
        except KeyError:
            raise LookupError(
                f"no traffic engine attached at edge {edge_name!r}; "
                f"attached: {sorted(self.traffic_engines)}"
            ) from None

    def supervise(self, edge_name: str) -> Supervisor:
        """Start a supervisor over ``edge_name``'s attached controller; it
        restarts the controller from the controller's own journal.  The
        supervisor is returned and kept in :attr:`supervisors`."""
        supervisor = Supervisor(self.controller_for(edge_name), self.sim)
        supervisor.start()
        self.supervisors[edge_name] = supervisor
        return supervisor

    # -- failure injection ----------------------------------------------------------

    def fail_path(self, src: str, label: str, at: float) -> None:
        """Blackhole one wide-area path at simulation time ``at``."""
        link = self.wan_link(src, label)
        self.sim.schedule_at(
            at, lambda: replace_models(link, loss=ConstantLoss(1.0))
        )

    def wan_link(self, src: str, label: str) -> Link:
        """The wide-area link carrying ``src``'s path ``label`` — the fault
        injector's handle (:meth:`shape` lists the labels)."""
        return self.net.links[f"{src}->{self.peer_of(src)}:{label}"]

    # -- fast measurement campaign ---------------------------------------------------

    def clock_offset_delta(self, src: str) -> float:
        """Receiver-minus-sender clock offset for the given direction."""
        return (
            self.pairing.peer_of(src).clock_offset_s
            - self.pairing.edge(src).clock_offset_s
        )

    def run_fast_campaign(
        self,
        src: str,
        t0_s: float,
        t1_s: float,
        interval_s: Optional[float] = None,
    ) -> tuple[MeasurementStore, MeasurementStore]:
        """Sample the direction's delay processes at probe cadence.

        Returns ``(measured, true)`` stores — ``measured`` carries the
        direction's constant clock-offset distortion, ``true`` is the
        simulation-only ground truth.

        Raises:
            ValueError: a time is not finite, ``t1_s`` is not after
                ``t0_s``, or ``interval_s`` is not finite and > 0.
        """
        if not finite("t0_s", t0_s) < finite("t1_s", t1_s):
            raise ValueError(f"need t1 > t0, got [{t0_s}, {t1_s}]")
        interval = (
            self.pairing.probe_interval_s
            if interval_s is None
            else positive("interval_s", interval_s)
        )
        table = self.calibrations[src]
        offset = self.clock_offset_delta(src)
        times = np.arange(t0_s, t1_s, interval)
        tunnels = self.tunnels(src)
        # One column per tunnel; each store holds it as one column block.
        delays = np.empty((times.size, len(tunnels)), dtype=np.float64)
        for column, tunnel in enumerate(tunnels):
            model = table[tunnel.short_label].build(self.include_events)
            delays[:, column] = model.delays(times)
        path_ids = [tunnel.path_id for tunnel in tunnels]
        true = MeasurementStore()
        true.extend_block(path_ids, times, delays)
        delays += offset
        measured = MeasurementStore()
        measured.extend_block(path_ids, times, delays)
        return measured, true

    def path_labels(self, src: str) -> list[str]:
        """Short labels of the direction's paths, discovery order."""
        return [t.short_label for t in self.tunnels(src)]
