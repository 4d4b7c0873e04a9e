"""Deterministic fixed-step fluid congestion engine.

Pushes aggregate offered load (from :mod:`repro.traffic.demand`) through
the Tango tunnels of an established deployment, computing per-tunnel
utilization, queueing-delay inflation, and loss beyond capacity, and
feeding the results into the *existing* telemetry path:

* per-tunnel delay samples land in the receiver gateway's ``inbound``
  :class:`~repro.telemetry.store.MeasurementStore` (with the calibrated
  clock offset applied), so the deployment's ``TelemetryMirror`` reports
  them back to the sender and every delay-based selector
  (``LowestDelaySelector``, ``HysteresisSelector``, ...) works unchanged;
* aggregate delivered/lost packet counts land in the sender's
  ``SequenceTracker`` via :meth:`record_aggregate`, so ``LossMonitor``,
  ``LossAwareSelector`` and ``QuarantinePolicy`` see fluid-mode loss.

The congestion model is a fluid queue with a Pollaczek–Khinchine
stochastic term: below capacity the expected M/D/1 wait
``rho / (2 (1 - rho)) * service`` applies; above capacity a fluid
backlog grows at ``(offered - capacity)`` until the buffer bound
(``capacity * buffer_delay_s``), after which the excess is lost —
yielding the classic steady-state overload loss ``1 - 1/rho`` and a
delay inflation of one full buffer drain.  Both regimes are validated
against the packet-level :class:`~repro.netsim.queueing.QueuedLink` by
:mod:`repro.traffic.equivalence`.

Scale: flows are aggregated into per-(flow-class, tunnel) buckets of
*float* counts, so a step costs O(classes x tunnels) regardless of how
many million concurrent flows the buckets represent.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional

from repro.netsim.packet import TANGO_UDP_PORT, Ipv6Header, Packet, UdpHeader

from .demand import DemandModel, FlowClass

__all__ = [
    "FluidEngine",
    "SplitResolver",
    "TunnelLoad",
    "fluid_wait_s",
    "fluid_overload_loss",
]

#: Utilization cap for the stochastic (P-K) wait term: beyond capacity
#: the *fluid backlog* models the delay growth, so the stochastic term
#: is clamped instead of diverging.
RHO_WAIT_CAP = 0.995

#: A sample whose loss reaches this level is treated as a blackhole: no
#: telemetry sample is recorded, so staleness detection fires exactly as
#: it does in packet mode when every probe is dropped.
BLACKHOLE_LOSS = 0.999


def fluid_wait_s(rho: float, service_s: float) -> float:
    """Expected M/D/1 queueing wait at utilization ``rho``.

    Pollaczek–Khinchine with deterministic service (the packet
    simulator serializes fixed-size packets): ``W = rho / (2 (1 - rho))
    * service``.  Clamped at :data:`RHO_WAIT_CAP` — overload delay is
    carried by the explicit fluid backlog, not this term.
    """
    if service_s < 0:
        raise ValueError("service_s must be >= 0")
    rho = min(max(rho, 0.0), RHO_WAIT_CAP)
    return rho / (2.0 * (1.0 - rho)) * service_s


def fluid_overload_loss(rho: float) -> float:
    """Steady-state loss fraction of a full buffer at utilization ``rho``.

    With offered rate ``rho * C`` and drain rate ``C``, a saturated
    buffer sheds ``1 - 1/rho`` of arrivals; below capacity there is no
    steady-state overload loss.
    """
    if rho <= 1.0:
        return 0.0
    return 1.0 - 1.0 / rho


@dataclass(frozen=True)
class TunnelLoad:
    """One tunnel's load snapshot for one engine step."""

    path_id: int
    label: str
    offered_bps: float
    capacity_bps: float
    utilization: float
    backlog_bits: float
    delay_s: float
    loss: float


class SplitResolver:
    """Per-class split resolution with an unchanged-weights cache.

    Both fluid engines resolve one split per (flow class, step).  For
    static or slowly-refreshing selectors the resolved fractions are
    identical step after step, yet the scalar engine used to rebuild and
    ``sorted()`` the dict every time.  The resolver keys a cache on the
    selector identity plus the *raw* selector output (the weight vector,
    or the chosen path id), so the normalized items are rebuilt only
    when the selector actually moved.  Selectors that implement the
    optional ``split_token(tunnels, now)`` protocol (e.g.
    :class:`~repro.traffic.splitting.WeightedSplitSelector`) shortcut
    even the O(tunnels) weight scan: a stable token means the cached
    items are provably current, and a ``None`` token (refresh due,
    fallback possible) drops to the full path, so policy refresh clocks
    still advance exactly on schedule.  For selectors without a token,
    ``split_weights``/``select`` is invoked every step — only the
    normalization and sort are skipped — so selector-internal state
    (refresh clocks, split counters, flowlet tables) evolves exactly as
    before.

    ``splits_recomputed`` counts rebuilds (the cache observability the
    traffic tests assert on).  A rebuild hands back a *new* items
    tuple, so callers can key derived state on the tuple's identity.
    """

    __slots__ = (
        "sender",
        "tunnels",
        "_packets",
        "_cache",
        "splits_recomputed",
    )

    def __init__(
        self,
        sender: object,
        tunnels: list,
        packets: dict[int, Packet],
    ) -> None:
        self.sender = sender
        self.tunnels = tunnels
        self._packets = packets
        # flow_label -> (selector, raw key, sorted (path_id, fraction) items)
        self._cache: dict[
            int, tuple[object, object, tuple[tuple[int, float], ...]]
        ] = {}
        self.splits_recomputed = 0

    def resolve(
        self, cls: FlowClass, now: float
    ) -> tuple[tuple[int, float], ...]:
        """Sorted ``(path_id, fraction)`` items for one class at ``now``."""
        selector = self.sender.selector
        weights_fn = getattr(selector, "split_weights", None)
        if callable(weights_fn):
            token_fn = getattr(selector, "split_token", None)
            if token_fn is not None:
                token = token_fn(self.tunnels, now)
                if token is not None:
                    cached = self._cache.get(cls.flow_label)
                    if (
                        cached is not None
                        and cached[0] is selector
                        and (cached[1] is token or cached[1] == token)
                    ):
                        return cached[2]
            raw = [max(0.0, float(w)) for w in weights_fn(self.tunnels, now)]
            total = sum(raw)
            if total > 0:
                key: object = tuple(raw)
                if token_fn is not None:
                    key = token_fn(self.tunnels, now) or key
                cached = self._cache.get(cls.flow_label)
                if (
                    cached is not None
                    and cached[0] is selector
                    and cached[1] == key
                ):
                    return cached[2]
                items = tuple(
                    sorted(
                        (t.path_id, w / total)
                        for t, w in zip(self.tunnels, raw)
                    )
                )
                self._remember(cls.flow_label, selector, key, items)
                return items
        chosen = selector.select(self.tunnels, self._packets[cls.flow_label], now)
        key = ("select", chosen.path_id)
        cached = self._cache.get(cls.flow_label)
        if cached is not None and cached[0] is selector and cached[1] == key:
            return cached[2]
        items = ((chosen.path_id, 1.0),)
        self._remember(cls.flow_label, selector, key, items)
        return items

    def _remember(
        self,
        flow_label: int,
        selector: object,
        key: object,
        items: tuple[tuple[int, float], ...],
    ) -> None:
        self._cache[flow_label] = (selector, key, items)
        self.splits_recomputed += 1


class FluidEngine:
    """Fixed-step fluid traffic engine for one direction of a deployment.

    This class carries the scalar step kernel (a Python loop over
    tunnels on its own periodic task, cheapest on the few tunnels a lone
    edge pair really has, and the reference the array kernel is tested
    against); build two-party engines with
    :func:`~repro.traffic.vector.create_fluid_engine`, which picks the
    kernel.  What is per-direction lives here once — demand, class
    buckets, split resolution, traces, counters, :meth:`_evolve`; a
    kernel is where the tunnel queues live (:meth:`_init_queue_state`),
    what steps them (:meth:`_start_stepping`) and
    :meth:`_advance_tunnels`.

    Args:
        deployment: an established scenario deployment (e.g.
            ``VultrDeployment``) exposing ``sim``, ``gateway``,
            ``tunnels``, ``wan_link``, ``peer_of`` and
            ``clock_offset_delta``; optionally ``calibrations``,
            ``attach_traffic_engine`` and — read by the array kernel —
            ``fluid_rows``, the one array state its directions share.
        src: sending edge name (``"ny"`` sends NY→LA).
        demand: the demand model driving offered load.
        step_s: engine step; also the telemetry sampling period.
        default_capacity_bps: capacity for paths whose calibration does
            not declare ``capacity_bps``.
        packet_bytes: wire size used to convert bits to packets for the
            loss ledger and the service time in the P-K term.
        buffer_delay_s: bottleneck buffer depth expressed as drain time
            (buffer_bits = capacity * buffer_delay_s).
        record_traces: keep per-step split/concurrency traces (cheap;
            disable only for very long runs).
    """

    def __init__(
        self,
        deployment: object,
        src: str,
        demand: DemandModel,
        *,
        step_s: float = 0.1,
        default_capacity_bps: float = 10e9,
        packet_bytes: int = 1500,
        buffer_delay_s: float = 0.1,
        record_traces: bool = True,
    ) -> None:
        if step_s <= 0:
            raise ValueError("step_s must be > 0")
        tunnels = list(deployment.tunnels(src))
        peer = deployment.peer_of(src)
        if not tunnels:
            raise ValueError(
                f"no tunnels from {src!r} to {peer!r}: "
                "a fluid engine needs at least one"
            )
        self.deployment = deployment
        self.src = src
        self.demand = demand
        self.step_s = step_s
        self.packet_bytes = packet_bytes
        self.buffer_delay_s = buffer_delay_s
        self.record_traces = record_traces

        self.sim = deployment.sim
        self.sender = deployment.gateway(src)
        self.peer = peer
        self.receiver = deployment.gateway(peer)
        self.tunnels = tunnels
        self._pids: list[int] = [t.path_id for t in tunnels]
        self._offset = deployment.clock_offset_delta(src)

        calibrations = getattr(deployment, "calibrations", {}).get(src, {})
        capacities = []
        for tunnel in tunnels:
            calibration = calibrations.get(tunnel.short_label)
            capacity = getattr(calibration, "capacity_bps", 0.0) or 0.0
            capacities.append(capacity or default_capacity_bps)

        # Per-(flow-class) aggregate buckets: float concurrency counts.
        self._flows: dict[int, float] = {cls.flow_label: 0.0 for cls in demand.classes}
        self._packets: dict[int, Packet] = {
            cls.flow_label: self._synthetic_packet(cls) for cls in demand.classes
        }
        self._resolver = SplitResolver(self.sender, self.tunnels, self._packets)

        self.steps = 0
        self.peak_concurrent_flows = 0.0
        self.split_trace: list[tuple[float, dict[int, float]]] = []
        self.concurrency_trace: list[tuple[float, float]] = []
        self._task = None
        self._last = self.sim.now

        # Last thing that can fail: a kernel may publish the queue state
        # (the array kernel appends it to rows other directions share).
        self._init_queue_state(
            [deployment.wan_link(src, t.short_label) for t in tunnels],
            capacities,
        )
        attach = getattr(deployment, "attach_traffic_engine", None)
        if callable(attach):
            attach(src, self)

    def _init_queue_state(self, links: list, capacities: list[float]) -> None:
        """Allocate this kernel's per-tunnel queue state (tunnel order)."""
        pids = self._pids
        self._links = dict(zip(pids, links))
        self._capacity: dict[int, float] = dict(zip(pids, capacities))
        self._backlog_bits: dict[int, float] = dict.fromkeys(pids, 0.0)
        # Fractional packet carries for the loss ledger, so integer
        # delivered/lost counts conserve totals across steps.
        self._delivered_carry: dict[int, float] = dict.fromkeys(pids, 0.0)
        self._lost_carry: dict[int, float] = dict.fromkeys(pids, 0.0)
        self._loads: dict[int, TunnelLoad] = {}

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def start(self, *, at_equilibrium: bool = True) -> None:
        """Begin stepping; optionally seed buckets at Little's-law level.

        Seeding at equilibrium is what makes "≥1M concurrent flows" hold
        from the first step without simulating a multi-minute warm-up.
        Safe again after :meth:`stop`; an error while already stepping.
        """
        if self._task is not None:
            raise RuntimeError("fluid engine already started")
        now = self.sim.now
        self._task = self._start_stepping(now)
        if at_equilibrium:
            for cls in self.demand.classes:
                self._flows[cls.flow_label] = self.demand.equilibrium_flows(cls, now)
            self.peak_concurrent_flows = max(
                self.peak_concurrent_flows, self.concurrent_flows
            )

    def _start_stepping(self, now: float) -> object:
        """Arm this engine's own periodic step; returns the task."""
        self._last = now
        # call_every fires immediately at `now` unless start is given;
        # the first step must cover one full dt.
        return self.sim.call_every(
            self.step_s, self._step, start=now + self.step_s
        )

    def stop(self) -> None:
        if self._task is not None:
            self._task.stop()
            self._task = None

    # ------------------------------------------------------------------
    # Observables
    # ------------------------------------------------------------------

    @property
    def concurrent_flows(self) -> float:
        """Total modeled concurrent flows across all class buckets."""
        return sum(self._flows[cls.flow_label] for cls in self.demand.classes)

    def flows_for(self, flow_label: int) -> float:
        return self._flows[flow_label]

    @property
    def splits_recomputed(self) -> int:
        """How many times a split was actually rebuilt (cache misses)."""
        return self._resolver.splits_recomputed

    @property
    def last_loads(self) -> dict[int, TunnelLoad]:
        """Per-tunnel load of the latest step (empty before any step)."""
        return self._loads

    def utilization(self, path_id: int) -> float:
        """Last computed utilization of ``path_id`` (0.0 before any step)."""
        load = self.last_loads.get(path_id)
        return load.utilization if load is not None else 0.0

    # ------------------------------------------------------------------
    # Stepping
    # ------------------------------------------------------------------

    def _synthetic_packet(self, cls: FlowClass) -> Packet:
        """A representative packet for selector dispatch.

        Selectors only read the flow label (``ApplicationSelector``) and
        the five-tuple (``FlowletSelector`` keying); one packet per
        class keeps each class a stable flow.
        """
        anchor = self.tunnels[0]
        return Packet(
            headers=[
                Ipv6Header(src=anchor.local_endpoint, dst=anchor.remote_endpoint),
                UdpHeader(sport=49_152 + cls.flow_label, dport=TANGO_UDP_PORT),
            ],
            payload_bytes=max(0, self.packet_bytes - 48),
            flow_label=cls.flow_label,
        )

    def _class_splits(
        self, now: float
    ) -> Iterator[tuple[int, float, tuple[tuple[int, float], ...]]]:
        """``(class position, offered bps, split items)`` per loaded class.

        The surge factor scales the instantaneous per-flow rate too, so
        a demand_surge fault changes load within one step instead of
        waiting a mean flow lifetime for concurrency to ramp.
        """
        for position, cls in enumerate(self.demand.classes):
            rate = (
                self._flows[cls.flow_label]
                * cls.rate_bps
                * self.demand.surge_factor(cls.flow_label, now)
            )
            if rate > 0:
                yield position, rate, self._resolver.resolve(cls, now)

    def _step(self) -> None:
        now = self.sim.now
        dt = now - self._last
        self._last = now
        if dt <= 0:
            return
        self._evolve(now, dt, self._advance_tunnels(now, dt))

    def _evolve(self, now: float, dt: float, offered: list[float]) -> None:
        """The per-direction rest of a step, after the tunnel queues
        advanced under ``offered`` bps per tunnel (tunnel order)."""
        self.steps += 1

        # Evolve class buckets: arrivals minus mean-field departures
        # (flows drain at 1/mean_duration; using per-step heavy-tail
        # draws here would bias the drain upward since E[1/X] >
        # 1/E[X]).  Burstiness enters through the Poisson-scale
        # arrival noise; the heavy-tailed size distribution itself is
        # exposed by DemandModel.size_draw_bytes for per-flow
        # consumers.
        demand, buckets = self.demand, self._flows
        concurrent = 0  # summed as ``concurrent_flows`` sums: 0 + f1 + f2 ...
        for cls in demand.classes:
            flows = buckets[cls.flow_label]
            arrivals = demand.arrivals_between(cls, now - dt, now)
            departures = flows * dt / cls.mean_duration_s
            flows = buckets[cls.flow_label] = max(0.0, flows + arrivals - departures)
            concurrent += flows
        self.peak_concurrent_flows = max(self.peak_concurrent_flows, concurrent)

        if self.record_traces:
            # Left-to-right float sum in tunnel order: part of the
            # bit-identity contract between the kernels.
            total_offered = sum(offered)
            if total_offered > 0:
                split = {
                    pid: off / total_offered
                    for pid, off in zip(self._pids, offered)
                }
            else:
                split = dict.fromkeys(self._pids, 0.0)
            self.split_trace.append((now, split))
            self.concurrency_trace.append((now, concurrent))

    def _advance_tunnels(self, now: float, dt: float) -> list[float]:
        """Advance every tunnel's fluid queue by ``dt``; write telemetry
        and the loss ledger; return offered bps per tunnel (tunnel order).
        """
        offered: dict[int, float] = dict.fromkeys(self._capacity, 0.0)
        for _position, rate, items in self._class_splits(now):
            for path_id, fraction in items:
                offered[path_id] += rate * fraction

        loads: dict[int, TunnelLoad] = {}
        bits_per_packet = self.packet_bytes * 8.0
        for tunnel in self.tunnels:
            pid = tunnel.path_id
            capacity = self._capacity[pid]
            link = self._links[pid]
            rho = offered[pid] / capacity
            service_s = bits_per_packet / capacity

            inflow_bits = offered[pid] * dt
            backlog = self._backlog_bits[pid] + inflow_bits - capacity * dt
            buffer_bits = capacity * self.buffer_delay_s
            lost_bits = 0.0
            if backlog > buffer_bits:
                lost_bits = backlog - buffer_bits
                backlog = buffer_bits
            backlog = max(backlog, 0.0)
            self._backlog_bits[pid] = backlog

            overload_loss = lost_bits / inflow_bits if inflow_bits > 0 else 0.0
            base_loss = link.loss.loss_probability(now)
            loss = 1.0 - (1.0 - base_loss) * (1.0 - overload_loss)

            base_delay = link.delay.delay_at(now)
            # Stochastic (P-K) wait plus the fluid backlog drain, capped
            # at one full buffer — a finite queue cannot delay a packet
            # longer than its own drain time.
            queue_wait = min(
                fluid_wait_s(rho, service_s) + backlog / capacity,
                self.buffer_delay_s,
            )
            delay = base_delay + service_s + queue_wait
            loads[pid] = TunnelLoad(
                path_id=pid,
                label=tunnel.short_label,
                offered_bps=offered[pid],
                capacity_bps=capacity,
                utilization=rho,
                backlog_bits=backlog,
                delay_s=delay,
                loss=loss,
            )

            # Telemetry: one delay sample per tunnel per step, recorded
            # at step time (TimeSeries requires monotonic times) in the
            # receiver's clock, mirrored back by the existing
            # TelemetryMirror.  A blackholed tunnel records nothing, so
            # staleness detection fires exactly as in packet mode.
            if loss < BLACKHOLE_LOSS:
                self.receiver.inbound.record(pid, now, delay + self._offset)

            # Loss ledger: aggregate delivered/lost packets into the
            # *sender's* tracker so LossMonitor / LossAwareSelector /
            # QuarantinePolicy become actionable in fluid mode.
            if inflow_bits > 0:
                packets = inflow_bits / bits_per_packet
                lost_f = packets * loss + self._lost_carry[pid]
                delivered_f = packets * (1.0 - loss) + self._delivered_carry[pid]
                lost_n = int(lost_f)
                delivered_n = int(delivered_f)
                self._lost_carry[pid] = lost_f - lost_n
                self._delivered_carry[pid] = delivered_f - delivered_n
                if lost_n or delivered_n:
                    self.sender.tracker.record_aggregate(pid, delivered_n, lost_n)

        self._loads = loads
        return list(offered.values())

    # ------------------------------------------------------------------

    def dominant_path(self, at: Optional[float] = None) -> Optional[int]:
        """Path id carrying the largest offered share at/near time ``at``.

        ``None`` before the first recorded step.  With ``at=None`` the
        latest step is used; otherwise the last trace entry at or before
        ``at``.
        """
        if not self.split_trace:
            return None
        entry = self.split_trace[-1]
        if at is not None:
            for t, split in reversed(self.split_trace):
                if t <= at:
                    entry = (t, split)
                    break
        _, split = entry
        return max(sorted(split), key=lambda pid: split[pid])
