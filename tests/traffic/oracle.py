"""The scalar fluid kernel, kept as the bit-equivalence oracle.

This was once the product's ``repro.traffic.fluid.FluidEngine`` (it
keeps the name): a Python loop over tunnels on the engine's own periodic
task, with the queue state in dicts keyed by path id.  Nothing in the
product built it (the registry and the spine construct the array kernel
directly), so a second kernel in ``src/`` could only ever agree with
the first; what it is still good for is *checking* that.  It lives here
as a subclass that replaces where the tunnel queues and the class
buckets live (:meth:`_init_queue_state`), what steps them
(:meth:`start`, :meth:`stop`) and the step
itself: the per-tunnel advance — the closed forms of
:mod:`repro.traffic.fluid`, one tunnel at a time — and the
per-direction rest, class splits one class at a time
(:meth:`_class_splits`) and bucket evolution through
:meth:`~repro.traffic.demand.DemandModel.arrivals_between` plus the
traces (:meth:`_evolve`), as the product ran them per direction before
:class:`~repro.traffic.vector.FluidRows` took them over as array
passes.  Counters and traces are plain attributes here where the
product's are views of its rows.  It ignores a deployment's
``fluid_rows``: one of these per direction, each on its own task, is the
layout ``tests/federation/test_batched_engine.py`` compares the shared
rows against.  What it wrote while it was the product's is frozen in
``golden/scalar_kernel.json``.
"""

from typing import Iterator, Optional

from repro.traffic.fluid import BLACKHOLE_LOSS, TunnelLoad, fluid_wait_s
from repro.traffic.vector import VectorFluidEngine


class FluidEngine(VectorFluidEngine):
    # Plain attributes where the product's are views of its rows (a
    # class attribute shadows the base property, so instances can set).
    steps = 0
    peak_concurrent_flows = 0.0
    split_trace: list = []
    concurrency_trace: list = []

    def _init_queue_state(self, links: list, capacities: list[float]) -> None:
        """Allocate this kernel's per-tunnel queue state (tunnel order)
        and per-class buckets: float concurrency counts."""
        self._flows: dict[int, float] = {
            cls.flow_label: 0.0 for cls in self.demand.classes
        }
        self.split_trace: list[tuple[float, dict[int, float]]] = []
        self.concurrency_trace: list[tuple[float, float]] = []
        pids = self._pids
        self._links = dict(zip(pids, links))
        self._capacity: dict[int, float] = dict(zip(pids, capacities))
        self._backlog_bits: dict[int, float] = dict.fromkeys(pids, 0.0)
        # Fractional packet carries for the loss ledger, so integer
        # delivered/lost counts conserve totals across steps.
        self._delivered_carry: dict[int, float] = dict.fromkeys(pids, 0.0)
        self._lost_carry: dict[int, float] = dict.fromkeys(pids, 0.0)
        self._loads: dict[int, TunnelLoad] = {}

    def start(self, *, at_equilibrium: bool = True) -> None:
        if self._task is not None:
            raise RuntimeError("fluid engine already started")
        now = self.sim.now
        self._last = now
        # call_every fires immediately at `now` unless start is given;
        # the first step must cover one full dt.
        self._task = self.sim.call_every(
            self.step_s, self._step, start=now + self.step_s
        )
        if at_equilibrium:
            for cls in self.demand.classes:
                self._flows[cls.flow_label] = self.demand.equilibrium_flows(cls, now)
            self.peak_concurrent_flows = max(
                self.peak_concurrent_flows, self.concurrent_flows
            )

    @property
    def concurrent_flows(self) -> float:
        return sum(self._flows[cls.flow_label] for cls in self.demand.classes)

    def stop(self) -> None:
        if self._task is not None:
            self._task.stop()
            self._task = None

    @property
    def last_loads(self) -> dict[int, TunnelLoad]:
        """Per-tunnel load of the latest step (empty before any step)."""
        return self._loads

    def _step(self) -> None:
        now = self.sim.now
        dt = now - self._last
        self._last = now
        if dt <= 0:
            return
        self._evolve(now, dt, self._advance_tunnels(now, dt))

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

    def _evolve(
        self, now: float, dt: float, offered: Optional[list[float]]
    ) -> None:
        """The per-direction rest of a step, after the tunnel queues
        advanced under ``offered`` bps per tunnel (tunnel order; read
        only under ``record_traces``)."""
        self.steps += 1

        # Evolve class buckets: arrivals minus mean-field departures
        # (flows drain at 1/mean_duration; using per-step heavy-tail
        # draws here would bias the drain upward since E[1/X] >
        # 1/E[X]).  Burstiness enters through the Poisson-scale
        # arrival noise.
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
            # bit-identity contract with the array kernel.
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


def assert_same_types(scalar: FluidEngine, array: VectorFluidEngine) -> None:
    """The array kernel's counters and traces — views of its rows — read
    as the scalar loop's plain values do, type for type."""
    for name in ("steps", "peak_concurrent_flows", "concurrent_flows"):
        assert type(getattr(array, name)) is type(getattr(scalar, name))
    for trace in ("split_trace", "concurrency_trace"):
        assert [tuple(map(type, e)) for e in getattr(array, trace)] == [
            tuple(map(type, e)) for e in getattr(scalar, trace)
        ]
