"""The scalar fluid kernel, kept as the bit-equivalence oracle.

Until PR 22 this was ``repro.traffic.fluid.FluidEngine`` (it keeps the
name): a Python loop over tunnels on the engine's own periodic task,
with the queue state in dicts keyed by path id.  Nothing in the product
built it (the registry and the spine construct the array kernel
directly), so a second kernel in ``src/`` could only ever agree with
the first; what it is still good for is *checking* that.  It lives here
as a subclass that replaces where the tunnel queues live
(:meth:`_init_queue_state`), what steps them (:meth:`_start_stepping`,
:meth:`stop`) and the per-tunnel advance — the closed forms of
:mod:`repro.traffic.fluid`, one tunnel at a time — and inherits
everything per-direction.  It ignores a deployment's ``fluid_rows``:
one of these per direction, each on its own task, is the layout
``tests/federation/test_batched_engine.py`` compares the shared rows
against.  What it wrote while it was the product's is frozen in
``golden/scalar_kernel.json``.
"""

from repro.traffic.fluid import BLACKHOLE_LOSS, TunnelLoad, fluid_wait_s
from repro.traffic.vector import VectorFluidEngine


class FluidEngine(VectorFluidEngine):
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
