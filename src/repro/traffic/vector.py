"""Deterministic fixed-step fluid congestion engine on array state.

Pushes aggregate offered load (from :mod:`repro.traffic.demand`) through
the Tango tunnels of an established deployment, computing per-tunnel
utilization, queueing-delay inflation, and loss beyond capacity (the
closed forms of :mod:`repro.traffic.fluid`), and feeding the results
into the *existing* telemetry path:

* per-tunnel delay samples land in the receiver gateway's ``inbound``
  :class:`~repro.telemetry.store.MeasurementStore` (with the calibrated
  clock offset applied), so the deployment's ``TelemetryMirror`` reports
  them back to the sender and every delay-based selector
  (``LowestDelaySelector``, ``HysteresisSelector``, ...) works unchanged;
* aggregate delivered/lost packet counts land in the sender's
  ``SequenceTracker``, so ``LossMonitor``, ``LossAwareSelector`` and
  ``QuarantinePolicy`` see fluid-mode loss.

:class:`FluidRows` holds one *row* per (direction, tunnel), a contiguous
segment per direction, and advances all of them with numpy array
operations on **one** periodic event.  A lone :class:`VectorFluidEngine`
is the one-segment case (rows of its own); a federation puts all N(N-1)
directions on one (:class:`~repro.federation.registry.PairView` names
the shared rows).  The implementation is arranged so each elementwise
operation evaluates the *same IEEE-754 expression tree* a per-tunnel
scalar loop over the closed forms does:

* vectorization runs across rows while directions and their (few) flow
  classes keep a Python loop in direction order — selectors are Python
  objects with state — and offered load accumulates per element in the
  scalar order: ``offered += rate * fraction`` once per class position,
  where an unselected tunnel's ``rate * 0.0`` and an unloaded class's
  ``0.0 * fraction`` are bitwise no-ops;
* the one reduction (total offered load, for the split trace) happens
  in the per-direction step, as a left-to-right Python ``sum()`` over
  the ``tolist()`` of the offered vector (taken only when a direction
  records traces), never numpy's pairwise ``np.sum``;
* integer ledger truncation uses ``astype(int64)``, which matches
  ``int()`` for the non-negative packet counts involved;
* what a scalar loop would keep per engine (packet bits, buffer depth,
  clock offset) is a per-row vector of equal values here.

That scalar loop is ``tests/traffic/oracle.py`` — the product's kernel
until it had no product caller — and one of it per direction serves as
a seeded **bit-equivalence oracle**: same deployment, same demand seeds,
same selectors ⇒ identical per-step rho/backlog/delay/loss,
byte-identical telemetry series and loss ledgers
(``tests/traffic/test_vector.py`` for one segment,
``tests/federation/test_batched_engine.py`` for many).

Telemetry leaves the kernel through
:meth:`~repro.telemetry.store.MeasurementStore.record_aggregate_many`
and :meth:`~repro.dataplane.seqnum.SequenceTracker.record_aggregate_many`:
one call per receiving store and one per sending tracker per step, each
one's rows ascending — the order one engine per direction writes in.
A lone owner is handed the step's vectors themselves (fresh every step
and never written again, so it may keep them: while nobody reads, a
wide step is array operations end to end); several owners get the
``tolist()`` span of their rows.

Base link models are classified once per model *object* and re-checked
by ``is`` every step, so a fault that swaps a link's model (an
``OverrideLoss`` blackhole, a delay overlay) is seen at the step it
lands.  A :class:`ConstantDelay` / :class:`ConstantLoss` is evaluated
once; rows whose delay is a plain :class:`GaussianJitterDelay`
(:func:`~repro.netsim.delaymodels.plain_gaussian_jitter`) are all drawn
with one array call; any other model — a stitched link's composition, a
composite that gained an event, a third-party model — takes the scalar
``delay_at`` / ``loss_probability`` for that row only.
"""

from __future__ import annotations

from itertools import compress
from typing import Any, Iterator, Optional

import numpy as np

from repro.netsim.delaymodels import (
    ConstantDelay,
    GaussianJitterRows,
    plain_gaussian_jitter,
)
from repro.netsim.links import ConstantLoss
from repro.netsim.packet import TANGO_UDP_PORT, Ipv6Header, Packet, UdpHeader

from .demand import DemandModel, FlowClass
from .fluid import BLACKHOLE_LOSS, RHO_WAIT_CAP, SplitResolver, TunnelLoad

__all__ = ["FluidRows", "VectorFluidEngine"]

#: How far ``now`` may sit from a step instant and still be on it: the
#: grid is an accumulated float sum (ten steps of 0.1 are not 1.0).
_GRID_EPS = 1e-9


def _gather_by_owner(owners: list, pids: list[int]) -> tuple:
    """``(order, writes)``: rows gathered by owning object — owners in
    first-seen order, each one's rows ascending — and one ``(owner, path
    ids, span)`` per owner, ``span`` slicing the gathered values.  With
    one owner there is nothing to gather: ``order`` and ``span`` are
    ``None``, and no per-step value is indexed or copied."""
    rows_of: dict[int, tuple[Any, list[int]]] = {}
    for row, owner in enumerate(owners):
        rows_of.setdefault(id(owner), (owner, []))[1].append(row)
    if len(rows_of) == 1:
        return None, [(owners[0], pids, None)]
    order: list[int] = []
    writes = []
    for owner, rows in rows_of.values():
        span = slice(len(order), len(order) + len(rows))
        order += rows
        writes.append((owner, [pids[r] for r in rows], span))
    return np.array(order, dtype=np.intp), writes


class FluidRows:
    """Array queue state of every direction on one step grid.

    Directions (:class:`VectorFluidEngine`) append their tunnels' rows
    at construction and keep what is per-direction — demand, class
    buckets, split resolver, traces, counters; the rows hold what the
    array step works on and the one periodic task that runs it.  A step
    is: every direction's class splits (direction order), one array pass
    over all rows, one batched write per receiving store and sending
    tracker, every direction's bucket evolution (direction order).

    Directions step and stop together: the first ``start()`` arms the
    task, every row advances whenever it fires (a direction's own
    ``start()`` is what seeds its buckets), ``stop()`` on any direction
    halts them all.  Rows join a *running* state only at one of its step
    instants, after the step ran, so a late direction's first ``dt`` is
    one whole step like everyone's — anywhere else is a
    ``RuntimeError``, never a short or stretched first step.
    """

    def __init__(self, sim: Any, step_s: float) -> None:
        self.sim = sim
        self.step_s = step_s
        self.directions: list[VectorFluidEngine] = []
        self._links: list = []
        self._pids: list[int] = []
        empty = np.zeros(0, dtype=np.float64)
        # Per-row constants.
        self._cap_vec = self._bits_vec = self._service_vec = empty
        self._buffer_delay_vec = self._buffer_vec = self._offset_vec = empty
        # Queue state, and the fractional packet carries of the ledgers.
        self._backlog_vec = self._lost_carry_vec = self._delivered_carry_vec = empty
        # Base-model values of the latest step, the model objects they
        # came from, and the evaluation plans derived from those.
        self._delay_vals = self._loss_vals = empty
        self._delay_models: list[object] = []
        self._loss_models: list[object] = []
        self._delay_plan: Optional[tuple] = None
        self._scalar_loss_rows: Optional[list[int]] = None
        # Derived from membership, rebuilt after rows are added: the
        # batched-write layout, and per class position the split
        # fractions of every row (each direction patches its segment
        # when its split changes) with the tunnels per direction.
        self._writes: Optional[tuple] = None
        self._fractions: list[np.ndarray] = []
        self._widths = np.zeros(0, dtype=np.intp)
        self._step_arrays: tuple[np.ndarray, ...] = ()
        self._task: Any = None
        self._last = sim.now

    # ------------------------------------------------------------------
    # Membership and lifecycle
    # ------------------------------------------------------------------

    def _require_step_instant(self) -> None:
        if self._task is not None and abs(self.sim.now - self._last) > _GRID_EPS:
            raise RuntimeError(
                "a direction joins running fluid rows only at one of their "
                f"step instants (last step t={self._last}, now "
                f"t={self.sim.now}): its first dt must be one whole step"
            )

    def _append(
        self, direction: "VectorFluidEngine", links: list, capacities: list[float]
    ) -> tuple[int, int]:
        """Add ``direction``'s tunnels as rows; returns its segment."""
        if direction.sim is not self.sim or direction.step_s != self.step_s:
            raise ValueError(
                f"fluid rows step every {self.step_s}s on their simulator; a "
                f"direction stepping every {direction.step_s}s cannot join"
            )
        self._require_step_instant()
        n = len(links)
        cap = np.array(capacities, dtype=np.float64)
        bits_per_packet = direction.packet_bytes * 8.0
        tails = {
            "_cap_vec": cap,
            "_bits_vec": np.full(n, bits_per_packet),
            "_service_vec": bits_per_packet / cap,
            "_buffer_delay_vec": np.full(n, direction.buffer_delay_s),
            "_buffer_vec": cap * direction.buffer_delay_s,
            "_offset_vec": np.full(n, direction._offset),
        }
        for name in (
            "_backlog_vec",
            "_lost_carry_vec",
            "_delivered_carry_vec",
            "_delay_vals",
            "_loss_vals",
        ):
            tails[name] = np.zeros(n, dtype=np.float64)
        for name, tail in tails.items():
            head = getattr(self, name)
            setattr(self, name, np.concatenate((head, tail)) if len(head) else tail)
        lo = len(self._links)
        self._links += links
        self._pids += direction._pids
        self._delay_models += [None] * n
        self._loss_models += [None] * n
        self._writes = None
        self.directions.append(direction)
        return lo, lo + n

    def start(self, now: float) -> object:
        """Make sure the rows are stepping; returns the shared task."""
        self._require_step_instant()
        if self._task is None:
            self._last = now
            # call_every fires immediately at `now` unless start is
            # given; the first step must cover one full dt.
            self._task = self.sim.call_every(
                self.step_s, self._step, start=now + self.step_s
            )
        return self._task

    def stop(self) -> None:
        """Halt every direction; any of them may ``start()`` again."""
        if self._task is not None:
            self._task.stop()
            self._task = None
            for direction in self.directions:
                direction._task = None

    # ------------------------------------------------------------------
    # Step kernel
    # ------------------------------------------------------------------

    def _step(self) -> None:
        now = self.sim.now
        dt = now - self._last
        self._last = now
        if dt <= 0:
            return
        offered = self._advance_tunnels(now, dt)
        offered_bps = None  # Python floats, made once a direction traces
        for direction in self.directions:
            segment = None
            if direction.record_traces:
                if offered_bps is None:
                    offered_bps = offered.tolist()
                segment = offered_bps[direction._lo : direction._hi]
            direction._evolve(now, dt, segment)

    def _base_models(self, now: float) -> tuple[np.ndarray, np.ndarray]:
        """Per-row base delay/loss under the identity-keyed classification."""
        delay_vals, loss_vals = self._delay_vals, self._loss_vals
        delay_models, loss_models = self._delay_models, self._loss_models
        for i, link in enumerate(self._links):
            dm = link.delay
            if dm is not delay_models[i]:
                delay_models[i] = dm
                self._delay_plan = None
                if type(dm) is ConstantDelay:
                    delay_vals[i] = dm.delay_at(now)
            lm = link.loss
            if lm is not loss_models[i]:
                loss_models[i] = lm
                self._scalar_loss_rows = None
                if type(lm) is ConstantLoss:
                    loss_vals[i] = lm.loss_probability(now)

        if self._delay_plan is None:
            scalar_rows, jitter_rows, jitter_models = [], [], []
            for i, dm in enumerate(delay_models):
                if type(dm) is ConstantDelay:
                    continue
                plain = plain_gaussian_jitter(dm)
                if plain is None:
                    scalar_rows.append(i)
                else:
                    jitter_rows.append(i)
                    jitter_models.append(plain)
            self._delay_plan = (
                scalar_rows,
                np.array(jitter_rows, dtype=np.intp),
                GaussianJitterRows(jitter_models),
            )
        if self._scalar_loss_rows is None:
            self._scalar_loss_rows = [
                i for i, lm in enumerate(loss_models) if type(lm) is not ConstantLoss
            ]

        scalar_rows, jitter_rows, jitter = self._delay_plan
        for i in scalar_rows:
            delay_vals[i] = delay_models[i].delay_at(now)
        if len(jitter_rows):
            delay_vals[jitter_rows] = jitter.delays_at(now)
        for i in self._scalar_loss_rows:
            loss_vals[i] = loss_models[i].loss_probability(now)
        return delay_vals, loss_vals

    def _relayout(self) -> None:
        """Rebuild what is derived from which directions own which rows."""
        directions = self.directions
        every = [d for d in directions for _ in d._pids]
        self._writes = _gather_by_owner(
            [d.receiver.inbound for d in every], self._pids
        ) + _gather_by_owner([d.sender.tracker for d in every], self._pids)
        positions = max(len(d.demand.classes) for d in directions)
        self._fractions = [
            np.zeros(len(every), dtype=np.float64) for _ in range(positions)
        ]
        self._widths = np.array([len(d._pids) for d in directions], dtype=np.intp)
        for d in directions:
            d._split_items = [None] * positions

    def _advance_tunnels(self, now: float, dt: float) -> np.ndarray:
        """Advance every row's fluid queue by ``dt``; write telemetry and
        the loss ledgers; return offered bps per row."""
        # 1. Offered load: scalar direction/class loop collecting one
        #    rate per (class position, direction); vector accumulate,
        #    one class position at a time.
        directions = self.directions
        if self._writes is None:
            self._relayout()
        fractions = self._fractions
        rates = [[0.0] * len(directions) for _ in fractions]
        for j, direction in enumerate(directions):
            for position, rate, items in direction._class_splits(now):
                rates[position][j] = rate
                if direction._split_items[position] is not items:
                    direction._split_items[position] = items
                    segment = fractions[position][direction._lo : direction._hi]
                    segment[:] = 0.0
                    for pid, fraction in items:
                        segment[direction._pid_index[pid]] = fraction
        offered = np.zeros(len(self._pids), dtype=np.float64)
        alone = len(directions) == 1  # one rate per class: no per-row repeat
        for class_rates, class_fractions in zip(rates, fractions):
            scale = class_rates[0] if alone else np.repeat(class_rates, self._widths)
            offered += scale * class_fractions

        # 2. Fluid queue update — same expression tree as the scalar
        #    closed forms, elementwise across rows.
        base_delay, base_loss = self._base_models(now)
        cap = self._cap_vec
        rho = offered / cap
        inflow = offered * dt
        backlog = self._backlog_vec + inflow - cap * dt
        over = backlog > self._buffer_vec
        lost_bits = np.where(over, backlog - self._buffer_vec, 0.0)
        backlog = np.where(over, self._buffer_vec, backlog)
        backlog = np.maximum(backlog, 0.0)
        self._backlog_vec = backlog

        overload = np.zeros(len(cap), dtype=np.float64)
        np.divide(lost_bits, inflow, out=overload, where=inflow > 0.0)
        loss = 1.0 - (1.0 - base_loss) * (1.0 - overload)

        wait_rho = np.minimum(np.maximum(rho, 0.0), RHO_WAIT_CAP)
        wait = wait_rho / (2.0 * (1.0 - wait_rho)) * self._service_vec
        queue_wait = np.minimum(wait + backlog / cap, self._buffer_delay_vec)
        delay = base_delay + self._service_vec + queue_wait

        # 3. Telemetry: one batched write per receiving store
        #    (blackholed rows excluded, preserving staleness semantics).
        #    A lone owner is handed the step's fresh vector itself.
        recv_order, recv_writes, send_order, send_writes = self._writes
        owd = delay + self._offset_vec
        alive = loss < BLACKHOLE_LOSS
        if recv_order is None:
            store, pids, _ = recv_writes[0]
            if not alive.all():
                pids, owd = list(compress(pids, alive.tolist())), owd[alive]
            store.record_aggregate_many(pids, now, owd)
        else:
            values = owd[recv_order].tolist()
            keep = None if alive.all() else alive[recv_order].tolist()
            for store, pids, span in recv_writes:
                part = values[span]
                if keep is not None:
                    mask = keep[span]
                    pids, part = list(compress(pids, mask)), list(compress(part, mask))
                store.record_aggregate_many(pids, now, part)

        # 4. Loss ledgers: carries computed for every row (a zero inflow
        #    contributes rate*0.0 terms that leave the carry
        #    bit-unchanged), folded in via the batched tracker path
        #    which skips all-zero pairs exactly like a scalar guard.
        packets = inflow / self._bits_vec
        lost_f = packets * loss + self._lost_carry_vec
        delivered_f = packets * (1.0 - loss) + self._delivered_carry_vec
        lost_n = lost_f.astype(np.int64)
        delivered_n = delivered_f.astype(np.int64)
        self._lost_carry_vec = lost_f - lost_n
        self._delivered_carry_vec = delivered_f - delivered_n
        if send_order is None:
            tracker, pids, _ = send_writes[0]
            tracker.record_aggregate_many(pids, delivered_n, lost_n)
        else:
            lost_counts = lost_n[send_order].tolist()
            delivered_counts = delivered_n[send_order].tolist()
            for tracker, pids, span in send_writes:
                tracker.record_aggregate_many(
                    pids, delivered_counts[span], lost_counts[span]
                )

        self._step_arrays = (offered, rho, backlog, delay, loss)
        return offered


class VectorFluidEngine:
    """Fixed-step fluid traffic engine for one direction of a deployment.

    What is per-direction lives here — demand, class buckets, split
    resolution, traces, counters, :meth:`_evolve`; the tunnels' queue
    state is a segment of a :class:`FluidRows`: the deployment's
    ``fluid_rows`` when it names some (a federation's shared state) and
    this engine's own otherwise.  ``start()`` / ``stop()`` act on all of
    the rows' directions (see :class:`FluidRows`).

    Args:
        deployment: an established scenario deployment (e.g.
            ``VultrDeployment``) exposing ``sim``, ``gateway``,
            ``tunnels``, ``wan_link``, ``peer_of`` and
            ``clock_offset_delta``; optionally ``calibrations``,
            ``attach_traffic_engine`` and ``fluid_rows``.
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
        deployment: Any,
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

        # Last thing that can fail: it publishes the queue state (rows
        # other directions may share).
        self._init_queue_state(
            [deployment.wan_link(src, t.short_label) for t in tunnels],
            capacities,
        )
        attach = getattr(deployment, "attach_traffic_engine", None)
        if callable(attach):
            attach(src, self)

    def _init_queue_state(self, links: list, capacities: list[float]) -> None:
        """Append this direction's tunnels to its rows (tunnel order)."""
        self._pid_index = {pid: i for i, pid in enumerate(self._pids)}
        #: Per class position, the resolver's items tuple this
        #: direction's segment of the rows' fractions was written from
        #: (a changed split hands back a new tuple).
        self._split_items: list = []
        rows = getattr(self.deployment, "fluid_rows", None)
        self._rows: FluidRows = (
            FluidRows(self.sim, self.step_s) if rows is None else rows
        )
        self._lo, self._hi = self._rows._append(self, links, capacities)
        self._loads: dict[int, TunnelLoad] = {}
        #: The rows' step arrays ``_loads`` was built from.
        self._loads_step = self._rows._step_arrays

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
        """Make sure the rows are stepping; returns their task."""
        return self._rows.start(now)

    def stop(self) -> None:
        """Halt the rows — this direction and every other one on them."""
        self._rows.stop()

    # ------------------------------------------------------------------
    # Observables
    # ------------------------------------------------------------------

    @property
    def concurrent_flows(self) -> float:
        """Total modeled concurrent flows across all class buckets."""
        return sum(self._flows[cls.flow_label] for cls in self.demand.classes)

    @property
    def splits_recomputed(self) -> int:
        """How many times a split was actually rebuilt (cache misses)."""
        return self._resolver.splits_recomputed

    @property
    def last_loads(self) -> dict[int, TunnelLoad]:
        """Per-tunnel load of the latest step (empty before any step).

        Materialized lazily — the step stores the raw vectors and the
        :class:`TunnelLoad` dataclasses are built on first access, so
        steps whose loads nobody reads pay nothing for them.
        """
        arrays = self._rows._step_arrays
        if self._loads_step is not arrays:
            self._loads_step = arrays
            segment = slice(self._lo, self._hi)
            columns = [a[segment].tolist() for a in arrays]
            self._loads = {
                tunnel.path_id: TunnelLoad(
                    path_id=tunnel.path_id,
                    label=tunnel.short_label,
                    offered_bps=offered,
                    capacity_bps=capacity,
                    utilization=rho,
                    backlog_bits=backlog,
                    delay_s=delay,
                    loss=loss,
                )
                for tunnel, capacity, offered, rho, backlog, delay, loss in zip(
                    self.tunnels, self._rows._cap_vec[segment].tolist(), *columns
                )
            }
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
            # bit-identity contract with the scalar oracle.
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
