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
segment per direction, and one *bucket* per (direction, flow class),
direction-major, and advances all of them with numpy array operations
on **one** periodic event.  A lone :class:`VectorFluidEngine` is the
one-segment case (rows of its own); a federation puts all N(N-1)
directions on one (:class:`~repro.federation.registry.PairView` names
the shared rows).  The implementation is arranged so each elementwise
operation evaluates the *same IEEE-754 expression tree* a per-direction
scalar loop over the closed forms and
:meth:`~repro.traffic.demand.DemandModel.arrivals_between` does:

* the only per-bucket Python is the selector's split resolution for
  each loaded bucket, in bucket order (direction order, then class
  order) — selectors are Python objects with state; offered load
  accumulates per element in the scalar order: ``offered += rate *
  fraction`` once per class position, where an unselected tunnel's
  ``rate * 0.0`` and an unloaded or missing class's ``0.0 * fraction``
  are bitwise no-ops;
* bucket evolution is ``max(0.0, flows + arrivals - departures)`` with
  ``arrivals = max(0.0, lam + sqrt(lam) * noise)`` and ``lam = ((rate x
  day curve) x surge) x interval`` elementwise; day-curve factors are
  the scalar ``math.sin`` of the few diurnal buckets and surge factors
  are read every step for a direction whose demand has surge windows
  (the ``demand_surge`` fault adds them mid-run);
* arrival noise for every bucket comes from one counter-RNG draw over
  (bucket streams x the next ``BLOCK_STEPS`` predicted step midpoints,
  :func:`~repro.netsim.delaymodels.normal_grid`); each step compares
  its actual midpoint with the prediction and redraws on a miss, so no
  result depends on the prediction being right
  (:class:`~repro.netsim.delaymodels.StepBlocks`, which draws the plain
  jitter rows' delays a block of step instants at a time the same way);
* sums run in the scalar order, never numpy's pairwise ``np.sum``: a
  direction's concurrency is its class buckets added in class order
  from 0, one class position at a time; a split trace's total is a
  left-to-right Python ``sum()`` over the ``tolist()`` of the offered
  vector;
* integer ledger truncation uses ``astype(int64)``, which matches
  ``int()`` for the non-negative packet counts involved;
* what a scalar loop would keep per engine (packet bits, buffer depth,
  clock offset) is a per-row vector of equal values here.

That scalar loop is ``tests/traffic/oracle.py`` — the product's kernel
until it had no product caller — and one of it per direction serves as
a seeded **bit-equivalence oracle**: same deployment, same demand seeds,
same selectors ⇒ identical per-step rho/backlog/delay/loss, concurrency,
byte-identical telemetry series, loss ledgers and traces
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
``tolist()`` span of their rows.  Traces are kept the same way: while
some direction records them the rows keep each step's offered and
concurrency vectors by reference, and a direction builds its
``split_trace`` / ``concurrency_trace`` entries from them when read.

Base link models are classified once per model *object*.  A link's
models change only through :func:`~repro.netsim.links.replace_models`
(a fault's ``OverrideLoss`` blackhole, a delay overlay, a failed path),
which bumps the process-wide swap epoch; a step whose epoch moved since
the previous step (or since a direction joined) re-checks every row's
models by ``is``, so a swap is seen at the step it lands, and a step
whose epoch did not move reads no link at all.  A moved epoch may be
another simulation's swap: the re-check then finds nothing new and
changes nothing.  A :class:`ConstantDelay` is evaluated once; rows
whose delay is a plain :class:`GaussianJitterDelay`
(:func:`~repro.netsim.delaymodels.plain_gaussian_jitter`) are drawn
together, one array call per ``BLOCK_STEPS`` steps
(:class:`~repro.netsim.delaymodels.GaussianJitterRows`); any other
delay model — a stitched link's composition, a composite that gained
an event, a third-party model — takes the scalar ``delay_at`` for that
row only.  A row's loss is evaluated only when the step reaches its
change point (:meth:`~repro.netsim.links.LossModel.constant_until`:
never again for a constant, the next window edge for windowed and
override losses, every step for a live composition), and a model swap
resets it.
"""

from __future__ import annotations

import math
from itertools import compress
from typing import Any, Optional

import numpy as np

from repro.netsim.delaymodels import (
    ConstantDelay,
    GaussianJitterRows,
    StepBlocks,
    hash_seeds,
    normal_grid,
    plain_gaussian_jitter,
)
from repro.netsim.links import swap_epoch
from repro.netsim.packet import (
    TANGO_UDP_PORT,
    Ipv6Header,
    Packet,
    UdpHeader,
    as_address,
)
from repro.validate import non_negative, positive

from .demand import DemandModel, FlowClass
from .fluid import BLACKHOLE_LOSS, RHO_WAIT_CAP, SplitResolver, TunnelLoad

__all__ = ["FluidRows", "VectorFluidEngine"]

#: How far ``now`` may sit from a step instant and still be on it: the
#: grid is an accumulated float sum (ten steps of 0.1 are not 1.0).
_GRID_EPS = 1e-9


def _midpoint(t0: float, t1: float) -> float:
    """The arrival-noise sample time of the step ``(t0, t1]``, computed
    as the bucket pass does (``t0`` there is ``t1 - dt``)."""
    return 0.5 * ((t1 - (t1 - t0)) + t1)


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
    """Array queue and demand state of every direction on one step grid.

    Directions (:class:`VectorFluidEngine`) append their tunnels' rows
    and their flow classes' buckets at construction and keep what is
    per-direction — demand model, split resolver, the traces they have
    read; the rows hold what the array step works on and the one
    periodic task that runs it.  A step is: every loaded bucket's split
    (bucket order), one array pass over all rows, one batched write per
    receiving store and sending tracker, one array pass over all
    buckets.

    Directions step and stop together: the first ``start()`` arms the
    task, every row and bucket advances whenever it fires (a direction's
    own ``start()`` is what seeds its buckets), ``stop()`` on any
    direction halts them all.  Rows join a *running* state only at one
    of its step instants, after the step ran, so a late direction's
    first ``dt`` is one whole step like everyone's — anywhere else is a
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
        # came from, the delay evaluation plan derived from those, and
        # per row the time its loss value stops being known to hold
        # (with the earliest of them, the one float a step compares).
        # The swap epoch the models were last checked at (None: check at
        # the next step).
        self._delay_vals = self._loss_vals = self._loss_until = empty
        self._delay_models: list[object] = []
        self._loss_models: list[object] = []
        self._delay_plan: tuple = ([], np.zeros(0, dtype=np.intp), None)
        self._next_loss_change = -math.inf
        self._epoch: Optional[int] = None
        # What a step derives from the above and the per-row constants,
        # kept until they change: base delay + service time, 1.0 - base
        # loss, and capacity * dt for the dt it was taken at.
        self._base_service_vec = self._base_pass_vec = self._cap_dt = empty
        self._cap_dt_for = math.nan
        # Demand side: one bucket per (direction, class), direction-major
        # — (direction, class, class position), the per-class constants,
        # the float concurrency state, and the buckets whose class has a
        # day curve.  Per direction: peak concurrency.
        self._buckets: list[tuple[VectorFluidEngine, FlowClass, int]] = []
        self._rate_bps_vec = self._arrival_vec = self._duration_vec = empty
        self._day_vec = self._flows_vec = self._peak_vec = empty
        self._diurnal: list[tuple[int, FlowClass]] = []
        # Arrival noise: each bucket's hashed stream, and the blocks of
        # rows drawn for the predicted step midpoints.
        self._hashed_streams = np.zeros(0, dtype=np.uint64)
        self._noise = StepBlocks(self._draw_noise, step_s, _midpoint)
        self._steps = 0
        #: ``(now, offered, concurrency)`` per step while any direction
        #: records traces (``None`` until one does).
        self._history: Optional[list[tuple]] = None
        # Derived from membership, rebuilt after directions join: the
        # batched-write layout; per class position the split fractions
        # of every row (each direction patches its segment when its
        # split changes) and every row's bucket at that position; the
        # concurrency gathers.
        self._writes: Optional[tuple] = None
        self._fractions: list[np.ndarray] = []
        self._row_buckets: list[np.ndarray] = []
        self._first_buckets = np.zeros(0, dtype=np.intp)
        self._later_buckets: list[tuple[np.ndarray, np.ndarray]] = []
        self._step_arrays: tuple[np.ndarray, ...] = ()
        # Directions joined since the last layout: each one's row, bucket
        # and peak arrays, folded into the arrays above by the next
        # layout with one concatenation per array.
        self._joining: list[dict[str, np.ndarray]] = []
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
    ) -> None:
        """Add ``direction``'s tunnels as rows and its classes as buckets;
        tells it its segments."""
        if direction.sim is not self.sim or direction.step_s != self.step_s:
            raise ValueError(
                f"fluid rows step every {self.step_s}s on their simulator; a "
                f"direction stepping every {direction.step_s}s cannot join"
            )
        self._require_step_instant()
        n = len(links)
        cap = np.array(capacities, dtype=np.float64)
        bits_per_packet = direction.packet_bytes * 8.0
        classes = direction.demand.classes
        tails = {
            "_cap_vec": cap,
            "_bits_vec": np.full(n, bits_per_packet),
            "_service_vec": bits_per_packet / cap,
            "_buffer_delay_vec": np.full(n, direction.buffer_delay_s),
            "_buffer_vec": cap * direction.buffer_delay_s,
            "_offset_vec": np.full(n, direction._offset),
            "_loss_until": np.full(n, -math.inf),
            "_rate_bps_vec": np.array([c.rate_bps for c in classes], dtype=np.float64),
            "_arrival_vec": np.array(
                [c.arrival_rate_per_s for c in classes], dtype=np.float64
            ),
            "_duration_vec": np.array(
                [c.mean_duration_s for c in classes], dtype=np.float64
            ),
            "_day_vec": np.ones(len(classes)),
            "_flows_vec": np.zeros(len(classes)),
            "_peak_vec": np.zeros(1),
            "_hashed_streams": hash_seeds(
                [direction.demand.stream(cls) for cls in classes]
            ),
        }
        for name in (
            "_backlog_vec",
            "_lost_carry_vec",
            "_delivered_carry_vec",
            "_delay_vals",
            "_loss_vals",
        ):
            tails[name] = np.zeros(n, dtype=np.float64)
        if self.directions:
            self._joining.append(tails)
        else:  # the first direction's arrays are the rows' arrays
            for name, tail in tails.items():
                setattr(self, name, tail)
        lo, blo = len(self._links), len(self._buckets)
        self._links += links
        self._pids += direction._pids
        self._delay_models += [None] * n
        self._loss_models += [None] * n
        self._next_loss_change = -math.inf
        self._epoch = None
        self._cap_dt_for = math.nan
        self._buckets += [(direction, cls, p) for p, cls in enumerate(classes)]
        self._diurnal += [
            (blo + p, cls) for p, cls in enumerate(classes) if cls.diurnal_fraction
        ]
        self._noise = StepBlocks(self._draw_noise, self.step_s, _midpoint)
        if direction.record_traces and self._history is None:
            self._history = []
        direction._lo, direction._hi = lo, lo + n
        direction._blo, direction._bhi = blo, blo + len(classes)
        direction._index = len(self.directions)
        direction._steps_before = self._steps
        direction._traced = len(self._history or ())
        self._writes = None
        self.directions.append(direction)

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

    def _seed(self, direction: "VectorFluidEngine", flows: list[float]) -> None:
        """Set ``direction``'s buckets (class order) and fold the new
        concurrency into its peak."""
        buckets, peak = self._bucket_state(direction)
        buckets[:] = flows
        peak[0] = max(float(peak[0]), direction.concurrent_flows)

    def _bucket_state(
        self, direction: "VectorFluidEngine"
    ) -> tuple[np.ndarray, np.ndarray]:
        """``direction``'s flows (class order) and its one-element peak,
        as writable views: of its own arrays while it waits for the next
        layout, of the rows' arrays after."""
        waiting = direction._index - (len(self.directions) - len(self._joining))
        if waiting >= 0:
            tails = self._joining[waiting]
            return tails["_flows_vec"], tails["_peak_vec"]
        j = direction._index
        flows = self._flows_vec[direction._blo : direction._bhi]
        return flows, self._peak_vec[j : j + 1]

    # ------------------------------------------------------------------
    # Step kernel
    # ------------------------------------------------------------------

    def _step(self) -> None:
        now = self.sim.now
        dt = now - self._last
        self._last = now
        if dt <= 0:
            return
        if self._writes is None:
            self._relayout()
        # Read every step: a demand_surge fault adds windows mid-run.
        surging = [d for d in self.directions if d.demand.surges]
        offered = self._advance_tunnels(now, dt, surging)
        concurrency = self._advance_buckets(now, dt, surging)
        self._steps += 1
        if self._history is not None:
            self._history.append((now, offered, concurrency))

    def _base_models(self, now: float) -> tuple[np.ndarray, np.ndarray]:
        """Per row, ``base delay + service time`` and ``1.0 - base loss``
        at ``now``: re-derived only where a base value can have changed."""
        rescanned = swap_epoch() != self._epoch
        if rescanned:
            self._rescan(now)
        delay_vals, delay_models = self._delay_vals, self._delay_models
        scalar_rows, jitter_rows, jitter = self._delay_plan
        for i in scalar_rows:
            delay_vals[i] = delay_models[i].delay_at(now)
        if len(jitter_rows):
            delay_vals[jitter_rows] = jitter.delays_at(now)
        if rescanned or scalar_rows or len(jitter_rows):
            self._base_service_vec = delay_vals + self._service_vec
        if now >= self._next_loss_change:
            until, loss_vals = self._loss_until, self._loss_vals
            for i in np.flatnonzero(until <= now).tolist():
                lm = self._loss_models[i]
                loss_vals[i] = lm.loss_probability(now)
                until[i] = lm.constant_until(now)
            self._next_loss_change = float(until.min())
            self._base_pass_vec = 1.0 - loss_vals
        return self._base_service_vec, self._base_pass_vec

    def _rescan(self, now: float) -> None:
        """Check every row's link for new model objects (the swap epoch
        moved): a new delay model re-plans the delay evaluation, a new
        loss model is evaluated at this step."""
        delay_vals = self._delay_vals
        delay_models, loss_models = self._delay_models, self._loss_models
        replan = False
        for i, link in enumerate(self._links):
            dm = link.delay
            if dm is not delay_models[i]:
                delay_models[i] = dm
                replan = True
                if type(dm) is ConstantDelay:
                    delay_vals[i] = dm.delay_at(now)
            lm = link.loss
            if lm is not loss_models[i]:
                loss_models[i] = lm
                self._loss_until[i] = self._next_loss_change = -math.inf
        self._epoch = swap_epoch()
        if not replan:
            return
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
            GaussianJitterRows(jitter_models, self.step_s),
        )

    def _relayout(self) -> None:
        """Fold in the directions that joined, then rebuild what is
        derived from which directions own which rows and buckets."""
        if self._joining:
            joining, self._joining = self._joining, []
            for name in joining[0]:
                parts = [getattr(self, name), *(tails[name] for tails in joining)]
                setattr(self, name, np.concatenate(parts))
        directions = self.directions
        every = [d for d in directions for _ in d._pids]
        self._writes = _gather_by_owner(
            [d.receiver.inbound for d in every], self._pids
        ) + _gather_by_owner([d.sender.tracker for d in every], self._pids)
        positions = max(d._bhi - d._blo for d in directions)
        self._fractions = [
            np.zeros(len(every), dtype=np.float64) for _ in range(positions)
        ]
        # A row whose direction has no class at a position reads the
        # zero rate one past the last bucket.
        missing = len(self._buckets)
        self._row_buckets = [
            np.array(
                [d._blo + p if d._blo + p < d._bhi else missing for d in every],
                dtype=np.intp,
            )
            for p in range(positions)
        ]
        self._first_buckets = np.array([d._blo for d in directions], dtype=np.intp)
        self._later_buckets = []
        for p in range(1, positions):
            having = [j for j, d in enumerate(directions) if d._blo + p < d._bhi]
            self._later_buckets.append(
                (
                    np.array(having, dtype=np.intp),
                    np.array([directions[j]._blo + p for j in having], dtype=np.intp),
                )
            )
        for d in directions:
            d._split_items = [None] * positions

    def _surge_factors(self, surging: list, t: float) -> np.ndarray:
        """Per bucket, its demand's surge factor at ``t`` (1.0 for every
        direction without surge windows)."""
        factors = np.ones(len(self._buckets))
        for d in surging:
            factors[d._blo : d._bhi] = [
                d.demand.surge_factor(cls.flow_label, t) for cls in d.demand.classes
            ]
        return factors

    def _advance_tunnels(self, now: float, dt: float, surging: list) -> np.ndarray:
        """Advance every row's fluid queue by ``dt``; write telemetry and
        the loss ledgers; return offered bps per row."""
        # 1. Offered load: per bucket ``(flows * rate) * surge`` (the
        #    surge scales the per-flow rate too, so a demand_surge fault
        #    changes load within one step), one split resolution per
        #    loaded bucket, then a vector accumulate per class position.
        directions = self.directions
        n_buckets = len(self._buckets)
        rates = np.zeros(n_buckets + 1)
        np.multiply(self._flows_vec, self._rate_bps_vec, out=rates[:n_buckets])
        if surging:
            rates[:n_buckets] *= self._surge_factors(surging, now)
        rate_list = rates.tolist()
        fractions = self._fractions
        for (direction, cls, position), rate in zip(self._buckets, rate_list):
            if rate > 0:
                items = direction._resolver.resolve(cls, now)
                if direction._split_items[position] is not items:
                    direction._split_items[position] = items
                    segment = fractions[position][direction._lo : direction._hi]
                    segment[:] = 0.0
                    for pid, fraction in items:
                        segment[direction._pid_index[pid]] = fraction
        if len(directions) == 1:  # one rate per class position: no gather
            terms = [rate * f for rate, f in zip(rate_list, fractions)]
        else:
            terms = [rates[b] * f for b, f in zip(self._row_buckets, fractions)]
        # The sum starts from the first term (every demand has a class),
        # not from zeros: a term is never -0.0 (rates and fractions are
        # >= +0.0), so it is what 0.0 + term would be.
        offered = terms[0]
        for term in terms[1:]:
            offered += term

        # 2. Fluid queue update — same expression tree as the scalar
        #    closed forms, elementwise across rows.
        #    Hoisted terms keep their place in the tree: ``base_service``
        #    is ``base_delay + service`` and ``base_pass`` is ``1.0 -
        #    base_loss``; the buffer clamp's ``maximum(backlog - buffer,
        #    0.0)`` is the scalar ``backlog - buffer if backlog > buffer
        #    else 0.0`` (backlog is never NaN or -0.0).
        base_service, base_pass = self._base_models(now)
        cap = self._cap_vec
        if dt != self._cap_dt_for:
            self._cap_dt_for, self._cap_dt = dt, cap * dt
        rho = offered / cap
        inflow = offered * dt
        backlog = self._backlog_vec + inflow - self._cap_dt
        buffer = self._buffer_vec
        lost_bits = np.maximum(backlog - buffer, 0.0)
        backlog = np.maximum(np.minimum(backlog, buffer), 0.0)
        self._backlog_vec = backlog

        overload = np.zeros(len(cap), dtype=np.float64)
        np.divide(lost_bits, inflow, out=overload, where=inflow > 0.0)
        loss = 1.0 - base_pass * (1.0 - overload)

        wait_rho = np.minimum(np.maximum(rho, 0.0), RHO_WAIT_CAP)
        wait = wait_rho / (2.0 * (1.0 - wait_rho)) * self._service_vec
        queue_wait = np.minimum(wait + backlog / cap, self._buffer_delay_vec)
        delay = base_service + queue_wait

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

    def _advance_buckets(self, now: float, dt: float, surging: list) -> Any:
        """Evolve every bucket by ``dt``: Poisson-scale arrivals minus
        mean-field departures (flows drain at 1/mean_duration; per-step
        heavy-tail draws would bias the drain upward since E[1/X] >
        1/E[X]).  Returns the directions' concurrency: a vector, or a
        one-element list for a lone direction."""
        flows = self._flows_vec
        t0 = now - dt
        arrivals: Any = 0.0  # an empty interval has no arrivals
        if now > t0:
            mid = 0.5 * (t0 + now)
            lam = self._arrival_vec
            if self._diurnal:
                day = self._day_vec
                for b, cls in self._diurnal:
                    day[b] = cls.diurnal_factor(mid)
                lam = lam * day
            if surging:
                lam = lam * self._surge_factors(surging, mid)
            lam = lam * (now - t0)
            # ``max(0.0, x)``: x is never -0.0 or NaN here.
            arrivals = np.maximum(
                lam + np.sqrt(lam) * self._noise.row(now, mid), 0.0
            )
        departures = flows * dt / self._duration_vec
        flows = self._flows_vec = np.maximum(flows + arrivals - departures, 0.0)

        # Concurrency sums a direction's classes in class order from 0.
        if len(self.directions) == 1:
            concurrent = 0
            for f in flows.tolist():
                concurrent += f
            if concurrent > self._peak_vec[0]:
                self._peak_vec[0] = concurrent
            return [concurrent]
        concurrency = flows[self._first_buckets]
        for having, buckets in self._later_buckets:
            concurrency[having] += flows[buckets]
        self._peak_vec = np.maximum(self._peak_vec, concurrency)
        return concurrency

    def _draw_noise(self, mids: np.ndarray) -> np.ndarray:
        """Every bucket's arrival noise at each of ``mids``, one row per
        midpoint."""
        return normal_grid(self._hashed_streams, mids)


class VectorFluidEngine:
    """Fixed-step fluid traffic engine for one direction of a deployment.

    What is per-direction lives here — demand model, split resolution,
    synthetic packets; the tunnels' queue state and the class buckets
    are segments of a :class:`FluidRows`: the deployment's
    ``fluid_rows`` when it names some (a federation's shared state) and
    this engine's own otherwise.  The counters and traces below are
    views of those rows.  ``start()`` / ``stop()`` act on all of the
    rows' directions (see :class:`FluidRows`).

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
        positive("step_s", step_s)
        positive("default_capacity_bps", default_capacity_bps)
        positive("packet_bytes", packet_bytes)
        non_negative("buffer_delay_s", buffer_delay_s)
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
            capacity = getattr(calibration, "capacity_bps", None)
            if capacity is None:
                capacity = default_capacity_bps
            else:
                positive(f"capacity_bps of {src}'s {tunnel.short_label}", capacity)
            capacities.append(capacity)

        anchor = self.tunnels[0]
        outer = Ipv6Header(
            src=as_address(anchor.local_endpoint),
            dst=as_address(anchor.remote_endpoint),
        )
        self._packets: dict[int, Packet] = {
            cls.flow_label: self._synthetic_packet(outer, cls)
            for cls in demand.classes
        }
        self._resolver = SplitResolver(self.sender, self.tunnels, self._packets)
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
        """Append this direction's tunnels and classes to its rows."""
        self._pid_index = {pid: i for i, pid in enumerate(self._pids)}
        #: Per class position, the resolver's items tuple this
        #: direction's segment of the rows' fractions was written from
        #: (a changed split hands back a new tuple).
        self._split_items: list = []
        #: The traces as read so far (see :meth:`_read_traces`).
        self._split_trace: list[tuple[float, dict[int, float]]] = []
        self._concurrency_trace: list[tuple[float, float]] = []
        rows = getattr(self.deployment, "fluid_rows", None)
        self._rows: FluidRows = (
            FluidRows(self.sim, self.step_s) if rows is None else rows
        )
        # Sets _lo/_hi (rows), _blo/_bhi (buckets), _index, _steps_before
        # and _traced.
        self._rows._append(self, links, capacities)
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
        self._task = self._rows.start(now)
        if at_equilibrium:
            demand = self.demand
            self._rows._seed(
                self, [demand.equilibrium_flows(cls, now) for cls in demand.classes]
            )

    def stop(self) -> None:
        """Halt the rows — this direction and every other one on them."""
        self._rows.stop()

    # ------------------------------------------------------------------
    # Observables
    # ------------------------------------------------------------------

    @property
    def steps(self) -> int:
        """Steps taken since this direction joined its rows."""
        return self._rows._steps - self._steps_before

    @property
    def concurrent_flows(self) -> float:
        """Total modeled concurrent flows across all class buckets."""
        return sum(self._rows._bucket_state(self)[0].tolist())

    @property
    def peak_concurrent_flows(self) -> float:
        """Largest concurrency seen after a seeding or a step."""
        return float(self._rows._bucket_state(self)[1][0])

    @property
    def split_trace(self) -> list[tuple[float, dict[int, float]]]:
        """``(t, {path id: share of offered load})`` per step (empty
        without ``record_traces``)."""
        self._read_traces()
        return self._split_trace

    @property
    def concurrency_trace(self) -> list[tuple[float, float]]:
        """``(t, concurrent flows)`` per step (empty without
        ``record_traces``)."""
        self._read_traces()
        return self._concurrency_trace

    def _read_traces(self) -> None:
        """Extend the traces with the steps the rows kept since the last
        read: offered shares left to right in tunnel order (the scalar
        oracle's float sum), concurrency as the rows summed it."""
        history = self._rows._history
        if not self.record_traces or history is None or self._traced == len(history):
            return
        pids, j = self._pids, self._index
        segment = slice(self._lo, self._hi)
        for now, offered, concurrency in history[self._traced :]:
            values = offered[segment].tolist()
            total = sum(values)
            if total > 0:
                split = {pid: off / total for pid, off in zip(pids, values)}
            else:
                split = dict.fromkeys(pids, 0.0)
            self._split_trace.append((now, split))
            self._concurrency_trace.append((now, float(concurrency[j])))
        self._traced = len(history)

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

    def _synthetic_packet(self, outer: Ipv6Header, cls: FlowClass) -> Packet:
        """A representative packet for selector dispatch, under the first
        tunnel's ``outer`` header.

        Selectors only read the flow label (``ApplicationSelector``) and
        the five-tuple (``FlowletSelector`` keying); one packet per
        class keeps each class a stable flow.
        """
        return Packet(
            headers=[
                outer,
                UdpHeader(sport=49_152 + cls.flow_label, dport=TANGO_UDP_PORT),
            ],
            payload_bytes=max(0, self.packet_bytes - 48),
            flow_label=cls.flow_label,
        )

    def dominant_path(self, at: Optional[float] = None) -> Optional[int]:
        """Path id carrying the largest offered share at/near time ``at``.

        ``None`` before the first recorded step.  With ``at=None`` the
        latest step is used; otherwise the last trace entry at or before
        ``at``.
        """
        trace = self.split_trace
        if not trace:
            return None
        entry = trace[-1]
        if at is not None:
            for t, split in reversed(trace):
                if t <= at:
                    entry = (t, split)
                    break
        _, split = entry
        return max(sorted(split), key=lambda pid: split[pid])
