"""Vectorized fluid engine: per-tunnel state as contiguous float64 vectors.

:class:`VectorFluidEngine` evolves every (flow-class, tunnel) bucket of
the fluid congestion model with numpy array operations instead of the
scalar engine's per-tunnel Python loop.  The closed forms are exactly
those of :class:`~repro.traffic.fluid.FluidEngine` — M/D/1
Pollaczek–Khinchine wait, fluid backlog with the buffer bound, the
``1 - 1/rho`` overload shedding, Little's-law equilibrium seeding — and
the implementation is arranged so each elementwise operation evaluates
the *same IEEE-754 expression tree* the scalar engine does:

* vectorization runs across tunnels while the (few) flow classes keep
  the scalar engine's Python loop, so offered load accumulates per
  element in the same order (``offered += rate * fraction`` per class,
  with ``rate * 0.0`` adds for unselected tunnels, which are bitwise
  no-ops);
* the one reduction (total offered load, for the split trace) happens
  in the shared step, as a left-to-right Python ``sum()`` over the
  ``tolist()`` of the offered vector, never numpy's pairwise ``np.sum``;
* integer ledger truncation uses ``astype(int64)``, which matches
  ``int()`` for the non-negative packet counts involved.

The scalar engine therefore serves as a seeded **bit-equivalence
oracle**: same deployment, same demand seed, same selector ⇒ identical
per-step rho/backlog/delay/loss, byte-identical telemetry series and
loss ledgers (see ``tests/traffic/test_vector.py``).

Telemetry leaves the engine through the batched store paths
(:meth:`~repro.telemetry.store.MeasurementStore.record_aggregate_many`,
:meth:`~repro.dataplane.seqnum.SequenceTracker.record_aggregate_many`)
so a step costs O(array ops) plus one store call per direction instead
of O(tunnels) attribute-resolved scalar calls.

Base link models are identity-cached: a :class:`ConstantDelay` /
:class:`ConstantLoss` model is evaluated once and the cached value
reused until the fault injector swaps the link's model object (swaps
are detected by an ``is`` check every step, so ``OverrideLoss``
blackholes and delay overlays behave exactly as in the scalar engine).

Kernel selection is :func:`create_fluid_engine`'s job and nobody
else's: it reads the tunnel count of the direction it is asked to drive
and returns the class whose step is cheaper at that width (see
:data:`VECTOR_MIN_TUNNELS`).
"""

from __future__ import annotations

from typing import Any, Optional

import numpy as np

from repro.netsim.delaymodels import ConstantDelay
from repro.netsim.links import ConstantLoss

from .demand import DemandModel
from .fluid import BLACKHOLE_LOSS, RHO_WAIT_CAP, FluidEngine, TunnelLoad

__all__ = ["VECTOR_MIN_TUNNELS", "VectorFluidEngine", "create_fluid_engine"]

#: Narrowest direction that gets the array kernel.  A numpy step costs
#: about the same however few tunnels it covers; the scalar loop grows
#: by ~7-9 us a tunnel.  Measured us/step, scalar vs array (stand-in
#: pair, jittered links, one flow class, runs interleaved, best of 9):
#: 1 tunnel 18 vs 43, 2: 30 vs 47, 3: 38 vs 50, 4: 36 vs 40, 5: 41 vs
#: 40, 6: 47 vs 43, 8: 73 vs 57, 16: 143 vs 90, 64: 444 vs 169.  The
#: kernels are bit-identical at every width
#: (``tests/traffic/test_vector.py``), so the choice is cost only.
VECTOR_MIN_TUNNELS = 6


class VectorFluidEngine(FluidEngine):
    """The array step kernel: :class:`FluidEngine` with per-tunnel state
    in float64 vectors.

    Same constructor, lifecycle, observables and traces; only the queue
    state and :meth:`_advance_tunnels` differ.  ``last_loads`` is
    materialized lazily — the step stores the raw vectors and the
    per-tunnel :class:`TunnelLoad` dataclasses are built on first
    access, so steps whose loads nobody reads pay nothing for them.
    """

    def _init_queue_state(self, links: list, capacities: list[float]) -> None:
        n = len(self._pids)
        self._pid_index = {pid: i for i, pid in enumerate(self._pids)}
        self._cap_vec = np.array(capacities, dtype=np.float64)
        self._bits_per_packet = self.packet_bytes * 8.0
        self._service_vec = self._bits_per_packet / self._cap_vec
        self._buffer_vec = self._cap_vec * self.buffer_delay_s
        self._backlog_vec = np.zeros(n, dtype=np.float64)
        self._lost_carry_vec = np.zeros(n, dtype=np.float64)
        self._delivered_carry_vec = np.zeros(n, dtype=np.float64)

        # Identity-keyed base-model caches (see module docstring).
        self._link_list = links
        self._delay_models: list[object] = [None] * n
        self._delay_const: list[bool] = [False] * n
        self._delay_vals = np.zeros(n, dtype=np.float64)
        self._loss_models: list[object] = [None] * n
        self._loss_const: list[bool] = [False] * n
        self._loss_vals = np.zeros(n, dtype=np.float64)

        # Per-class fraction vectors, keyed by the resolver's cached
        # items tuple (identity): rebuilt only when the split actually
        # changed (a rebuild hands back a new tuple).
        self._frac_cache: dict[
            int, tuple[tuple[tuple[int, float], ...], np.ndarray]
        ] = {}
        self._step_arrays: tuple[np.ndarray, ...] = ()
        self._lazy_loads: Optional[dict[int, TunnelLoad]] = {}

    # ------------------------------------------------------------------
    # Lazy last_loads
    # ------------------------------------------------------------------

    @property
    def last_loads(self) -> dict[int, TunnelLoad]:
        if self._lazy_loads is None:
            self._lazy_loads = self._build_loads()
        return self._lazy_loads

    def _build_loads(self) -> dict[int, TunnelLoad]:
        offered, rho, backlog, delay, loss = self._step_arrays
        loads: dict[int, TunnelLoad] = {}
        for i, tunnel in enumerate(self.tunnels):
            loads[tunnel.path_id] = TunnelLoad(
                path_id=tunnel.path_id,
                label=tunnel.short_label,
                offered_bps=float(offered[i]),
                capacity_bps=float(self._cap_vec[i]),
                utilization=float(rho[i]),
                backlog_bits=float(backlog[i]),
                delay_s=float(delay[i]),
                loss=float(loss[i]),
            )
        return loads

    # ------------------------------------------------------------------
    # Step kernel
    # ------------------------------------------------------------------

    def _base_models(self, now: float) -> tuple[np.ndarray, np.ndarray]:
        """Per-tunnel base delay/loss with identity-cached constants."""
        delay_vals = self._delay_vals
        loss_vals = self._loss_vals
        delay_models = self._delay_models
        delay_const = self._delay_const
        loss_models = self._loss_models
        loss_const = self._loss_const
        for i, link in enumerate(self._link_list):
            dm = link.delay
            if dm is not delay_models[i]:
                delay_models[i] = dm
                delay_const[i] = type(dm) is ConstantDelay
                if delay_const[i]:
                    delay_vals[i] = dm.delay_at(now)
            if not delay_const[i]:
                delay_vals[i] = dm.delay_at(now)
            lm = link.loss
            if lm is not loss_models[i]:
                loss_models[i] = lm
                loss_const[i] = type(lm) is ConstantLoss
                if loss_const[i]:
                    loss_vals[i] = lm.loss_probability(now)
            if not loss_const[i]:
                loss_vals[i] = lm.loss_probability(now)
        return delay_vals, loss_vals

    def _advance_tunnels(self, now: float, dt: float) -> list[float]:
        # 1. Offered load: scalar class loop, vector accumulate.  The
        #    fraction vector for a class is cached until SplitResolver
        #    hands back a different items tuple.
        n = len(self._pids)
        offered = np.zeros(n, dtype=np.float64)
        for flow_label, rate, items in self._class_splits(now):
            cached = self._frac_cache.get(flow_label)
            if cached is not None and cached[0] is items:
                vec = cached[1]
            else:
                vec = np.zeros(n, dtype=np.float64)
                index = self._pid_index
                for pid, fraction in items:
                    vec[index[pid]] = fraction
                self._frac_cache[flow_label] = (items, vec)
            offered += rate * vec

        # 2. Fluid queue update — same expression tree as the scalar
        #    engine, elementwise across tunnels.
        base_delay, base_loss = self._base_models(now)
        rho = offered / self._cap_vec
        inflow = offered * dt
        backlog = self._backlog_vec + inflow - self._cap_vec * dt
        over = backlog > self._buffer_vec
        lost_bits = np.where(over, backlog - self._buffer_vec, 0.0)
        backlog = np.where(over, self._buffer_vec, backlog)
        backlog = np.maximum(backlog, 0.0)
        self._backlog_vec = backlog

        overload = np.zeros(n, dtype=np.float64)
        np.divide(lost_bits, inflow, out=overload, where=inflow > 0.0)
        loss = 1.0 - (1.0 - base_loss) * (1.0 - overload)

        wait_rho = np.minimum(np.maximum(rho, 0.0), RHO_WAIT_CAP)
        wait = wait_rho / (2.0 * (1.0 - wait_rho)) * self._service_vec
        queue_wait = np.minimum(
            wait + backlog / self._cap_vec, self.buffer_delay_s
        )
        delay = base_delay + self._service_vec + queue_wait

        # 3. Telemetry: one batched store call per step (blackholed
        #    tunnels excluded, preserving staleness semantics).
        owd = delay + self._offset
        alive = loss < BLACKHOLE_LOSS
        if alive.all():
            self.receiver.inbound.record_aggregate_many(
                self._pids, now, owd.tolist()
            )
        elif alive.any():
            keep = np.flatnonzero(alive).tolist()
            self.receiver.inbound.record_aggregate_many(
                [self._pids[i] for i in keep], now, owd[keep].tolist()
            )

        # 4. Loss ledger: carries computed for every tunnel (a zero
        #    inflow contributes rate*0.0 terms that leave the carry
        #    bit-unchanged), folded in via the batched tracker path
        #    which skips all-zero pairs exactly like the scalar guard.
        packets = inflow / self._bits_per_packet
        lost_f = packets * loss + self._lost_carry_vec
        delivered_f = packets * (1.0 - loss) + self._delivered_carry_vec
        lost_n = lost_f.astype(np.int64)
        delivered_n = delivered_f.astype(np.int64)
        self._lost_carry_vec = lost_f - lost_n
        self._delivered_carry_vec = delivered_f - delivered_n
        self.sender.tracker.record_aggregate_many(
            self._pids, delivered_n.tolist(), lost_n.tolist()
        )

        self._step_arrays = (offered, rho, backlog, delay, loss)
        self._lazy_loads = None
        return offered.tolist()


def create_fluid_engine(
    deployment: Any,
    src: str,
    demand: DemandModel,
    **kwargs: object,
) -> FluidEngine:
    """The fluid engine for ``src``'s direction of ``deployment``, with
    the step kernel its tunnel count calls for.  ``kwargs`` are
    :class:`FluidEngine`'s keyword arguments."""
    wide = len(deployment.tunnels(src)) >= VECTOR_MIN_TUNNELS
    engine_cls = VectorFluidEngine if wide else FluidEngine
    return engine_cls(deployment, src, demand, **kwargs)
