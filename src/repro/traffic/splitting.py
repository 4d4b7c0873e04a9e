"""Load-aware split weights and the weighted-split path selector.

The paper's Section 6 defers "effective load balancing across multiple
paths in the data plane"; this module supplies the policy half:

* :class:`LoadAwareWeights` — inverse-delay x headroom weights computed
  from the sender's measurement store (and, optionally, the fluid
  engine's utilization observable).  Matches the
  ``FlowletSelector.WeightFunction`` signature, so the same policy
  drives both flowlet-level and fluid-level splitting.
* :class:`WeightedSplitSelector` — a ``PathSelector`` that splits
  traffic across all candidate tunnels by weight: per-packet it makes a
  deterministic weighted draw keyed by flow (so one flow stays on one
  tunnel between weight updates), and it exposes ``split_weights`` so
  the fluid engine can apply the split fractionally.
* :class:`SplitRebalancer` — a controller tick hook that recomputes the
  weights as congestion shifts and records the rebalance history.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

from repro.netsim.delaymodels import uniform_at
from repro.netsim.packet import Packet
from repro.telemetry.store import MeasurementStore
from repro.validate import non_negative, positive, probability

__all__ = ["LoadAwareWeights", "WeightedSplitSelector", "SplitRebalancer"]


class LoadAwareWeights:
    """Inverse-delay, headroom-scaled split weights.

    ``w_i = (1 / max(delay_i, delay_floor_s)) * max(1 - rho_i,
    headroom_floor)`` — lower-delay paths attract more traffic, but a
    path running hot is discounted toward its remaining headroom even
    if its delay has not inflated yet.  Tunnels with no recent
    measurement get the mean weight of the measured ones (never starve
    a path into permanent staleness).

    Args:
        store: the sender-side measurement store (mirror-fed).
        window_s: trailing window for the delay estimate.
        utilization: optional ``path_id -> rho`` callable, typically
            ``VectorFluidEngine.utilization``.
        headroom_floor: minimum headroom factor — keeps a saturated
            path probeable instead of zero-weighted.
        delay_floor_s: guards the inverse against ~0 delays.
    """

    def __init__(
        self,
        store: MeasurementStore,
        *,
        window_s: float = 1.0,
        utilization: Optional[Callable[[int], float]] = None,
        headroom_floor: float = 0.05,
        delay_floor_s: float = 1e-4,
    ) -> None:
        positive("window_s", window_s)
        probability("headroom_floor", positive("headroom_floor", headroom_floor))
        self.store = store
        self.window_s = window_s
        self.utilization = utilization
        self.headroom_floor = headroom_floor
        self.delay_floor_s = delay_floor_s

    def __call__(self, tunnels: list, now: float) -> list:
        inverses: list[Optional[float]] = []
        for tunnel in tunnels:
            delay = self.store.recent_delay(tunnel.path_id, self.window_s, now)
            if delay is None:
                inverses.append(None)
                continue
            weight = 1.0 / max(delay, self.delay_floor_s)
            if self.utilization is not None:
                rho = self.utilization(tunnel.path_id)
                weight *= max(1.0 - rho, self.headroom_floor)
            inverses.append(weight)
        measured = [w for w in inverses if w is not None]
        if not measured:
            return [1.0] * len(tunnels)
        neutral = sum(measured) / len(measured)
        return [w if w is not None else neutral for w in inverses]


class WeightedSplitSelector:
    """Split traffic across all candidate tunnels by weight.

    Implements the ``PathSelector`` protocol.  Per-packet selection is
    a deterministic weighted draw keyed by the packet's flow, so any
    single flow is stable between weight updates while the aggregate
    matches the weight vector.  The fluid engine bypasses the per-flow
    draw entirely via :meth:`split_weights` and applies the split as
    exact fractions.

    Args:
        weights: optional dynamic policy ``(tunnels, now) -> [w, ...]``
            (e.g. :class:`LoadAwareWeights`), re-evaluated at most every
            ``refresh_s``.  Without one, the static vector installed by
            :meth:`update_weights` (initially uniform) applies.
        refresh_s: minimum interval between policy re-evaluations.
        seed: stream for the deterministic per-flow draw.
    """

    def __init__(
        self,
        weights: Optional[Callable[[list, float], list]] = None,
        *,
        refresh_s: float = 0.25,
        seed: int = 0,
    ) -> None:
        non_negative("refresh_s", refresh_s)
        self.weights = weights
        self.refresh_s = refresh_s
        self.seed = seed
        self._static: Optional[tuple[float, ...]] = None
        self._cached: Optional[tuple[float, ...]] = None
        self._cached_at: Optional[float] = None
        self._last_choice: Optional[int] = None
        self.uniform_fallbacks = 0
        self.split_counts: dict[int, int] = {}

    @property
    def last_choice(self) -> Optional[int]:
        """Path id of the most recent per-packet draw."""
        return self._last_choice

    def update_weights(self, weights: Sequence[float]) -> None:
        """Install a static weight vector (e.g. from a rebalancer)."""
        self._static = tuple(float(w) for w in weights)
        self._cached = None
        self._cached_at = None

    def split_token(self, tunnels: list, now: float) -> Optional[object]:
        """Cheap split-stability token for resolver caches.

        Returns an object that compares equal for as long as
        :meth:`split_weights` is guaranteed to return the same fractions
        for ``tunnels``, or ``None`` when no such guarantee holds (a
        policy refresh is due, the weight vector does not match the
        tunnel count, or a non-positive weight sum would trigger the
        uniform fallback).  Lets
        :class:`~repro.traffic.fluid.SplitResolver` skip the O(tunnels)
        weight scan on the steady-state path.
        """
        if self.weights is not None:
            if (
                self._cached is None
                or len(self._cached) != len(tunnels)
                or self._cached_at is None
                or now - self._cached_at >= self.refresh_s
            ):
                return None
            return self._cached if sum(self._cached) > 0 else None
        if self._static is not None:
            if len(self._static) != len(tunnels):
                return None
            return self._static if sum(self._static) > 0 else None
        return ("uniform", len(tunnels))

    def split_weights(self, tunnels: list, now: float) -> list:
        """Normalized split fractions over ``tunnels`` (sums to 1)."""
        raw = self._raw_weights(tunnels, now)
        clamped = [max(0.0, w) for w in raw]
        total = sum(clamped)
        if total <= 0:
            self.uniform_fallbacks += 1
            return [1.0 / len(tunnels)] * len(tunnels)
        return [w / total for w in clamped]

    def _raw_weights(self, tunnels: list, now: float) -> list:
        if self.weights is not None:
            stale = (
                self._cached is None
                or len(self._cached) != len(tunnels)
                or self._cached_at is None
                or now - self._cached_at >= self.refresh_s
            )
            if stale:
                raw = [float(w) for w in self.weights(tunnels, now)]
                if len(raw) != len(tunnels):
                    raise ValueError(
                        f"weight policy returned {len(raw)} weights "
                        f"for {len(tunnels)} tunnels"
                    )
                self._cached = tuple(raw)
                self._cached_at = now
            assert self._cached is not None
            return list(self._cached)
        if self._static is not None and len(self._static) == len(tunnels):
            return list(self._static)
        return [1.0] * len(tunnels)

    def select(self, tunnels: list, packet: Packet, now: float):
        if not tunnels:
            raise ValueError("no tunnels to select from")
        weights = self.split_weights(tunnels, now)
        key = self._flow_key(packet)
        draw_seed = (self.seed * 0x9E3779B1) ^ (key & 0xFFFFFFFFFFFF)
        u = uniform_at(draw_seed, now)
        cumulative = 0.0
        index = len(tunnels) - 1
        for i, weight in enumerate(weights):
            cumulative += weight
            if u < cumulative:
                index = i
                break
        chosen = tunnels[index]
        self._last_choice = chosen.path_id
        self.split_counts[chosen.path_id] = (
            self.split_counts.get(chosen.path_id, 0) + 1
        )
        return chosen

    def _flow_key(self, packet: Packet) -> int:
        if packet.flow_label:
            return packet.flow_label
        five = packet.five_tuple()
        return hash((five.src, five.dst, five.protocol, five.sport, five.dport))


class SplitRebalancer:
    """Tick hook: re-derive split weights as congestion shifts.

    Constructed with the tunnel set it balances, a weight policy, and
    the selector to steer; :meth:`attach` it to the tick wheel the
    controller runs on and each round installs fresh weights and
    appends ``(now, normalized_weights)`` to :attr:`history`.
    """

    def __init__(
        self,
        selector: WeightedSplitSelector,
        policy: Callable[[list, float], list],
        tunnels: list,
    ) -> None:
        if not tunnels:
            raise ValueError("rebalancer needs at least one tunnel")
        self.selector = selector
        self.policy = policy
        self.tunnels = list(tunnels)
        self.history: list[tuple[float, tuple[float, ...]]] = []

    def __call__(self, now: float) -> None:
        raw = [max(0.0, float(w)) for w in self.policy(self.tunnels, now)]
        total = sum(raw)
        if total <= 0:
            raw = [1.0] * len(self.tunnels)
            total = float(len(self.tunnels))
        self.selector.update_weights(raw)
        self.history.append((now, tuple(w / total for w in raw)))

    def attach(self, scheduler, *, name: str = "rebalancer"):
        """Register this hook on a shared tick wheel, every round.

        ``__call__`` already has the ``TickScheduler`` callback shape.
        Returns the :class:`~repro.netsim.ticks.TickHandle`.
        """
        return scheduler.register(self, name=name)
