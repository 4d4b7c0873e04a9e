"""Forwarding policies: how a Tango switch picks among its tunnels.

Each policy implements the data plane's
:class:`~repro.dataplane.programs.PathSelector` protocol —
``select(tunnels, packet, now)`` — and reads the *outbound* measurement
store: one-way delays of this edge's transmissions, measured at the peer
and mirrored back (see :class:`repro.core.session.TelemetryMirror`).

Policies included:

* :class:`StaticSelector` — pin one path; index 0 reproduces the status
  quo (BGP default) and is the baseline every experiment compares against.
* :class:`LowestDelaySelector` — greedy best mean delay over a trailing
  window; maximally responsive, can flap.
* :class:`HysteresisSelector` — switch only when another path is better
  by a margin and a minimum dwell time has passed; the deployable default.
* :class:`JitterAwareSelector` — score = mean + weight × stddev; prefers
  stable paths for jitter-sensitive applications (paper Section 5 notes
  delay and jitter both matter).
* :class:`LossAwareSelector` — delay plus a per-unit-loss penalty.
* :class:`ApplicationSelector` — per-flow-class delegation ("distinct
  routes for different applications", paper Section 3).
* :class:`GuardedSelector` — skips the paths in a :class:`QuarantineSet`.
"""

from __future__ import annotations

import functools
from typing import (
    Any,
    Callable,
    Iterable,
    Optional,
    Protocol,
    Sequence,
    runtime_checkable,
)

import numpy as np

from ..dataplane.programs import PathSelector
from ..netsim.packet import Packet
from ..telemetry.loss import LossMonitor
from ..telemetry.store import MeasurementStore
from ..validate import int_in, non_negative, positive
from .tunnels import TangoTunnel, bgp_best

__all__ = [
    "MeasuredSelector",
    "StaticSelector",
    "LowestDelaySelector",
    "HysteresisSelector",
    "JitterAwareSelector",
    "LossAwareSelector",
    "ApplicationSelector",
    "GuardedSelector",
    "QuarantineSet",
]


@runtime_checkable
class MeasuredSelector(PathSelector, Protocol):
    """A selector whose decisions read a swappable measurement store.

    Degraded mode (:mod:`repro.resilience.degraded`) repoints ``store`` at
    the local RTT estimates while the cooperative feed is stale, then back.
    """

    store: MeasurementStore


class StaticSelector:
    """Always the ``index``-th tunnel.  Index 0 = the BGP default path."""

    def __init__(self, index: int = 0) -> None:
        int_in(0)("index", index)
        self.index = index

    @property
    def last_choice(self) -> Optional[int]:
        """The pinned index (a static selector never changes its mind)."""
        return self.index

    def select(
        self, tunnels: Sequence[TangoTunnel], packet: Packet, now: float
    ) -> TangoTunnel:
        if self.index >= len(tunnels):
            raise IndexError(
                f"static selector index {self.index} out of range "
                f"for {len(tunnels)} tunnels"
            )
        return tunnels[self.index]


class _MeasuredSelector:
    """Shared machinery: trailing-window statistics with a fallback."""

    def __init__(
        self,
        store: MeasurementStore,
        window_s: float = 1.0,
        fallback_index: int = 0,
    ) -> None:
        positive("window_s", window_s)
        self.store = store
        self.window_s = window_s
        self.fallback_index = fallback_index
        self.decisions = 0
        self.switches = 0
        self._last_choice: Optional[int] = None

    @property
    def last_choice(self) -> Optional[int]:
        """Path id of the most recent selection (None before the first)."""
        return self._last_choice

    def _mean_delay(self, tunnel: TangoTunnel, now: float) -> Optional[float]:
        return self.store.recent_delay(tunnel.path_id, self.window_s, now)

    def _window_values(self, tunnel: TangoTunnel, now: float) -> np.ndarray:
        series = self.store.series(tunnel.path_id)
        _, values = series.window(now - self.window_s, now + 1e-12)
        return values

    def _note_choice(self, tunnel: TangoTunnel) -> TangoTunnel:
        self.decisions += 1
        if self._last_choice is not None and self._last_choice != tunnel.path_id:
            self.switches += 1
        self._last_choice = tunnel.path_id
        return tunnel


class LowestDelaySelector(_MeasuredSelector):
    """Greedy: the tunnel with the lowest trailing-window mean delay.

    Tunnels without fresh measurements are skipped; if none has data, the
    fallback (BGP-default) tunnel is used — measurement must precede
    optimization.
    """

    def select(
        self, tunnels: Sequence[TangoTunnel], packet: Packet, now: float
    ) -> TangoTunnel:
        best: Optional[TangoTunnel] = None
        best_delay = float("inf")
        for tunnel in tunnels:
            delay = self._mean_delay(tunnel, now)
            if delay is not None and delay < best_delay:
                best, best_delay = tunnel, delay
        if best is None:
            best = tunnels[min(self.fallback_index, len(tunnels) - 1)]
        return self._note_choice(best)


class HysteresisSelector(_MeasuredSelector):
    """Stability-aware: switch only for a clear, durable win.

    A candidate must beat the current path's mean delay by ``margin_s``,
    and at least ``dwell_s`` must have passed since the last switch.
    This is the responsiveness-vs-stability control the policy-sweep
    ablation explores.
    """

    def __init__(
        self,
        store: MeasurementStore,
        window_s: float = 1.0,
        margin_s: float = 0.002,
        dwell_s: float = 1.0,
        fallback_index: int = 0,
    ) -> None:
        super().__init__(store, window_s, fallback_index)
        non_negative("margin_s", margin_s)
        non_negative("dwell_s", dwell_s)
        self.margin_s = margin_s
        self.dwell_s = dwell_s
        self._current: Optional[int] = None
        self._last_switch_at = float("-inf")

    def select(
        self, tunnels: Sequence[TangoTunnel], packet: Packet, now: float
    ) -> TangoTunnel:
        by_id = {t.path_id: t for t in tunnels}
        current = by_id.get(self._current) if self._current is not None else None
        if current is None:
            current = tunnels[min(self.fallback_index, len(tunnels) - 1)]
            self._current = current.path_id
        current_delay = self._mean_delay(current, now)
        if now - self._last_switch_at >= self.dwell_s:
            best, best_delay = current, current_delay
            for tunnel in tunnels:
                delay = self._mean_delay(tunnel, now)
                if delay is None:
                    continue
                if best_delay is None or delay < best_delay - self.margin_s:
                    best, best_delay = tunnel, delay
            if best.path_id != current.path_id:
                self._current = best.path_id
                self._last_switch_at = now
                current = best
        return self._note_choice(current)


class JitterAwareSelector(_MeasuredSelector):
    """Score = mean + ``jitter_weight`` × standard deviation.

    With a large weight this reproduces the paper's observation that an
    application may prefer GTT (0.01 ms jitter) over a same-mean path
    like Telia (0.33 ms jitter).
    """

    def __init__(
        self,
        store: MeasurementStore,
        window_s: float = 1.0,
        jitter_weight: float = 10.0,
        fallback_index: int = 0,
    ) -> None:
        super().__init__(store, window_s, fallback_index)
        non_negative("jitter_weight", jitter_weight)
        self.jitter_weight = jitter_weight

    def select(
        self, tunnels: Sequence[TangoTunnel], packet: Packet, now: float
    ) -> TangoTunnel:
        best: Optional[TangoTunnel] = None
        best_score = float("inf")
        for tunnel in tunnels:
            values = self._window_values(tunnel, now)
            if values.size < 2:
                continue
            score = float(np.mean(values)) + self.jitter_weight * float(
                np.std(values)
            )
            if score < best_score:
                best, best_score = tunnel, score
        if best is None:
            best = tunnels[min(self.fallback_index, len(tunnels) - 1)]
        return self._note_choice(best)


class LossAwareSelector(_MeasuredSelector):
    """Delay plus a loss penalty: score = mean + penalty × loss_fraction.

    ``loss_penalty_s`` converts loss into delay-equivalents; 1.0 means
    "1% loss is as bad as 10 ms extra delay".
    """

    def __init__(
        self,
        store: MeasurementStore,
        loss_monitor: LossMonitor,
        window_s: float = 1.0,
        loss_penalty_s: float = 1.0,
        loss_bins: int = 5,
        fallback_index: int = 0,
    ) -> None:
        super().__init__(store, window_s, fallback_index)
        non_negative("loss_penalty_s", loss_penalty_s)
        self.loss_monitor = loss_monitor
        self.loss_penalty_s = loss_penalty_s
        self.loss_bins = loss_bins

    def select(
        self, tunnels: Sequence[TangoTunnel], packet: Packet, now: float
    ) -> TangoTunnel:
        best: Optional[TangoTunnel] = None
        best_score = float("inf")
        for tunnel in tunnels:
            delay = self._mean_delay(tunnel, now)
            if delay is None:
                continue
            loss = self.loss_monitor.recent_loss(tunnel.path_id, self.loss_bins)
            score = delay + self.loss_penalty_s * loss
            if score < best_score:
                best, best_score = tunnel, score
        if best is None:
            best = tunnels[min(self.fallback_index, len(tunnels) - 1)]
        return self._note_choice(best)


class ApplicationSelector:
    """Routes flow classes through different policies.

    ``classes`` maps a flow label to a selector; unmatched flows use the
    default.  This realizes the paper's "distinct routes for different
    applications" without any core support: the decision is local to the
    Tango switch.
    """

    def __init__(
        self,
        default: PathSelector,
        classes: Optional[dict[int, PathSelector]] = None,
    ) -> None:
        self.default = default
        self.classes: dict[int, PathSelector] = dict(classes or {})

    def assign(self, flow_label: int, selector: PathSelector) -> None:
        """Bind a flow class to its own selector."""
        self.classes[flow_label] = selector

    @property
    def last_choice(self) -> Optional[int]:
        """The default class's last choice (the data-traffic decision)."""
        return getattr(self.default, "last_choice", None)

    def select(
        self, tunnels: Sequence[TangoTunnel], packet: Packet, now: float
    ) -> TangoTunnel:
        selector = self.classes.get(packet.flow_label, self.default)
        return selector.select(tunnels, packet, now)


def _counted(mutator: Callable[..., Any]) -> Callable[..., Any]:
    """``set`` method ``mutator`` that first bumps the set's ``version``."""

    @functools.wraps(mutator)
    def counted(self: "QuarantineSet", *args: Any) -> Any:
        self.version += 1
        return mutator(self, *args)

    return counted


class QuarantineSet(set):
    """A set of path ids that counts its own mutations.

    ``version`` goes up on every call of a mutating method (whether or
    not it changed the contents), so a reader that saw ``version`` *v*
    knows the contents are unchanged for as long as it still reads *v*.
    :meth:`GuardedSelector.choice_token` names the guard's choice by it.
    """

    def __init__(self, path_ids: Iterable[int] = ()) -> None:
        super().__init__(path_ids)
        self.version = 0

    add = _counted(set.add)
    discard = _counted(set.discard)
    remove = _counted(set.remove)
    pop = _counted(set.pop)
    clear = _counted(set.clear)
    update = _counted(set.update)
    difference_update = _counted(set.difference_update)
    intersection_update = _counted(set.intersection_update)
    symmetric_difference_update = _counted(set.symmetric_difference_update)
    __ior__ = _counted(set.__ior__)
    __iand__ = _counted(set.__iand__)
    __isub__ = _counted(set.__isub__)
    __ixor__ = _counted(set.__ixor__)


class GuardedSelector:
    """Graceful-degradation wrapper: filter quarantined paths, then delegate.

    The controller's quarantine state machine owns the ``quarantined`` set
    (shared by reference); this wrapper applies it on the per-packet path:

    * candidates in the set are evicted before the inner policy sees them;
    * if *every* tunnel is quarantined, the BGP-best (default-path) tunnel
      is offered as a last resort — identical to the pre-Tango status quo,
      so total quarantine can never do worse than plain BGP.

    Probes pinned via :class:`ApplicationSelector` classes bypass this
    wrapper by construction, so quarantined paths keep being measured and
    can prove themselves healthy again.

    Over a :class:`StaticSelector` the choice is a function of the
    quarantined set, the pinned index and the tunnel list alone:
    :meth:`choice_token` names it, and a caller that already holds the
    choice for a token replays it with :meth:`repeat_choice` instead of
    selecting again.
    """

    def __init__(
        self, inner: PathSelector, quarantined: Optional[set[int]] = None
    ) -> None:
        self.inner = inner
        self.quarantined: set[int] = (
            quarantined if quarantined is not None else QuarantineSet()
        )
        self.fallbacks = 0
        self._last_choice: Optional[int] = None

    @property
    def last_choice(self) -> Optional[int]:
        """Path id of the most recent selection (None before the first)."""
        return self._last_choice

    def select(
        self, tunnels: Sequence[TangoTunnel], packet: Packet, now: float
    ) -> TangoTunnel:
        candidates = [t for t in tunnels if t.path_id not in self.quarantined]
        if not candidates:
            self.fallbacks += 1
            candidates = [bgp_best(tunnels)]
        try:
            tunnel = self.inner.select(candidates, packet, now)
        except IndexError:
            # A static policy pinned past the filtered set degrades to the
            # best surviving candidate instead of dropping traffic.
            tunnel = bgp_best(candidates)
        self._last_choice = tunnel.path_id
        return tunnel

    def choice_token(self, tunnels: Sequence[TangoTunnel]) -> Optional[tuple]:
        """What :meth:`select` over ``tunnels`` answers from, or ``None``.

        Non-``None`` only over a :class:`StaticSelector` and a
        :class:`QuarantineSet`: then the answer is a function of the set's
        contents (named by the set and its ``version``), the pinned index
        and the tunnel list, which only ever grows (its length).  Two
        equal tokens for the same tunnel list mean the same choice, for
        any packet at any time.
        """
        quarantined = self.quarantined
        inner = self.inner
        if type(quarantined) is not QuarantineSet or type(inner) is not StaticSelector:
            return None
        return (quarantined, quarantined.version, inner.index, len(tunnels))

    def repeat_choice(self, path_id: int) -> None:
        """Record a choice :meth:`select` made under an unchanged
        :meth:`choice_token` again, as the select would: the fallback to
        the BGP-best path is the only way a quarantined path is chosen."""
        if path_id in self.quarantined:
            self.fallbacks += 1
        self._last_choice = path_id
