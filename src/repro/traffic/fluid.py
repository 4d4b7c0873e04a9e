"""The fluid congestion model: closed forms, load snapshot, split resolver.

What :class:`~repro.traffic.vector.VectorFluidEngine` evaluates per
tunnel per step, stated once as scalars.  The model is a fluid queue
with a Pollaczek–Khinchine stochastic term: below capacity the expected
M/D/1 wait ``rho / (2 (1 - rho)) * service`` applies; above capacity a
fluid backlog grows at ``(offered - capacity)`` until the buffer bound
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

import math
from dataclasses import dataclass
from typing import Any

from repro.netsim.packet import Packet

from .demand import FlowClass

__all__ = [
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

    Raises:
        ValueError: ``service_s`` is negative or NaN, or ``rho`` is NaN
            (either would make the wait NaN).
    """
    if not service_s >= 0:
        raise ValueError(f"service_s must be >= 0, got {service_s!r}")
    if math.isnan(rho):
        raise ValueError("rho must not be NaN")
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

    The fluid engine resolves one split per (flow class, step).  For
    static or slowly-refreshing selectors the resolved fractions are
    identical step after step.  The resolver keys a cache on the
    selector identity plus the *raw* selector output (the weight vector,
    or the chosen path id), so the normalized items are rebuilt only
    when the selector actually moved.  Selectors that implement the
    optional ``split_token(tunnels, now)`` protocol (e.g.
    :class:`~repro.traffic.splitting.WeightedSplitSelector`) shortcut
    even the O(tunnels) weight scan: a stable token means the cached
    items are provably current, and a ``None`` token (refresh due,
    fallback possible) drops to the full path, so policy refresh clocks
    still advance exactly on schedule.  The select path has the same
    shortcut: a selector with ``choice_token(tunnels)`` (e.g.
    :class:`~repro.core.policy.GuardedSelector` over a pinned index)
    whose token equals the one the cached choice was made under is not
    asked again; ``repeat_choice(path_id)`` hands it the cached choice,
    which leaves its observable state (``last_choice``, ``fallbacks``)
    where a select would.  For selectors without a token (or a ``None``
    one), ``split_weights``/``select`` is invoked every step — only the
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
        # flow_label -> (selector, raw key, sorted (path_id, fraction)
        # items, the selector's choice token when the items were chosen)
        self._cache: dict[
            int, tuple[Any, Any, tuple[tuple[int, float], ...], object]
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
        # A selector whose choice is a function of what its token names
        # (a quarantine guard over a pinned index) is asked again only
        # when the token moves; the cached choice is replayed to it.  A
        # cached token shows the selector has ``choice_token``: the
        # steady path skips looking it up.
        cached = self._cache.get(cls.flow_label)
        if cached is not None and cached[0] is selector and cached[3] is not None:
            token = selector.choice_token(self.tunnels)
            if token == cached[3]:
                selector.repeat_choice(cached[1][1])
                return cached[2]
        else:
            choice_fn = getattr(selector, "choice_token", None)
            token = None if choice_fn is None else choice_fn(self.tunnels)
        chosen = selector.select(self.tunnels, self._packets[cls.flow_label], now)
        key = ("select", chosen.path_id)
        if cached is not None and cached[0] is selector and cached[1] == key:
            if token is not None:
                self._cache[cls.flow_label] = (selector, key, cached[2], token)
            return cached[2]
        items = ((chosen.path_id, 1.0),)
        self._remember(cls.flow_label, selector, key, items, token)
        return items

    def _remember(
        self,
        flow_label: int,
        selector: object,
        key: object,
        items: tuple[tuple[int, float], ...],
        token: object = None,
    ) -> None:
        self._cache[flow_label] = (selector, key, items, token)
        self.splits_recomputed += 1
