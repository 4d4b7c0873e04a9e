"""Unidirectional links with delay, loss, and serialization.

A :class:`Link` is the only way packets move between nodes.  Each link owns
a :class:`~repro.netsim.delaymodels.DelayModel` (sampled at transmit time)
and a :class:`LossModel`.  Both are deterministic functions of time, so a
campaign replayed with the same seed drops exactly the same packets.

Wide-area AS-level paths are modeled as single links whose delay process is
the calibrated end-to-end one-way-delay of that path (see
``repro.scenarios.vultr``); intra-edge hops use constant-delay links.

A link's models are set in its constructor and replaced only through
:func:`replace_models` (a fault's wrap, a path failure), which bumps the
process-wide :func:`swap_epoch`: whoever keeps something derived from
link models — the fluid engine's per-row classification — re-checks it
only when the epoch has moved.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial
from typing import TYPE_CHECKING, Any, Callable, Optional, Sequence

from ..validate import check_fields, finite, int_in, positive, probability
from .delaymodels import DelayEvent, DelayModel, uniform_at
from .packet import Packet

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from .events import Simulator
    from .node import Node

__all__ = [
    "LossModel",
    "ConstantLoss",
    "WindowedLoss",
    "OverrideLoss",
    "PacketInterceptor",
    "Link",
    "LinkStats",
    "replace_models",
    "swap_epoch",
]


class PacketInterceptor:
    """In-flight packet manipulation hook — the on-path attacker's seat.

    Installed on a :class:`Link`, an interceptor sees every packet that
    survives the loss draw, *before* the delay sample.  It may return the
    packet (possibly mutated), return ``None`` to silently consume it
    (a drop no loss ledger attributes), and/or call ``inject`` to place
    additional packets onto the link (replay).  Injected packets take
    their own delay sample but bypass loss and interception — they are
    already "past" the attacker.

    Implementations must be deterministic functions of (packet, time,
    internal counters); wall-clock or unseeded randomness would break
    campaign replay.
    """

    def process(
        self,
        packet: Packet,
        now: float,
        inject: Callable[[Packet], None],
    ) -> Optional[Packet]:
        raise NotImplementedError


def _next_edge(windows: Sequence[tuple[float, float]], t: float) -> float:
    """The first window start or end after ``t`` (``inf`` if none):
    which windows contain an instant changes only there."""
    edges = (edge for window in windows for edge in window if edge > t)
    return min(edges, default=math.inf)


class LossModel:
    """Base class: probability that a packet sent at time ``t`` is lost."""

    def loss_probability(self, t: float) -> float:
        raise NotImplementedError

    def constant_until(self, t: float) -> float:
        """A time after ``t`` before which ``loss_probability`` keeps its
        value at ``t``: the value is the same at every instant of
        ``[t, constant_until(t))``, so a caller stepping through time
        re-evaluates only once it reaches the answer.  The base answer
        promises the instant ``t`` alone — a model that reads live state
        (a stitched link's composition) changes at every step.
        """
        return math.nextafter(t, math.inf)

    def drops(self, seed: int, t: float, nonce: int = 0) -> bool:
        """Deterministic Bernoulli draw for one transmission.

        ``nonce`` (the link's transmission counter) decorrelates draws
        for packets sent within the same time quantum — bursts must not
        share one coin flip.
        """
        p = self.loss_probability(t)
        if p <= 0.0:
            return False
        if p >= 1.0:
            return True
        stream = (seed ^ (nonce * 0x9E3779B1)) & 0x7FFFFFFFFFFFFFFF
        return uniform_at(stream, t) < p


@dataclass(frozen=True)
class ConstantLoss(LossModel):
    """Time-invariant random loss."""

    rate: float = 0.0

    def __post_init__(self) -> None:
        # Inline, not declared: one per link, hundreds per scenario.
        probability("rate", self.rate)

    def loss_probability(self, t: float) -> float:
        return self.rate

    def constant_until(self, t: float) -> float:
        return math.inf


@dataclass(frozen=True)
class WindowedLoss(LossModel):
    """Baseline loss plus elevated loss inside event windows.

    Instability periods in the paper coincide with latency spikes; elevated
    loss during the same windows lets the loss/reordering telemetry see the
    event too.
    """

    baseline: float = field(default=0.0, metadata={"check": probability})
    elevated: float = field(default=0.05, metadata={"check": probability})
    windows: Sequence[tuple[float, float]] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        check_fields(self)
        for start, end in self.windows:
            if not start <= end:  # NaN fails too
                raise ValueError(f"window end before start: ({start}, {end})")

    @classmethod
    def around_events(
        cls, events: Sequence[DelayEvent], baseline: float = 0.0, elevated: float = 0.05
    ) -> "WindowedLoss":
        """Build windows matching a delay process's event overlays."""
        return cls(
            baseline=baseline,
            elevated=elevated,
            windows=tuple((e.start, e.end) for e in events),
        )

    def loss_probability(self, t: float) -> float:
        for start, end in self.windows:
            if start <= t < end:
                return self.elevated
        return self.baseline

    def constant_until(self, t: float) -> float:
        return _next_edge(self.windows, t)


@dataclass(frozen=True)
class OverrideLoss(LossModel):
    """Time-windowed loss override wrapping another loss process.

    Inside any of the (start, end) ``windows`` the override ``rate``
    applies (with its own draw stream, so injected faults never perturb
    the baseline loss draws); outside them the wrapped model is consulted
    unchanged.  This is the primitive behind fault injection — blackholes
    (rate 1.0), flaps (periodic windows), and loss bursts are all pure
    functions of time, so a replayed campaign drops exactly the same
    packets.
    """

    inner: LossModel
    windows: tuple[tuple[float, float], ...]
    rate: float = field(default=1.0, metadata={"check": probability})
    seed: int = 0

    def __post_init__(self) -> None:
        check_fields(self)
        for start, end in self.windows:
            if not start <= end:  # NaN fails too
                raise ValueError(f"window end before start: ({start}, {end})")

    @classmethod
    def blackhole(cls, inner: LossModel, start: float, end: float) -> "OverrideLoss":
        """Total loss inside [start, end)."""
        return cls(inner=inner, windows=((start, end),), rate=1.0)

    @classmethod
    def flapping(
        cls,
        inner: LossModel,
        start: float,
        end: float,
        period: float,
        duty: float = 0.5,
    ) -> "OverrideLoss":
        """Link up/down cycling: down for ``duty`` of every ``period``."""
        finite("flap start", start)
        finite("flap end", end)
        positive("flap period", period)
        probability("duty", positive("duty", duty))
        windows = []
        t = start
        while t < end:
            windows.append((t, min(t + period * duty, end)))
            t += period
        return cls(inner=inner, windows=tuple(windows), rate=1.0)

    @classmethod
    def burst(
        cls, inner: LossModel, start: float, end: float, rate: float, seed: int = 0
    ) -> "OverrideLoss":
        """Elevated (partial) random loss inside [start, end)."""
        return cls(inner=inner, windows=((start, end),), rate=rate, seed=seed)

    def _active(self, t: float) -> bool:
        return any(start <= t < end for start, end in self.windows)

    def loss_probability(self, t: float) -> float:
        if self._active(t):
            return self.rate
        return self.inner.loss_probability(t)

    def constant_until(self, t: float) -> float:
        edge = _next_edge(self.windows, t)
        if self._active(t):
            return edge
        return min(edge, self.inner.constant_until(t))

    def drops(self, seed: int, t: float, nonce: int = 0) -> bool:
        if self._active(t):
            # Dedicated stream: a fault plan's seed decorrelates its draws
            # from the link's baseline ones without disturbing them.
            return super().drops(seed ^ self.seed, t, nonce)
        return self.inner.drops(seed, t, nonce)


@dataclass
class LinkStats:
    """Counters every link keeps; cheap enough to be always on."""

    transmitted: int = 0
    delivered: int = 0
    dropped_loss: int = 0
    dropped_mtu: int = 0
    dropped_intercept: int = 0
    injected: int = 0
    bytes_delivered: int = 0

    @property
    def loss_fraction(self) -> float:
        if self.transmitted == 0:
            return 0.0
        return 1.0 - self.delivered / self.transmitted


class Link:
    """A unidirectional link from ``src`` to ``dst``.

    Args:
        name: human-readable identifier used in traces and stats output.
        src: transmitting node.
        dst: receiving node.
        delay: one-way delay process.
        loss: loss process; defaults to lossless.
        bandwidth_bps: if set, serialization delay ``bytes*8/bandwidth`` is
            added per packet.  Wide-area links leave this None — the paper's
            bottleneck phenomena are injected through the delay process.
        mtu: maximum packet size in bytes; oversized packets are dropped
            (and counted), which is how tunnel-overhead bugs surface.
        seed: loss-draw stream identifier.
        srlgs: shared-risk link groups this link belongs to — named
            physical failure domains (conduits, landing stations,
            regional grids) that correlated faults take down together.
    """

    def __init__(
        self,
        name: str,
        src: "Node",
        dst: "Node",
        delay: DelayModel,
        loss: Optional[LossModel] = None,
        bandwidth_bps: Optional[float] = None,
        mtu: int = 1500,
        seed: int = 0,
        srlgs: tuple[str, ...] = (),
    ) -> None:
        if bandwidth_bps is not None:
            positive("bandwidth_bps", bandwidth_bps)
        int_in(1)("mtu", mtu)
        self.name = name
        self.src = src
        self.dst = dst
        self.delay = delay
        self.loss = loss or ConstantLoss(0.0)
        self.bandwidth_bps = bandwidth_bps
        self.mtu = mtu
        self.seed = seed
        self.srlgs = tuple(srlgs)
        self.stats = LinkStats()
        self.interceptor: Optional[PacketInterceptor] = None

    def transmit(self, sim: "Simulator", packet: Packet) -> bool:
        """Send ``packet``; deliver it to ``dst`` after the sampled delay.

        Returns:
            True if the packet was scheduled for delivery, False if dropped
            (loss or MTU).  Callers needing per-packet fate (e.g. the TCP
            model) use the return value; fire-and-forget callers ignore it.
        """
        now = sim.now
        self.stats.transmitted += 1
        size = packet.wire_bytes
        if size > self.mtu:
            self.stats.dropped_mtu += 1
            return False
        loss = self.loss
        # A lossless link (the default) draws no coin: it would never drop.
        if (type(loss) is not ConstantLoss or loss.rate > 0.0) and loss.drops(
            self.seed, now, self.stats.transmitted
        ):
            self.stats.dropped_loss += 1
            return False
        if self.interceptor is not None:
            maybe = self.interceptor.process(
                packet, now, partial(self._inject, sim)
            )
            if maybe is None:
                self.stats.dropped_intercept += 1
                return False
            packet = maybe
            size = packet.wire_bytes
        latency = self.delay.delay_at(now)
        if self.bandwidth_bps is not None:
            latency += size * 8.0 / self.bandwidth_bps
        sim.schedule_at(now + latency, partial(self._deliver, packet, size))
        return True

    def _inject(self, sim: "Simulator", packet: Packet) -> None:
        """Place an interceptor-originated packet onto the link.

        Bypasses loss and interception (the attacker does not attack its
        own packets) but takes a fresh delay sample at the current time.
        """
        self.stats.injected += 1
        size = packet.wire_bytes
        latency = self.delay.delay_at(sim.now)
        if self.bandwidth_bps is not None:
            latency += size * 8.0 / self.bandwidth_bps
        sim.schedule_in(latency, partial(self._deliver, packet, size))

    def _deliver(self, packet: Packet, size: int) -> None:
        """Hand ``packet`` (``size`` wire bytes, as sent) to ``dst``."""
        self.stats.delivered += 1
        self.stats.bytes_delivered += size
        self.dst.receive(packet, ingress=self)

    def __repr__(self) -> str:
        return f"Link({self.name}: {self.src.name} -> {self.dst.name})"


#: Swaps announced so far in this process (see :func:`replace_models`).
_swap_epoch = 0


def replace_models(
    link: Any,
    *,
    delay: Optional[DelayModel] = None,
    loss: Optional[LossModel] = None,
) -> None:
    """Install ``delay`` and/or ``loss`` on ``link`` and announce it.

    The one way a link's models change after construction: each call
    bumps the process-wide :func:`swap_epoch`, so anything derived from
    link models is re-derived the next time it is used.  ``link`` is a
    :class:`Link` or anything duck-typing its ``delay`` / ``loss``
    attributes (a stand-in, a segment of a stitched link).  Models are
    replaced, never edited, so this covers every change.
    """
    global _swap_epoch
    if delay is not None:
        link.delay = delay
    if loss is not None:
        link.loss = loss
    _swap_epoch += 1


def swap_epoch() -> int:
    """How many :func:`replace_models` calls this process has made: an
    unchanged epoch means no link anywhere has a new model object.  It
    counts swaps in every simulation, so a moved epoch may be someone
    else's."""
    return _swap_epoch
