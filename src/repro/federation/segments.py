"""Segment telemetry composition for stitched relay tunnels.

A stitched tunnel's end-to-end behaviour is observable two ways.  The
*in-band* way needs nothing new: the origin timestamp survives the relay
swap, so the final receiver's measurement is already end-to-end (clock
offsets telescope).  The *out-of-band* way — this module — composes the
two segments' own per-segment telemetry, which every pair already
produces for its direct traffic.  That matters because segment telemetry
keeps flowing even when nobody is currently sending on the stitched
tunnel, giving the registry a warm end-to-end estimate before the first
stitched packet and a second opinion afterwards.

Segments are measured in different clock domains (each at its receiving
edge), so naive addition double-counts the relay's offset.  We reuse the
:mod:`repro.core.multipop` offset model: with calibrated per-member
offsets (``clock_member − clock_reference``), each segment's measured
delay is corrected by ``− offset(receiver) + offset(sender)``, restoring
the true one-way delay, and the corrected segments add.  Loss composes
as independent Bernoulli stages: ``1 − (1−p₁)(1−p₂)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from ..core.mesh import DEFAULT_RELAY_OVERHEAD_S
from ..core.multipop import MultiPopStore
from ..telemetry.store import MeasurementStore

__all__ = [
    "compose_delay",
    "compose_loss",
    "Segment",
    "SegmentComposer",
]


def compose_delay(
    d1_s: float, d2_s: float, overhead_s: float = DEFAULT_RELAY_OVERHEAD_S
) -> float:
    """End-to-end OWD of two stitched segments plus the relay swap cost."""
    return d1_s + d2_s + overhead_s


def compose_loss(p1: float, p2: float) -> float:
    """Loss of two independent segments in series: 1-(1-p1)(1-p2)."""
    for p in (p1, p2):
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"loss probability must be in [0, 1], got {p}")
    return 1.0 - (1.0 - p1) * (1.0 - p2)


@dataclass(frozen=True)
class Segment:
    """One hop of a stitched tunnel, as its receiver measures it.

    ``store`` holds the segment's receiver-side series under
    ``path_id``; timestamps and values are in ``receiver_pop``'s clock
    (the measured OWD includes ``offset(receiver) − offset(sender)``).
    """

    sender_pop: str
    receiver_pop: str
    store: MeasurementStore
    path_id: int


class SegmentComposer:
    """Folds per-segment series into an end-to-end OWD estimate series.

    Args:
        path_id: the stitched tunnel's id — the composed series' key.
        segments: hops in forwarding order (any count ≥ 1; a relay
            chain through two members is three segments).
        offsets: calibrated per-member clock offsets relative to the
            composer's reference clock (normally the stitched tunnel's
            sending edge).  See :class:`~repro.core.multipop.MultiPopStore`.
        window_s: trailing window each segment's mean is taken over.
        overhead_s: per-relay-swap forwarding cost; ``n_segments − 1``
            swaps are charged.
    """

    def __init__(
        self,
        path_id: int,
        segments: Iterable[Segment],
        offsets: MultiPopStore,
        window_s: float = 1.0,
        overhead_s: float = DEFAULT_RELAY_OVERHEAD_S,
    ) -> None:
        self.path_id = path_id
        self.segments = list(segments)
        if not self.segments:
            raise ValueError("composer needs at least one segment")
        self.offsets = offsets
        self.window_s = window_s
        self.overhead_s = overhead_s
        #: Composed true end-to-end OWD series, in the reference clock.
        self.composed = MeasurementStore()

    def compose_at(self, now: float) -> Optional[float]:
        """True end-to-end OWD estimate at reference time ``now``.

        ``None`` until every segment has at least one sample inside its
        window — a half-warm composition would silently understate delay.
        """
        total = self.overhead_s * (len(self.segments) - 1)
        for segment in self.segments:
            # The segment's series lives in its receiver's clock; query
            # the trailing window at that clock's "now".
            local_now = now + self.offsets.offset(segment.receiver_pop)
            mean = segment.store.recent_delay(
                segment.path_id, self.window_s, local_now
            )
            if mean is None:
                return None
            total += (
                mean
                - self.offsets.offset(segment.receiver_pop)
                + self.offsets.offset(segment.sender_pop)
            )
        return total

    def tick(self, now: float) -> None:
        """Tick-wheel callback: append one composed sample when warm."""
        value = self.compose_at(now)
        if value is not None:
            self.composed.record(self.path_id, now, value)

    def attach(self, scheduler, *, name: str = "segments"):
        """Register on a shared tick wheel; returns the handle."""
        return scheduler.register(self.tick, name=name)
