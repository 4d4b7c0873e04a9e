"""Loss monitoring from tunnel sequence numbers.

Builds time-binned loss-rate series on top of the data plane's
:class:`~repro.dataplane.seqnum.SequenceTracker` counters, so policies can
react to loss (not only delay) and reports can show loss aligned with the
delay timeline.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..dataplane.seqnum import SequenceTracker
from .store import TimeSeries

__all__ = ["LossBin", "LossMonitor"]


@dataclass(frozen=True)
class LossBin:
    """Loss over one sampling interval of one path."""

    t: float
    received: int
    presumed_lost: int

    @property
    def loss_fraction(self) -> float:
        total = self.received + self.presumed_lost
        return self.presumed_lost / total if total else 0.0


class LossMonitor:
    """Periodically snapshots a tracker into per-path loss-rate series.

    Call :meth:`sample` on a fixed cadence (the Tango controller does this
    from its control loop); each call converts the delta of counters since
    the previous call into a :class:`LossBin` and appends the loss
    fraction to the per-path series.
    """

    def __init__(self, tracker: SequenceTracker) -> None:
        self._tracker = tracker
        #: The tracker's path ids ascending, re-sorted only when it has
        #: gained one.
        self._ids: list[int] = []
        self._last: dict[int, tuple[int, int]] = {}
        self.series: dict[int, TimeSeries] = {}
        self.bins: dict[int, list[LossBin]] = {}

    def sample(self, now: float) -> dict[int, LossBin]:
        """Snapshot all paths; returns the new bin per path."""
        states = self._tracker.states()
        if len(self._ids) != len(states):
            self._ids = sorted(states)
        out: dict[int, LossBin] = {}
        for path_id in self._ids:
            stats = states[path_id].stats
            prev_received, prev_lost = self._last.get(path_id, (0, 0))
            bin_ = LossBin(
                t=now,
                received=stats.received - prev_received,
                presumed_lost=stats.presumed_lost - prev_lost,
            )
            self._last[path_id] = (stats.received, stats.presumed_lost)
            series = self.series.get(path_id)
            if series is None:
                series = self.series[path_id] = TimeSeries()
            series.append(now, bin_.loss_fraction)
            self.bins.setdefault(path_id, []).append(bin_)
            out[path_id] = bin_
        return out

    def recent_loss(self, path_id: int, bins: int = 1) -> float:
        """Mean loss fraction over the last ``bins`` samples (0 if none)."""
        if bins < 1:
            raise ValueError(f"bins must be positive, got {bins}")
        history = self.bins.get(path_id, [])
        if not history:
            return 0.0
        tail = history[-bins:]
        received = sum(b.received for b in tail)
        lost = sum(b.presumed_lost for b in tail)
        total = received + lost
        return lost / total if total else 0.0
