"""Loss monitoring from tunnel sequence numbers.

Builds time-binned loss-rate series on top of the data plane's
:class:`~repro.dataplane.seqnum.SequenceTracker` counters, so policies can
react to loss (not only delay) and reports can show loss aligned with the
delay timeline.
"""

from __future__ import annotations

import math
from array import array
from collections.abc import Iterator, Mapping
from dataclasses import dataclass
from types import MappingProxyType

import numpy as np

from ..dataplane.seqnum import SequenceTracker
from .store import _NO_TIME, TimeSeries, _time_error

__all__ = ["LossBin", "LossMonitor"]

#: What :meth:`LossMonitor.sample` returns while the tracker has no path.
_NO_BINS: Mapping[int, "LossBin"] = MappingProxyType({})


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
    from its control loop); each call turns the counters' growth since
    the previous call into one bin per path.  What is kept is the time
    of every sample and per path the tracker's cumulative ``(received,
    presumed_lost)`` at each of them — and the latest bin's loss
    fractions, :attr:`last_loss`.  Everything else is derived from those
    counters when read: the loss over the last ``k`` bins is a
    difference of two entries, a bin is a difference of two neighbours,
    and :attr:`series` divides each bin's counts.
    """

    def __init__(self, tracker: SequenceTracker) -> None:
        self._tracker = tracker
        #: The tracker's path ids ascending, re-sorted only when it has
        #: gained one, and per id its counters and histories.
        self._ids: list[int] = []
        self._columns: list[tuple] = []
        #: Per path: cumulative counts at each of its samples, after a
        #: leading 0 (the counts before its first sample).
        self._received: dict[int, array] = {}
        self._lost: dict[int, array] = {}
        #: Per path: the number of samples taken before it was first seen.
        self._born: dict[int, int] = {}
        self._samples = 0
        #: The time of every sample, and of the latest one.
        self._times = array("d")
        self._last_t = _NO_TIME
        #: Last bin's loss fraction per path.
        self.last_loss: dict[int, float] = {}

    @property
    def series(self) -> dict[int, TimeSeries]:
        """Per-path loss-fraction series, one sample per :meth:`sample`
        since the path was first seen; built from the counters on read."""
        out: dict[int, TimeSeries] = {}
        for path_id, born in sorted(self._born.items()):
            samples = range(born + 1, born + len(self._received[path_id]))
            if samples:
                fractions = [self._bin(path_id, 0.0, s).loss_fraction for s in samples]
                out[path_id] = series = TimeSeries()
                series.extend(
                    np.array(self._times[born : samples.stop - 1]), np.array(fractions)
                )
        return out

    def sample(self, now: float) -> Mapping[int, LossBin]:
        """Snapshot all paths; returns the new bin per path.

        Raises:
            ValueError: ``now`` is before the previous sample's time, or
                is NaN or infinite.
        """
        if not (self._last_t <= now < math.inf):
            raise _time_error(now, self._last_t)
        states = self._tracker.states()
        if len(self._ids) != len(states):
            self._admit(states)
        self._samples += 1
        self._times.append(now)
        self._last_t = now
        if not self._ids:
            # A controller ticks long before (or without) any traffic.
            return _NO_BINS
        self.last_loss = last_loss = {}
        for path_id, stats, received, lost in self._columns:
            got, dropped = stats.received, stats.presumed_lost
            new_lost = dropped - lost[-1]
            total = got - received[-1] + new_lost
            last_loss[path_id] = new_lost / total if total else 0.0
            received.append(got)
            lost.append(dropped)
        return _Bins(self, now, self._samples, self._ids)

    def _admit(self, states: Mapping) -> None:
        """Start histories for the paths the tracker has gained."""
        for path_id in states:
            if path_id not in self._born:
                self._born[path_id] = self._samples
                self._received[path_id] = array("q", [0])
                self._lost[path_id] = array("q", [0])
        self._ids = sorted(states)
        self._columns = [
            (p, states[p].stats, self._received[p], self._lost[p]) for p in self._ids
        ]

    def recent_loss(self, path_id: int, bins: int = 1) -> float:
        """Mean loss fraction over the last ``bins`` samples (0 if none)."""
        if bins < 1:
            raise ValueError(f"bins must be positive, got {bins}")
        received = self._received.get(path_id)
        if received is None:
            return 0.0
        lost = self._lost[path_id]
        start = max(len(received) - 1 - bins, 0)
        dropped = lost[-1] - lost[start]
        total = received[-1] - received[start] + dropped
        return dropped / total if total else 0.0

    def _bin(self, path_id: int, t: float, sample: int) -> LossBin:
        """Path ``path_id``'s bin of the ``sample``-th sample (1-based)."""
        row = sample - self._born[path_id]
        received, lost = self._received[path_id], self._lost[path_id]
        return LossBin(
            t=t,
            received=received[row] - received[row - 1],
            presumed_lost=lost[row] - lost[row - 1],
        )


class _Bins(Mapping[int, LossBin]):
    """One sample's bins, built on lookup from the monitor's histories."""

    __slots__ = ("_monitor", "_t", "_sample", "_ids")

    def __init__(
        self, monitor: LossMonitor, t: float, sample: int, ids: list[int]
    ) -> None:
        self._monitor = monitor
        self._t = t
        self._sample = sample
        self._ids = ids

    def __getitem__(self, path_id: int) -> LossBin:
        born = self._monitor._born.get(path_id)
        if born is None or born >= self._sample:
            raise KeyError(path_id)
        return self._monitor._bin(path_id, self._t, self._sample)

    def __iter__(self) -> Iterator[int]:
        return iter(self._ids)

    def __len__(self) -> int:
        return len(self._ids)
