"""The report road before it resolved its series once (commit b48e03a),
and the loss monitor before it derived its series from its counters.

``StoreCursor`` and ``TelemetryMirror`` as they were: every read
re-looked up each followed path's series and position, found a block's
end with ``count_before`` over the whole series, and wrote it through
``sink.series(path_id).extend_from``.  ``test_write_behind.py`` drives
them in lockstep with the product.  ``LossMonitor`` as it was: every
sample also wrote its loss fractions to a private store, one aggregate
row per sample, and ``series`` read that store; ``test_loss.py`` drives
it in lockstep with the product.  They are the reference models, kept
byte for byte in behaviour, not code to call from ``repro``.
"""

from array import array
from bisect import insort
from typing import Iterable, Iterator, Mapping, Optional

import numpy as np

from repro.dataplane.seqnum import SequenceTracker
from repro.telemetry.loss import LossBin
from repro.telemetry.store import MeasurementStore, TimeSeries


class OracleCursor:
    """The parent's ``StoreCursor``."""

    def __init__(
        self, store: MeasurementStore, path_ids: Optional[Iterable[int]] = None
    ) -> None:
        self.store = store
        self._scoped = path_ids is not None
        self._ids: list[int] = sorted(set(path_ids)) if self._scoped else []
        self._positions: dict[int, int] = {}

    @property
    def scope(self) -> Optional[frozenset[int]]:
        return frozenset(self._ids) if self._scoped else None

    def extend_scope(self, path_id: int) -> None:
        if self._scoped and path_id not in self._ids:
            insort(self._ids, path_id)

    def _unread(self) -> Iterator[tuple[int, TimeSeries, int]]:
        store = self.store
        if store._written:
            store._sync()
        series_by_id = store._series
        if not self._scoped and len(self._ids) != len(series_by_id):
            self._ids = sorted(series_by_id)
        for path_id in self._ids:
            series = series_by_id.get(path_id)
            if series is not None:
                start = self._positions.get(path_id, 0)
                if series._size > start:
                    yield path_id, series, start

    def take(
        self, through: float = np.inf
    ) -> Iterator[tuple[int, TimeSeries, int, int]]:
        for path_id, series, start in self._unread():
            # The parent's count_before(through, inclusive=True).
            end = int(series.times.searchsorted(through, "right"))
            if end > start:
                yield path_id, series, start, end
                self._positions[path_id] = end

    def discard_before(self, t: float) -> int:
        discarded = 0
        for path_id, series, start in self._unread():
            cut = series.count_before(t)
            if cut > start:
                self._positions[path_id] = cut
                discarded += cut - start
        return discarded


class OracleMirror:
    """The parent's ``TelemetryMirror`` over :class:`OracleCursor`."""

    def __init__(
        self,
        source: MeasurementStore,
        sink: MeasurementStore,
        latency_s: float = 0.0,
        path_ids: Optional[set[int]] = None,
    ) -> None:
        if latency_s < 0:
            raise ValueError(f"latency must be >= 0, got {latency_s}")
        self.source = source
        self.sink = sink
        self.latency_s = latency_s
        self._cursor = OracleCursor(source, path_ids)
        self.samples_mirrored = 0
        self.samples_discarded = 0

    @property
    def path_ids(self) -> Optional[frozenset[int]]:
        return self._cursor.scope

    def extend_scope(self, path_id: int) -> None:
        self._cursor.extend_scope(path_id)

    def discard_before(self, t: float) -> int:
        discarded = self._cursor.discard_before(t)
        self.samples_discarded += discarded
        return discarded

    def sync(self, now: float) -> int:
        horizon = now - self.latency_s
        copied = 0
        for path_id, series, start, end in self._cursor.take(horizon):
            self.sink.series(path_id).extend_from(series, start, end)
            copied += end - start
        self.samples_mirrored += copied
        return copied


class OracleLossMonitor:
    """The parent's ``LossMonitor``: every sample also writes its loss
    fractions to a private store, which ``series`` reads."""

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
        #: Last bin's loss fraction per path.
        self.last_loss: dict[int, float] = {}
        self._fractions = MeasurementStore()

    @property
    def series(self) -> dict[int, TimeSeries]:
        """Per-path loss-fraction series, one sample per :meth:`sample`."""
        return dict(self._fractions.items())

    def sample(self, now: float) -> Mapping[int, LossBin]:
        """Snapshot all paths; returns the new bin per path."""
        states = self._tracker.states()
        if len(self._ids) != len(states):
            self._admit(states)
        self._samples += 1
        if not self._ids:
            # A controller ticks long before (or without) any traffic.
            return {}
        fractions = []
        for stats, received, lost in self._columns:
            got, dropped = stats.received, stats.presumed_lost
            total = got - received[-1] + dropped - lost[-1]
            fractions.append((dropped - lost[-1]) / total if total else 0.0)
            received.append(got)
            lost.append(dropped)
        self.last_loss = dict(zip(self._ids, fractions))
        self._fractions.record_aggregate_many(self._ids, now, fractions)
        # The parent's ``_Bins`` view, materialized.
        return {p: self._bin(p, now, self._samples) for p in self._ids}

    def _admit(self, states: Mapping) -> None:
        """Start histories for the paths the tracker has gained."""
        for path_id in states:
            if path_id not in self._born:
                self._born[path_id] = self._samples
                self._received[path_id] = array("q", [0])
                self._lost[path_id] = array("q", [0])
        self._ids = sorted(states)
        self._columns = [
            (states[p].stats, self._received[p], self._lost[p]) for p in self._ids
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
