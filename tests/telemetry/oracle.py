"""The report road before it resolved its series once (commit b48e03a).

``StoreCursor`` and ``TelemetryMirror`` as they were: every read
re-looked up each followed path's series and position, found a block's
end with ``count_before`` over the whole series, and wrote it through
``sink.series(path_id).extend_from``.  ``test_write_behind.py`` drives
them in lockstep with the product; they are the reference model, kept
byte for byte in behaviour, not code to call from ``repro``.
"""

from bisect import insort
from typing import Iterable, Iterator, Optional

import numpy as np

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
