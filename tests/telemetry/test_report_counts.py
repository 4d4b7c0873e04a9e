"""Counted, not timed: a mirror sync costs the rows it copies, no more.

Each ``TelemetryMirror`` resolves a followed path's source and sink
series once, finds a block's end by searching only the rows it has not
read, and writes one block per path.  On the golden N=4 live federation
(mirrors, control plane, traffic on all 12 directions, a relay outage),
every sync after a warm-up is counted: no ``TimeSeries.count_before``
over a whole series, no ``MeasurementStore.series`` lookup, and exactly
one sink write per path whose sink series grew.  Exact on any host; at
the parent commit each sync made one whole-series search per followed
path with unread rows and one ``series()`` lookup per block.
"""

from collections import Counter

from repro.core.session import TelemetryMirror
from repro.telemetry.store import MeasurementStore, TimeSeries
from tests.federation.test_golden_live import build_federation_live

WARM_UP_S = 1.0
UNTIL_S = 10.0


def test_a_sync_searches_no_whole_series_and_writes_once_per_path(monkeypatch):
    calls = Counter()
    writes = Counter()  # sink series id -> writes inside the current sync
    counting, in_sync = [False], [False]

    def counted(name, fn, per_series=False):
        def wrapper(self, *args, **kwargs):
            if in_sync[0]:
                calls[name] += 1
                if per_series:
                    writes[id(self)] += 1
            return fn(self, *args, **kwargs)

        return wrapper

    for cls, name, per_series in (
        (TimeSeries, "count_before", False),
        (MeasurementStore, "series", False),
        (TimeSeries, "append", True),
        (TimeSeries, "extend_from", True),
        (TimeSeries, "extend", True),
    ):
        monkeypatch.setattr(cls, name, counted(name, getattr(cls, name), per_series))

    sync = TelemetryMirror.sync
    grown_paths = []

    def counted_sync(self, now):
        # Patched before the mirrors exist: the tick wheel keeps bound methods.
        if not counting[0]:
            return sync(self, now)
        sink = self.sink._series
        before = {path_id: len(series) for path_id, series in sink.items()}
        writes.clear()
        in_sync[0] = True
        try:
            copied = sync(self, now)
        finally:
            in_sync[0] = False
        grown = {
            path_id: series
            for path_id, series in sink.items()
            if len(series) > before.get(path_id, 0)
        }
        # One write per grown series, none anywhere else.
        assert {id(series) for series in grown.values()} == set(writes)
        assert all(count == 1 for count in writes.values())
        assert copied == sum(len(s) - before.get(p, 0) for p, s in grown.items())
        calls["syncs"] += 1
        grown_paths.append(len(grown))
        return copied

    monkeypatch.setattr(TelemetryMirror, "sync", counted_sync)
    registry = build_federation_live()
    registry.sim.run(until=WARM_UP_S)
    counting[0] = True
    registry.sim.run(until=UNTIL_S)
    registry.stop()

    # 12 directions' mirrors, one sync each per 100 ms round.
    assert calls["syncs"] == 12 * 90
    assert calls["count_before"] == 0
    assert calls["series"] == 0
    assert calls["append"] + calls["extend_from"] == sum(grown_paths) > 0
    assert calls["extend"] == 0
