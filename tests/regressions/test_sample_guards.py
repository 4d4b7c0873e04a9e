"""Sample times, counts and read windows that are not numbers are refused.

The time guards were spelled ``not (t >= last)``: that refuses NaN but
admits ``+inf``, after which every finite sample of the path is "behind"
and raises.  ``SequenceTracker`` tested its counts with ``< 0``, which a
NaN passes (and a list's ``min`` can hide a NaN behind a smaller count),
so one NaN made every later loss fraction of the path NaN; a fractional
count was kept as is.  ``recent_delay`` answered a NaN or negative window,
or a NaN ``now``, with None — the answer for an unmeasured path.  Each is
a ``ValueError`` now, naming what it refused, with nothing kept.
"""

import math

import numpy as np
import pytest

from repro.dataplane.seqnum import SequenceTracker
from repro.telemetry.loss import LossMonitor
from repro.telemetry.store import MeasurementStore, TimeSeries

NAN, INF = math.nan, math.inf


@pytest.mark.parametrize("t", [INF, -INF, NAN])
def test_a_store_refuses_a_non_finite_time_and_keeps_recording(t):
    store = MeasurementStore()
    store.record(1, 1.0, 0.1)
    with pytest.raises(ValueError, match="NaN or infinite"):
        store.record(1, t, 0.1)
    with pytest.raises(ValueError, match="NaN or infinite"):
        store.record_aggregate_many([1, 2], t, [0.1, 0.2])
    store.record(1, 5.0, 0.1)  # raised "5.0 after inf" at the parent
    store.record_aggregate_many([1, 2], 6.0, [0.1, 0.2])
    assert store.series(1).times.tolist() == [1.0, 5.0, 6.0]
    assert store.series(2).times.tolist() == [6.0]


@pytest.mark.parametrize("t", [INF, -INF, NAN])
def test_a_first_sample_at_a_non_finite_time_is_refused(t):
    with pytest.raises(ValueError):
        TimeSeries().append(t, 0.1)
    with pytest.raises(ValueError):
        MeasurementStore().record_aggregate_many([1, 2], t, [0.1, 0.2])


@pytest.mark.parametrize("times", [[1.0, INF], [-INF, 1.0], [INF]])
def test_extend_refuses_an_infinite_time(times):
    series = TimeSeries()
    with pytest.raises(ValueError):
        series.extend(np.array(times), np.zeros(len(times)))
    assert len(series) == 0
    series.append(2.0, 0.0)


def test_extend_refuses_a_two_dimensional_pair_and_names_its_shape():
    times = np.array([[0.0, 1.0], [2.0, 3.0]])
    with pytest.raises(ValueError, match=r"1-D arrays, got shape \(2, 2\)"):
        TimeSeries().extend(times, times)


def test_a_loss_monitor_refuses_a_non_finite_sample_time():
    tracker = SequenceTracker()
    tracker.record_aggregate(1, 5, 1)
    monitor = LossMonitor(tracker)
    monitor.sample(1.0)
    for t in (INF, NAN):
        with pytest.raises(ValueError, match="NaN or infinite"):
            monitor.sample(t)
    tracker.record_aggregate(1, 3, 1)
    monitor.sample(2.0)  # raised "2.0 after inf" at the parent
    assert monitor.last_loss == {1: 0.25}


def test_a_loss_monitor_refuses_an_infinite_time_before_any_path():
    monitor = LossMonitor(SequenceTracker())
    with pytest.raises(ValueError):
        monitor.sample(INF)
    assert monitor.sample(1.0) == {}


@pytest.mark.parametrize("field", ["delivered", "lost"])
@pytest.mark.parametrize("bad", [NAN, INF, 2.5, -1])
def test_a_tracker_refuses_a_count_that_is_not_whole(field, bad):
    tracker = SequenceTracker()
    counts = {"delivered": 3, "lost": 1, field: bad}
    with pytest.raises(ValueError, match=field):
        tracker.record_aggregate(1, counts["delivered"], counts["lost"])
    batch = {"delivered": [0, 3], "lost": [0, 1]}
    batch[field] = [0, bad]  # min([0, nan]) is 0: a smaller count hid the NaN
    for staged in (False, True):  # written through, then behind a write
        with pytest.raises(ValueError, match=field):
            tracker.record_aggregate_many([1, 2], batch["delivered"], batch["lost"])
        with pytest.raises(ValueError, match=field):
            tracker.record_aggregate_many(
                [1, 2], np.array(batch["delivered"]), np.array(batch["lost"])
            )
        if not staged:
            tracker.record_aggregate_many([3], [1], [0])
    assert list(tracker.all_paths()) == [3]


def test_whole_float_counts_are_still_counts():
    tracker = SequenceTracker()
    tracker.record_aggregate_many([1], [2.0], [1.0])
    tracker.record_aggregate_many([1], np.array([2.0]), np.array([0.0]))
    stats = tracker.stats_for(1)
    assert (stats.received, stats.presumed_lost) == (4, 1)


@pytest.mark.parametrize(
    "window_s, now, name",
    [(NAN, 5.0, "window_s"), (-1.0, 5.0, "window_s"), (1.0, NAN, "now"),
     (1.0, INF, "now")],
)
def test_recent_delay_refuses_a_bad_window(window_s, now, name):
    store = MeasurementStore()
    store.record(1, 4.5, 0.1)
    with pytest.raises(ValueError, match=name):
        store.recent_delay(1, window_s, now)
    with pytest.raises(ValueError, match=name):
        store.recent_delay(2, window_s, now)  # unmeasured: still refused
    assert store.recent_delay(1, 1.0, 5.0) == 0.1
    assert store.recent_delay(1, INF, 5.0) == 0.1
