"""Tests for the loss monitor."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dataplane.seqnum import SequenceTracker
from repro.telemetry.loss import LossBin, LossMonitor
from tests.core import oracle
from tests.telemetry.oracle import OracleLossMonitor


class TestLossBin:
    def test_fraction(self):
        assert LossBin(t=0.0, received=9, presumed_lost=1).loss_fraction == 0.1

    def test_empty_bin_zero(self):
        assert LossBin(t=0.0, received=0, presumed_lost=0).loss_fraction == 0.0


class TestLossMonitor:
    def test_deltas_not_cumulative(self):
        tracker = SequenceTracker()
        monitor = LossMonitor(tracker)
        for seq in range(10):
            tracker.observe(1, seq)
        first = monitor.sample(1.0)
        assert first[1].received == 10
        for seq in range(10, 15):
            tracker.observe(1, seq)
        second = monitor.sample(2.0)
        assert second[1].received == 5

    def test_loss_attributed_to_correct_bin(self):
        tracker = SequenceTracker()
        monitor = LossMonitor(tracker)
        tracker.observe(1, 0)
        monitor.sample(1.0)
        tracker.observe(1, 5)  # 4 lost since last sample
        bins = monitor.sample(2.0)
        assert bins[1].presumed_lost == 4
        assert bins[1].loss_fraction == pytest.approx(4 / 5)

    def test_series_accumulates(self):
        tracker = SequenceTracker()
        monitor = LossMonitor(tracker)
        tracker.observe(1, 0)
        monitor.sample(1.0)
        monitor.sample(2.0)
        assert len(monitor.series[1]) == 2

    def test_recent_loss_over_bins(self):
        tracker = SequenceTracker()
        monitor = LossMonitor(tracker)
        tracker.observe(1, 0)
        monitor.sample(1.0)  # clean bin
        tracker.observe(1, 3)  # 2 lost
        monitor.sample(2.0)
        assert monitor.recent_loss(1, bins=1) == pytest.approx(2 / 3)
        assert monitor.recent_loss(1, bins=2) == pytest.approx(2 / 4)

    @pytest.mark.parametrize("bins", [0, -1])
    def test_recent_loss_needs_at_least_one_bin(self, bins):
        # history[-0:] is the whole history, not "no bins".
        tracker = SequenceTracker()
        monitor = LossMonitor(tracker)
        tracker.observe(1, 0)
        monitor.sample(1.0)
        with pytest.raises(ValueError, match="bins"):
            monitor.recent_loss(1, bins=bins)
        with pytest.raises(ValueError, match="bins"):
            monitor.recent_loss(99, bins=bins)

    def test_recent_loss_unknown_path(self):
        monitor = LossMonitor(SequenceTracker())
        assert monitor.recent_loss(9) == 0.0

    def test_reconciled_reordering_reduces_loss(self):
        tracker = SequenceTracker()
        monitor = LossMonitor(tracker)
        tracker.observe(1, 0)
        tracker.observe(1, 2)
        tracker.observe(1, 1)  # late, reconciles
        bins = monitor.sample(1.0)
        assert bins[1].presumed_lost == 0
        assert bins[1].received == 3


#: Paths 5 and 9 exist from the start; 1 (below both) only once first used.
_FIRST_IDS = [5, 9]
_steps = st.lists(
    st.one_of(
        st.tuples(
            st.just("aggregate"),
            st.sampled_from(_FIRST_IDS + [1]),
            st.integers(0, 12),
            st.integers(0, 6),
        ),
        # Gaps presume loss, a late arrival reconciles it: a bin's loss
        # can be negative.
        st.tuples(
            st.just("observe"), st.sampled_from(_FIRST_IDS + [1]), st.integers(-3, 4)
        ),
        st.tuples(st.just("sample")),
    ),
    max_size=60,
)


@settings(max_examples=150, deadline=None)
@given(steps=_steps)
def test_cumulative_counters_match_the_bin_list(steps):
    """Bins, series bytes and ``recent_loss`` over 1..5 bins equal the
    list-of-bins monitor's for any tracker update stream."""
    trackers = SequenceTracker(), SequenceTracker()
    for tracker in trackers:
        for path_id in _FIRST_IDS:
            tracker.record_aggregate(path_id, 0, 0)
    ours, theirs = LossMonitor(trackers[0]), oracle.LossMonitor(trackers[1])
    now = 0.0
    for step in steps:
        if step[0] == "aggregate":
            for tracker in trackers:
                tracker.record_aggregate(*step[1:])
        elif step[0] == "observe":
            _, path_id, ahead = step
            for tracker in trackers:
                seq = tracker.stats_for(path_id).highest_seen + ahead
                tracker.observe(path_id, max(seq, 0))
        else:
            now += 0.25
            assert dict(ours.sample(now)) == theirs.sample(now)
        for path_id in _FIRST_IDS + [1, 99]:
            for bins in range(1, 6):
                assert ours.recent_loss(path_id, bins) == theirs.recent_loss(
                    path_id, bins
                )
    assert sorted(ours.series) == sorted(theirs.series)
    for path_id, series in theirs.series.items():
        assert ours.series[path_id].times.tobytes() == series.times.tobytes()
        assert ours.series[path_id].values.tobytes() == series.values.tobytes()


#: A step of the lockstep run: tracker updates, or a sample after a
#: time advance (0: two samples at one instant, which the store allowed).
_lockstep_steps = st.lists(
    st.one_of(
        st.tuples(
            st.just("aggregate"),
            st.sampled_from([1, 5, 9]),
            st.integers(0, 12),
            st.integers(0, 6),
        ),
        st.tuples(st.just("observe"), st.sampled_from([1, 5, 9]), st.integers(-3, 4)),
        st.tuples(st.just("sample"), st.sampled_from([0.0, 0.1, 0.25, 1.0])),
    ),
    max_size=60,
)


@settings(max_examples=150, deadline=None)
@given(steps=_lockstep_steps, first_ids=st.lists(st.sampled_from([5, 9]), unique=True))
def test_series_derived_from_the_counters_equal_the_stored_fractions(steps, first_ids):
    """The monitor keeps counters and derives its series on read; the
    parent's wrote every sample's fractions to a store.  Driven alike,
    they answer alike: bins, ``last_loss``, ``recent_loss`` and series
    bytes (order, times and values), samples before any path included."""
    trackers = SequenceTracker(), SequenceTracker()
    for tracker in trackers:
        for path_id in first_ids:
            tracker.record_aggregate(path_id, 0, 0)
    ours, theirs = LossMonitor(trackers[0]), OracleLossMonitor(trackers[1])
    now = 0.0
    for step in steps:
        if step[0] == "aggregate":
            for tracker in trackers:
                tracker.record_aggregate(*step[1:])
        elif step[0] == "observe":
            _, path_id, ahead = step
            for tracker in trackers:
                seq = tracker.stats_for(path_id).highest_seen + ahead
                tracker.observe(path_id, max(seq, 0))
        else:
            now += step[1]
            assert dict(ours.sample(now)) == theirs.sample(now)
            assert ours.last_loss == theirs.last_loss
        for path_id in (1, 5, 9, 99):
            for bins in range(1, 6):
                assert ours.recent_loss(path_id, bins) == theirs.recent_loss(
                    path_id, bins
                )
    derived, stored = ours.series, theirs.series
    assert list(derived) == list(stored)
    for path_id, series in stored.items():
        assert len(derived[path_id]) == len(series)
        assert derived[path_id].times.tobytes() == series.times.tobytes()
        assert derived[path_id].values.tobytes() == series.values.tobytes()


@pytest.mark.parametrize("bad", [0.5, float("nan")])
def test_a_sample_behind_the_last_is_refused_and_keeps_nothing(bad):
    tracker = SequenceTracker()
    monitor = LossMonitor(tracker)
    tracker.record_aggregate(1, 9, 1)
    monitor.sample(1.0)
    tracker.record_aggregate(1, 5, 5)
    with pytest.raises(ValueError, match="backwards or is NaN"):
        monitor.sample(bad)
    assert monitor.last_loss == {1: 0.1}
    assert monitor.series[1].values.tolist() == [0.1]
    assert monitor.sample(1.0)[1] == LossBin(t=1.0, received=5, presumed_lost=5)
    assert monitor.series[1].times.tolist() == [1.0, 1.0]
