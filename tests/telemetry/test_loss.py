"""Tests for the loss monitor."""

import pytest

from repro.dataplane.seqnum import SequenceTracker
from repro.telemetry.loss import LossBin, LossMonitor


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
