"""Tests for reordering metrics."""

import numpy as np
import pytest

from repro.telemetry.reorder import reordering_from_arrivals


class TestReorderingFromArrivals:
    def test_in_order_stream_clean(self):
        seqs = np.arange(10)
        times = np.arange(10) * 0.01
        report = reordering_from_arrivals(seqs, times)
        assert report.reordered == 0
        assert report.reordered_fraction == 0.0
        assert report.max_extent == 0

    def test_single_swap_detected(self):
        seqs = np.asarray([0, 2, 1, 3])
        times = np.asarray([0.0, 0.01, 0.02, 0.03])
        report = reordering_from_arrivals(seqs, times)
        assert report.reordered == 1
        assert report.max_extent == 1
        assert report.reordered_fraction == pytest.approx(0.25)

    def test_spike_induced_reordering_extent(self):
        """A delayed packet overtaken by several later ones — the paper's
        instability scenario."""
        seqs = np.asarray([0, 2, 3, 4, 1])
        times = np.asarray([0.0, 0.01, 0.02, 0.03, 0.04])
        report = reordering_from_arrivals(seqs, times)
        assert report.reordered == 1
        assert report.max_extent == 3

    def test_late_time_measured(self):
        seqs = np.asarray([0, 2, 1])
        times = np.asarray([0.0, 0.010, 0.030])
        report = reordering_from_arrivals(seqs, times)
        assert report.mean_late_time_s == pytest.approx(0.020)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            reordering_from_arrivals(np.arange(3), np.arange(2.0))

    def test_empty_stream(self):
        report = reordering_from_arrivals(np.asarray([]), np.asarray([]))
        assert report.packets == 0
        assert report.reordered_fraction == 0.0
