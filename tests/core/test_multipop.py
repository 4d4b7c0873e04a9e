"""Tests for the multi-PoP offset store (paper footnote 1)."""

import pytest

from repro.core.multipop import MultiPopStore


class TestMultiPopStore:
    def test_normalization_makes_pops_comparable(self):
        """The footnote's requirement, executed: without calibration the
        faster path measured at the skewed PoP looks slower; with it the
        comparison is correct."""
        store = MultiPopStore(reference_pop="pop-a")
        store.set_offset("pop-b", 0.005)  # pop-b clock ahead by 5 ms
        # Path 1 (28 ms true) lands at pop-b; path 2 (30 ms true) at pop-a.
        for i in range(100):
            t = i * 0.01
            store.record("pop-b", 1, t, 0.028 + 0.005)
            store.record("pop-a", 2, t, 0.030)
        means = {
            path_id: store.store.recent_delay(path_id, window_s=2.0, now=1.0)
            for path_id in (1, 2)
        }
        assert means[1] == pytest.approx(0.028)
        assert means[2] == pytest.approx(0.030)
        assert means[1] < means[2]  # the true ordering, restored

    def test_uncalibrated_pop_is_loud(self):
        store = MultiPopStore(reference_pop="pop-a")
        with pytest.raises(KeyError, match="not calibrated"):
            store.record("pop-z", 1, 0.0, 0.030)

    def test_reference_pop_needs_no_calibration(self):
        store = MultiPopStore(reference_pop="pop-a")
        store.record("pop-a", 1, 0.0, 0.030)
        assert store.offset("pop-a") == 0.0
