"""Tests for campaign statistics."""

import numpy as np
import pytest

from repro.analysis.stats import (
    campaign_table,
    default_vs_best,
    detect_excursions,
)
from repro.telemetry.store import MeasurementStore


def store_with(means, n=200):
    store = MeasurementStore()
    times = np.arange(n) * 0.01
    for path_id, mean in means.items():
        store.extend(path_id, times, np.full(n, mean))
    return store


class TestCampaignTable:
    def test_rows_per_path(self):
        store = store_with({0: 0.036, 2: 0.028})
        rows = campaign_table(store, labels={0: "NTT", 2: "GTT"})
        assert [r.label for r in rows] == ["NTT", "GTT"]
        assert rows[0].mean == pytest.approx(0.036)
        assert rows[0].as_row()["mean_ms"] == pytest.approx(36.0)

    def test_window_restriction(self):
        store = MeasurementStore()
        store.extend(1, np.asarray([0.0, 10.0]), np.asarray([0.030, 0.090]))
        rows = campaign_table(store, labels={}, t0=5.0, t1=15.0)
        assert rows[0].samples == 1
        assert rows[0].mean == pytest.approx(0.090)

    def test_empty_window_skipped(self):
        store = store_with({1: 0.030})
        assert campaign_table(store, {}, t0=100.0, t1=200.0) == []


class TestDefaultVsBest:
    def test_paper_headline_shape(self):
        """NTT (default) ≈ 30% worse than GTT (best)."""
        store = store_with({0: 0.0364, 1: 0.033, 2: 0.028})
        comparison = default_vs_best(store, {0: "NTT", 2: "GTT"}, 0)
        assert comparison.best_label == "GTT"
        assert comparison.penalty_fraction == pytest.approx(0.30, abs=0.01)

    def test_unknown_default_raises(self):
        store = store_with({1: 0.030})
        with pytest.raises(KeyError):
            default_vs_best(store, {}, 0)

    def test_default_already_best(self):
        store = store_with({0: 0.028, 1: 0.036})
        comparison = default_vs_best(store, {}, 0)
        assert comparison.penalty_fraction == 0.0


class TestDetectExcursions:
    def test_single_excursion_found(self):
        times = np.arange(100) * 1.0
        values = np.full(100, 0.028)
        values[40:50] = 0.060
        excursions = detect_excursions(times, values, threshold=0.04)
        assert len(excursions) == 1
        assert excursions[0].start == 40.0
        assert excursions[0].end == 49.0
        assert excursions[0].peak == pytest.approx(0.060)

    def test_nearby_excursions_merge(self):
        times = np.arange(100) * 1.0
        values = np.full(100, 0.028)
        values[10] = 0.060
        values[12] = 0.070  # gap of 2 s > merge_gap 1 s -> separate
        separate = detect_excursions(times, values, 0.04, merge_gap_s=1.0)
        merged = detect_excursions(times, values, 0.04, merge_gap_s=5.0)
        assert len(separate) == 2
        assert len(merged) == 1
        assert merged[0].peak == pytest.approx(0.070)

    def test_no_excursions(self):
        times = np.arange(10) * 1.0
        values = np.full(10, 0.028)
        assert detect_excursions(times, values, 0.04) == []

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            detect_excursions(np.arange(3.0), np.arange(2.0), 1.0)
