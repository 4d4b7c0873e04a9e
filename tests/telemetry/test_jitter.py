"""Tests for the rolling-window jitter metric."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.netsim.delaymodels import GaussianJitterDelay
from repro.telemetry.jitter import jitter_report, rolling_window_std
from repro.telemetry.store import MeasurementStore


def regular_series(sigma, n=3000, interval=0.01, seed=5):
    """A 10 ms-cadence series with known Gaussian jitter."""
    times = np.arange(n) * interval
    model = GaussianJitterDelay(0.028, sigma, seed=seed)
    return times, model.delays(times)


class TestRollingWindowStd:
    def test_constant_series_has_zero_jitter(self):
        times = np.arange(200) * 0.01
        values = np.full(200, 0.030)
        assert rolling_window_std(times, values) == pytest.approx(0.0)

    def test_recovers_known_sigma(self):
        """Calibration check: the metric converges to the generator's
        sigma — what makes the paper's 0.01 ms / 0.33 ms reproducible."""
        for sigma in (0.00001, 0.00033):
            times, values = regular_series(sigma)
            measured = rolling_window_std(times, values, window_s=1.0)
            assert measured == pytest.approx(sigma, rel=0.05)

    def test_ranks_paths_like_the_paper(self):
        t_gtt, v_gtt = regular_series(0.00001, seed=1)
        t_telia, v_telia = regular_series(0.00033, seed=2)
        assert rolling_window_std(t_gtt, v_gtt) < rolling_window_std(
            t_telia, v_telia
        )

    def test_too_few_samples_nan(self):
        assert np.isnan(rolling_window_std(np.asarray([0.0]), np.asarray([1.0])))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            rolling_window_std(np.arange(3.0), np.arange(2.0))

    def test_invalid_window_rejected(self):
        with pytest.raises(ValueError):
            rolling_window_std(np.arange(5.0), np.arange(5.0), window_s=0.0)

    def test_offset_invariance(self):
        """Adding a constant (clock offset) cannot change jitter."""
        times, values = regular_series(0.0002)
        base = rolling_window_std(times, values)
        shifted = rolling_window_std(times, values + 0.5)
        assert base == pytest.approx(shifted, rel=1e-9)

    @given(st.floats(min_value=1e-6, max_value=1e-3))
    @settings(max_examples=20, deadline=None)
    def test_monotone_in_sigma(self, sigma):
        """Property: more generator noise, more measured jitter."""
        times, low = regular_series(sigma, n=1000)
        _, high = regular_series(sigma * 3, n=1000, seed=6)
        assert rolling_window_std(times, low) < rolling_window_std(times, high)


class TestJitterReport:
    def test_report_per_path(self):
        store = MeasurementStore()
        t1, v1 = regular_series(0.00001, seed=1)
        t2, v2 = regular_series(0.00033, seed=2)
        store.extend(2, t1, v1)  # "GTT"
        store.extend(1, t2, v2)  # "Telia"
        report = jitter_report(store, 0.0, 100.0)
        assert report[2] == pytest.approx(0.00001, rel=0.1)
        assert report[1] == pytest.approx(0.00033, rel=0.1)

    def test_single_sample_paths_skipped(self):
        store = MeasurementStore()
        store.record(1, 0.0, 0.030)
        assert jitter_report(store, 0.0, 1.0) == {}
