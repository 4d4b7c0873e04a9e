"""Property-based tests on the replay engine and telemetry mirror —
the two places where a silent bookkeeping bug would corrupt every
campaign-scale result."""

from functools import partial

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.replay import PolicyReplay
from repro.core.policy import (
    HysteresisSelector,
    JitterAwareSelector,
    LowestDelaySelector,
    StaticSelector,
)
from repro.core.session import TelemetryMirror
from repro.telemetry.store import MeasurementStore


def make_stores(path_means, t1, interval):
    measured, true = MeasurementStore(), MeasurementStore()
    times = np.arange(0.0, t1, interval)
    for path_id, mean in path_means.items():
        values = np.full(times.size, mean)
        measured.extend(path_id, times, values + 0.005)
        true.extend(path_id, times, values)
    return measured, true


#: Hypothesis-chosen policy and knobs; call with the measured store.
selector_factories = st.one_of(
    st.just(lambda measured: StaticSelector(1)),
    st.builds(
        partial,
        st.just(LowestDelaySelector),
        window_s=st.floats(min_value=0.02, max_value=2.0),
        fallback_index=st.integers(min_value=0, max_value=1),
    ),
    st.builds(
        partial,
        st.just(HysteresisSelector),
        margin_s=st.floats(min_value=0.0, max_value=0.01),
        dwell_s=st.floats(min_value=0.0, max_value=3.0),
    ),
    st.builds(
        partial,
        st.just(JitterAwareSelector),
        jitter_weight=st.floats(min_value=0.0, max_value=20.0),
    ),
)


class TestReplayProperties:
    @given(
        means=st.lists(
            st.floats(min_value=0.01, max_value=0.1, allow_nan=False),
            min_size=2,
            max_size=5,
        ),
        decision_interval=st.floats(min_value=0.05, max_value=1.3),
        probe_interval=st.sampled_from([0.01, 0.05, 0.1]),
        make_selector=selector_factories,
    )
    @settings(max_examples=40, deadline=None)
    def test_every_probe_gets_a_choice_and_a_true_value(
        self, means, decision_interval, probe_interval, make_selector
    ):
        """Property: regardless of epoch/probe grid alignment, every
        probe sample is assigned a valid path and its achieved value is
        exactly the chosen path's true value at that instant."""
        path_means = {i: m for i, m in enumerate(means)}
        measured, true = make_stores(path_means, 10.0, probe_interval)
        replay = PolicyReplay(true, decision_interval_s=decision_interval)
        result = replay.run(make_selector(measured), 0.0, 10.0)
        assert set(np.unique(result.choices)).issubset(set(path_means))
        for path_id in path_means:
            mask = result.choices == path_id
            if np.any(mask):
                np.testing.assert_allclose(
                    result.achieved[mask], path_means[path_id]
                )

    @given(
        st.floats(min_value=0.05, max_value=2.0),
        selector_factories,
    )
    @settings(max_examples=20, deadline=None)
    def test_switch_count_matches_choice_transitions(
        self, decision_interval, make_selector
    ):
        """Path 1 is better until t=5 and worse after, so the measured
        selectors move at least once; each move is one counted switch."""
        measured, true = MeasurementStore(), MeasurementStore()
        times = np.arange(0.0, 10.0, 0.01)
        for store in (measured, true):
            store.extend(0, times, np.full(times.size, 0.03))
            store.extend(1, times, np.where(times < 5.0, 0.02, 0.04))
        replay = PolicyReplay(true, decision_interval_s=decision_interval)
        result = replay.run(make_selector(measured), 0.0, 10.0)
        transitions = int(np.sum(np.diff(result.choices) != 0))
        assert result.switch_count == transitions


class TestMirrorProperties:
    @given(
        sample_count=st.integers(min_value=1, max_value=200),
        sync_points=st.lists(
            st.floats(min_value=0.0, max_value=30.0), min_size=1, max_size=20
        ),
        latency=st.floats(min_value=0.0, max_value=1.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_mirror_is_exactly_once(self, sample_count, sync_points, latency):
        """Property: for any sync schedule, every source sample older
        than the horizon appears in the sink exactly once, unchanged."""
        source, sink = MeasurementStore(), MeasurementStore()
        times = np.arange(sample_count) * 0.1
        values = 0.028 + times * 1e-4
        source.extend(7, times, values)
        mirror = TelemetryMirror(source, sink, latency_s=latency)
        for t in sorted(sync_points):
            mirror.sync(t)
        final_horizon = max(sync_points) - latency
        expected = times[times <= final_horizon]
        series = sink.series(7)
        np.testing.assert_array_equal(series.times, expected)
        np.testing.assert_array_equal(
            series.values, values[: expected.size]
        )
        assert mirror.samples_mirrored == expected.size
