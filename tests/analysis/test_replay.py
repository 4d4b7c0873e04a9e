"""Tests for the campaign-scale policy replay engine."""

import dataclasses

import numpy as np
import pytest

from repro.analysis.replay import PolicyReplay
from repro.core.policy import (
    GuardedSelector,
    HysteresisSelector,
    JitterAwareSelector,
    LossAwareSelector,
    LowestDelaySelector,
    StaticSelector,
)
from repro.srlg import FateAwareSelector, SrlgRegistry
from repro.telemetry.store import MeasurementStore


def campaign(events=True, interval=0.01, t1=20.0):
    """Two paths: path 0 steady at 36 ms; path 2 at 28 ms, spiking to
    80 ms during [8, 12) when events=True."""
    measured, true = MeasurementStore(), MeasurementStore()
    times = np.arange(0.0, t1, interval)
    p0 = np.full(times.size, 0.036)
    p2 = np.full(times.size, 0.028)
    if events:
        p2[(times >= 8.0) & (times < 12.0)] = 0.080
    for store, offset in ((measured, 0.0045), (true, 0.0)):
        store.extend(0, times, p0 + offset)
        store.extend(2, times, p2 + offset)
    return measured, true


def make_replay(events=True, **params):
    """(measured, replay over the matching truth)."""
    measured, true = campaign(events=events)
    return measured, PolicyReplay(true, **params)


class TestReplayMechanics:
    def test_static_selector_matches_truth(self):
        _, replay = make_replay(events=False)
        result = replay.run(StaticSelector(0), 0.0, 20.0, name="default")
        assert result.mean_delay == pytest.approx(0.036)
        assert result.switch_count == 0
        assert result.fraction_on_path(0) == 1.0

    def test_greedy_follows_best_path(self):
        measured, replay = make_replay(events=False)
        result = replay.run(LowestDelaySelector(measured), 0.0, 20.0)
        assert result.fraction_on_path(2) > 0.9

    def test_greedy_dodges_the_event(self):
        """Adaptive policy leaves path 2 during its spike window and
        returns afterwards — the Fig. 4-right story."""
        measured, replay = make_replay(events=True)
        adaptive = replay.run(LowestDelaySelector(measured), 0.0, 20.0)
        static = replay.run(StaticSelector(1), 0.0, 20.0)  # path 2
        assert adaptive.mean_delay < static.mean_delay
        # Feedback latency means the adaptive policy eats a short burst
        # of spiked samples before reacting; what matters is that its
        # exposure to the event is a small fraction of the static one's.
        adaptive_exposure = float(np.mean(adaptive.achieved > 0.05))
        static_exposure = float(np.mean(static.achieved > 0.05))
        assert static_exposure == pytest.approx(0.2, abs=0.02)
        assert adaptive_exposure < static_exposure / 4
        assert adaptive.switch_count >= 2  # out and back

    def test_visibility_latency_delays_reaction(self):
        measured, fast_replay = make_replay(visibility_latency_s=0.1)
        fast = fast_replay.run(LowestDelaySelector(measured), 0.0, 20.0)
        measured, slow_replay = make_replay(visibility_latency_s=2.0)
        slow = slow_replay.run(LowestDelaySelector(measured), 0.0, 20.0)
        # Slower feedback -> more time stuck on the spiking path.
        assert slow.mean_delay >= fast.mean_delay

    def test_restrict_paths_limits_choices(self):
        measured, replay = make_replay(events=False)
        result = replay.run(
            LowestDelaySelector(measured), 0.0, 20.0, restrict_paths=[0]
        )
        assert result.fraction_on_path(0) == 1.0

    def test_empty_restriction_rejected(self):
        measured, replay = make_replay(events=False)
        with pytest.raises(ValueError, match="no paths to replay over"):
            replay.run(LowestDelaySelector(measured), 0.0, 20.0, restrict_paths=[])

    def test_fallback_past_the_restricted_set_rejected(self):
        measured, replay = make_replay(events=False)
        selector = LowestDelaySelector(measured, fallback_index=1)
        assert replay.run(selector, 0.0, 20.0).switch_count == 0
        with pytest.raises(ValueError, match="fallback_index 1"):
            replay.run(selector, 0.0, 20.0, restrict_paths=[2])

    def test_unknown_choice_rejected(self):
        class Elsewhere:
            def select(self, tunnels, packet, now):
                return dataclasses.replace(tunnels[0], path_id=99)

        _, replay = make_replay(events=False)
        with pytest.raises(ValueError, match="unknown path 99"):
            replay.run(Elsewhere(), 0.0, 20.0)

    def test_empty_window_rejected(self):
        _, replay = make_replay(events=False)
        with pytest.raises(ValueError, match="no samples"):
            replay.run(StaticSelector(0), 100.0, 200.0)

    def test_sample_at_the_visibility_horizon_is_seen(self):
        """A sample stamped exactly ``epoch - visibility_latency_s`` decides
        that epoch, as it would a packet the live selector routes then."""
        measured, true = MeasurementStore(), MeasurementStore()
        true.extend(0, np.array([0.0, 1.0]), np.array([0.03, 0.03]))
        true.extend(1, np.array([0.0, 1.0]), np.array([0.02, 0.02]))
        measured.record(1, 0.5, 0.02)
        replay = PolicyReplay(true, decision_interval_s=1.0, visibility_latency_s=0.5)
        result = replay.run(LowestDelaySelector(measured, window_s=0.1), 0.0, 2.0)
        assert result.choices.tolist() == [0, 1]

    def test_result_row_rendering(self):
        _, replay = make_replay(events=False)
        row = replay.run(StaticSelector(0), 0.0, 20.0, name="x").as_row()
        assert row["policy"] == "x"
        assert row["mean_ms"] == pytest.approx(36.0)

    def test_parameter_validation(self):
        measured, true = campaign()
        with pytest.raises(ValueError):
            PolicyReplay(true, decision_interval_s=0.0)
        with pytest.raises(ValueError):
            PolicyReplay(true, visibility_latency_s=-1.0)


class TestChoosers:
    def test_hysteresis_resists_marginal_wins(self):
        measured, true = MeasurementStore(), MeasurementStore()
        times = np.arange(0.0, 10.0, 0.01)
        for store in (measured, true):
            store.extend(0, times, np.full(times.size, 0.0300))
            store.extend(1, times, np.full(times.size, 0.0295))
        replay = PolicyReplay(true)
        result = replay.run(
            HysteresisSelector(measured, margin_s=0.002, dwell_s=1.0), 0.0, 10.0
        )
        assert result.switch_count == 0  # 0.5 ms never beats the margin

    def test_hysteresis_takes_clear_wins(self):
        measured, replay = make_replay(events=False)
        result = replay.run(
            HysteresisSelector(measured, margin_s=0.002, dwell_s=0.5), 0.0, 20.0
        )
        assert result.fraction_on_path(2) > 0.9

    def test_jitter_aware_prefers_stable(self):
        measured, true = MeasurementStore(), MeasurementStore()
        times = np.arange(0.0, 10.0, 0.01)
        rng = np.random.default_rng(1)
        noisy = 0.029 + rng.normal(0, 0.002, times.size)
        quiet = np.full(times.size, 0.030)
        for store in (measured, true):
            store.extend(0, times, noisy)
            store.extend(1, times, quiet)
        replay = PolicyReplay(true)
        result = replay.run(
            JitterAwareSelector(measured, jitter_weight=10.0), 0.0, 10.0
        )
        assert result.fraction_on_path(1) > 0.9

    def test_greedy_keeps_current_when_blind(self):
        """With nothing measured the selector stays on its fallback path."""
        _, replay = make_replay(events=False)
        blind = LowestDelaySelector(MeasurementStore(), fallback_index=1)
        result = replay.run(blind, 0.0, 20.0)
        assert result.fraction_on_path(2) == 1.0
        assert result.switch_count == 0

    @pytest.mark.parametrize(
        "quarantined, ridden", [({2}, {0}), ({0}, {2}), ({0, 2}, {0})]
    )
    def test_guarded_never_rides_a_quarantined_path(self, quarantined, ridden):
        """Path 2 is best; with every path quarantined the wrapper offers
        the BGP default (lowest id), as on the per-packet path."""
        measured, replay = make_replay(events=False)
        guarded = GuardedSelector(LowestDelaySelector(measured), quarantined)
        result = replay.run(guarded, 0.0, 20.0)
        assert set(result.choices.tolist()) == ridden

    def test_fate_aware_pin_wins_over_the_inner_policy(self):
        measured, replay = make_replay(events=False)
        pinned = FateAwareSelector(LowestDelaySelector(measured), SrlgRegistry())
        pinned.pin(0)
        assert replay.run(pinned, 0.0, 20.0).fraction_on_path(0) == 1.0

    def test_loss_aware_avoids_a_faster_lossy_path(self):
        class LossyPathTwo:
            def recent_loss(self, path_id, bins):
                return 0.05 if path_id == 2 else 0.0

        measured, replay = make_replay(events=False)
        selector = LossAwareSelector(measured, LossyPathTwo(), loss_penalty_s=1.0)
        result = replay.run(selector, 1.0, 20.0)
        assert result.fraction_on_path(0) == 1.0  # 36 ms beats 28 + 50 ms
