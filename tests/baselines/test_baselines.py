"""Tests for the Section 2 baselines.

The common substrate: a two-direction synthetic campaign with four paths
per direction, a directional asymmetric event, and a clock offset on
measured values.
"""

import numpy as np
import pytest

from repro.analysis.replay import PolicyReplay
from repro.baselines import (
    BgpDefaultBaseline,
    MultihomingBaseline,
    OverlayBaseline,
    RttProbingBaseline,
)
from repro.core.policy import LowestDelaySelector
from repro.telemetry.store import MeasurementStore

T1 = 60.0
INTERVAL = 0.01
#: forward means: path 0 = BGP default (slow), path 2 = best.
FWD_MEANS = {0: 0.0364, 1: 0.0330, 2: 0.0280, 3: 0.0402}
REV_MEANS = {0: 0.0366, 1: 0.0334, 2: 0.0283, 3: 0.0410}


def truth(means, event_path=None, event=(20.0, 40.0, 0.030)):
    store = MeasurementStore()
    times = np.arange(0.0, T1, INTERVAL)
    for path_id, mean in means.items():
        values = np.full(times.size, mean)
        if path_id == event_path:
            start, end, shift = event
            values[(times >= start) & (times < end)] += shift
        store.extend(path_id, times, values)
    return store


@pytest.fixture()
def fwd_true():
    return truth(FWD_MEANS)


@pytest.fixture()
def rev_true():
    return truth(REV_MEANS)


class TestBgpDefault:
    def test_rides_default_path_throughout(self, fwd_true):
        replay = PolicyReplay(fwd_true)
        result = BgpDefaultBaseline().run(replay, 0.0, T1)
        assert result.fraction_on_path(0) == 1.0
        assert result.mean_delay == pytest.approx(0.0364)
        assert result.switch_count == 0

    def test_blind_to_events(self):
        store = truth(FWD_MEANS, event_path=0)
        replay = PolicyReplay(store)
        result = BgpDefaultBaseline().run(replay, 0.0, T1)
        assert result.max_delay == pytest.approx(0.0664)  # eats the event


class TestRttProbing:
    def test_estimates_blend_both_directions(self, fwd_true, rev_true):
        baseline = RttProbingBaseline(fwd_true, rev_true)
        estimates = baseline.build_estimates(0.0, T1)
        est = estimates.series(0).values.mean()
        # RTT/2 ~ (fwd + rev)/2 plus non-negative noise.
        assert est >= (0.0364 + 0.0366) / 2 - 1e-6
        assert est < 0.040

    def test_finds_best_path_in_symmetric_steady_state(
        self, fwd_true, rev_true
    ):
        baseline = RttProbingBaseline(fwd_true, rev_true)
        result = baseline.run(0.0, T1)
        assert result.fraction_on_path(2) > 0.8

    def test_blind_to_forward_only_asymmetry(self, rev_true):
        """A forward-only degradation on the best path, mirrored by an
        equal reverse-path improvement, is invisible to RTT/2 — the E7
        ablation's core mechanism."""
        fwd = truth(FWD_MEANS, event_path=2, event=(20.0, 40.0, 0.020))
        rev = truth(REV_MEANS, event_path=2, event=(20.0, 40.0, -0.020))
        baseline = RttProbingBaseline(fwd, rev)
        estimates = baseline.build_estimates(0.0, T1)
        inside = estimates.series(2).window(25.0, 35.0)[1].mean()
        outside = estimates.series(2).window(0.0, 10.0)[1].mean()
        assert inside == pytest.approx(outside, abs=1.5e-3)
        # So the prober keeps the (actually degraded) path.
        result = baseline.run(0.0, T1)
        assert result.fraction_on_path(2) > 0.8

    def test_direction_count_mismatch_rejected(self, fwd_true):
        partial = MeasurementStore()
        partial.record(0, 0.0, 0.03)
        with pytest.raises(ValueError, match="path counts"):
            RttProbingBaseline(fwd_true, partial).build_estimates(0.0, T1)


class TestMultihoming:
    def test_restricted_to_own_providers(self, fwd_true, rev_true):
        baseline = MultihomingBaseline(
            fwd_true, rev_true, accessible_paths=[0, 1]
        )
        result = baseline.run(0.0, T1)
        assert result.fraction_on_path(2) == 0.0  # best path unreachable
        assert result.fraction_on_path(1) > 0.8  # best of its own set

    def test_beats_default_but_not_tango(self, fwd_true, rev_true):
        multihoming = MultihomingBaseline(
            fwd_true, rev_true, accessible_paths=[0, 1]
        ).run(0.0, T1)
        replay = PolicyReplay(fwd_true)
        tango_like = replay.run(LowestDelaySelector(fwd_true), 0.0, T1)
        default = BgpDefaultBaseline().run(replay, 0.0, T1)
        assert multihoming.mean_delay < default.mean_delay
        assert tango_like.mean_delay < multihoming.mean_delay

    def test_needs_at_least_one_provider(self, fwd_true, rev_true):
        with pytest.raises(ValueError):
            MultihomingBaseline(fwd_true, rev_true, accessible_paths=[])


class TestOverlay:
    def test_overhead_charged_on_every_packet(self, fwd_true):
        baseline = OverlayBaseline(fwd_true, forwarding_overhead_s=0.001)
        result = baseline.run(0.0, T1)
        # After the probing warm-up it finds the 28 ms path, but every
        # packet pays the +1 ms software forwarding tax.
        steady = result.achieved[result.times >= 20.0]
        assert float(np.mean(steady)) == pytest.approx(0.0290, abs=2e-4)

    def test_sparse_probing_reacts_slowly(self):
        fwd = truth(FWD_MEANS, event_path=2, event=(20.0, 22.0, 0.050))
        fast = OverlayBaseline(fwd, probe_interval_s=1.0, seed=1).run(0.0, T1)
        slow = OverlayBaseline(fwd, probe_interval_s=30.0, seed=1).run(0.0, T1)
        assert slow.mean_delay >= fast.mean_delay

    def test_parameter_validation(self, fwd_true):
        with pytest.raises(ValueError):
            OverlayBaseline(fwd_true, forwarding_overhead_s=-1.0)
        with pytest.raises(ValueError):
            OverlayBaseline(fwd_true, probe_interval_s=0.0)
