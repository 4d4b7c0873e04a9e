"""Segment-telemetry composition: OWD sums, loss folds, determinism."""

import numpy as np
import pytest

from repro.core.multipop import MultiPopStore
from repro.federation import (
    Segment,
    SegmentComposer,
    compose_delay,
    compose_loss,
)
from repro.telemetry.store import MeasurementStore


def make_offsets(offsets: dict) -> MultiPopStore:
    store = MultiPopStore(reference_pop="a")
    for pop, offset in offsets.items():
        store.set_offset(pop, offset)
    return store


class TestComposeFunctions:
    def test_delay_is_sum_plus_overhead(self):
        assert compose_delay(0.030, 0.040, 0.0002) == pytest.approx(0.0702)

    def test_loss_is_independent_series_formula(self):
        assert compose_loss(0.1, 0.2) == pytest.approx(1 - 0.9 * 0.8)
        assert compose_loss(0.0, 0.0) == 0.0
        assert compose_loss(1.0, 0.0) == 1.0
        assert compose_loss(0.3, 0.0) == pytest.approx(0.3)

    def test_loss_rejects_non_probabilities(self):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            compose_loss(-0.1, 0.5)
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            compose_loss(0.5, 1.5)


class TestSegmentComposer:
    """Composed OWD must equal the sum of *true* segment OWDs.

    Each segment's receiver measures ``true_owd + offset(receiver) −
    offset(sender)`` in its own clock; the composer's per-segment
    correction strips exactly that distortion, so under known PoP
    offsets the composed value is the true end-to-end delay plus the
    relay overhead — regardless of how wrong the clocks are.
    """

    def setup_method(self):
        # Reference clock is a (the stitched sender); r and b are off by
        # +5 ms and -3 ms respectively.
        self.offsets = make_offsets({"a": 0.0, "r": 0.005, "b": -0.003})
        self.true_seg1 = 0.030  # a -> r
        self.true_seg2 = 0.040  # r -> b
        self.store_r = MeasurementStore()
        self.store_b = MeasurementStore()
        # Receivers record measured (offset-distorted) OWDs at their own
        # local timestamps.
        now = 10.0
        self.store_r.record(
            101, now + 0.005, self.true_seg1 + 0.005 - 0.0
        )
        self.store_b.record(
            202, now - 0.003, self.true_seg2 + (-0.003) - 0.005
        )
        self.composer = SegmentComposer(
            900,
            [
                Segment("a", "r", self.store_r, 101),
                Segment("r", "b", self.store_b, 202),
            ],
            self.offsets,
            overhead_s=0.0002,
        )

    def test_composed_equals_true_sum_under_known_offsets(self):
        value = self.composer.compose_at(10.0)
        assert value == pytest.approx(
            self.true_seg1 + self.true_seg2 + 0.0002, abs=1e-12
        )

    def test_cold_segment_returns_none(self):
        composer = SegmentComposer(
            901,
            [
                Segment("a", "r", self.store_r, 101),
                Segment("r", "b", MeasurementStore(), 203),
            ],
            self.offsets,
        )
        assert composer.compose_at(10.0) is None

    def test_tick_records_into_composed_series(self):
        self.composer.tick(10.0)
        series = self.composer.composed.series(900)
        assert len(series) == 1
        assert series.values[0] == pytest.approx(
            self.true_seg1 + self.true_seg2 + 0.0002, abs=1e-12
        )

    def test_tick_skips_while_cold(self):
        composer = SegmentComposer(
            902,
            [Segment("r", "b", MeasurementStore(), 203)],
            self.offsets,
        )
        composer.tick(10.0)
        assert len(composer.composed.series(902)) == 0

    def test_needs_at_least_one_segment(self):
        with pytest.raises(ValueError, match="at least one segment"):
            SegmentComposer(903, [], self.offsets)

    def test_composed_loss_folds_all_segments(self):
        assert compose_loss(compose_loss(0.1, 0.2), 0.5) == pytest.approx(
            1 - 0.9 * 0.8 * 0.5
        )


class TestDeterminism:
    def _composed_series(self):
        from repro.core.controller import QuarantinePolicy
        from repro.federation import FederationRegistry
        from repro.scenarios.topologies import build_live_federation

        registry = FederationRegistry(build_live_federation(3, seed=11))
        registry.establish()
        result = registry.stitch_pair("edge0", "edge1")
        relay = result.plan.relay
        registry.start_telemetry()
        registry.start_control_plane(
            focus=[("edge0", "edge1")],
            quarantine=QuarantinePolicy(unhealthy_ticks=1),
        )
        registry.start_traffic("edge0", "edge1")
        registry.start_traffic("edge0", relay)
        registry.start_traffic(relay, "edge1")
        registry.sim.run(until=2.0)
        series = result.composer.composed.series(result.tunnel.path_id)
        out = (series.times.copy(), series.values.copy())
        registry.stop()
        return out

    def test_composed_series_byte_identical_across_reruns(self):
        t1, v1 = self._composed_series()
        t2, v2 = self._composed_series()
        assert len(t1) > 0
        assert t1.tobytes() == t2.tobytes()
        assert v1.tobytes() == v2.tobytes()
        assert not np.isnan(v1).any()
