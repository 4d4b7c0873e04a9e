"""Tests for the sequenced, acknowledged telemetry transport."""

import numpy as np
import pytest

from repro.netsim.events import Simulator
from repro.resilience.channel import (
    ChannelConfig,
    ReliableTelemetryChannel,
    TelemetryRecord,
)
from repro.telemetry.store import MeasurementStore

NAN, INF = float("nan"), float("inf")
#: The float knobs ``ChannelConfig`` refuses when not finite.
FINITE_FIELDS = [
    "report_interval_s",
    "latency_s",
    "rto_s",
    "max_rto_s",
    "rto_backoff",
    "jitter_frac",
    "staleness_s",
]


def make_channel(config=None, seed=0):
    sim = Simulator()
    source, sink = MeasurementStore(), MeasurementStore()
    channel = ReliableTelemetryChannel(
        source, sink, sim, config=config or ChannelConfig(), seed=seed
    )
    return sim, source, sink, channel


def feed(sim, source, path_id=0, interval=0.01, value=0.03, start=0.0, stop=None):
    """Append one sample per interval into the source store."""

    def sample():
        if stop is None or sim.now < stop:
            source.record(path_id, sim.now, value + sim.now * 1e-6)

    return sim.call_every(interval, sample, start=start)


class TestConfigValidation:
    def test_defaults_valid(self):
        ChannelConfig()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"report_interval_s": 0.0},
            {"latency_s": -0.1},
            {"loss_rate": 1.0},
            {"loss_rate": -0.2},
            {"rto_s": 0.0},
            {"rto_s": 3.0, "max_rto_s": 1.0},
            {"rto_backoff": 0.5},
            {"jitter_frac": -0.1},
            {"queue_limit": 0},
            {"window_records": 0},
            {"frame_records": 0},
            {"dupack_threshold": 0},
            {"staleness_s": 0.0},
            {"report_interval_s": NAN},
            {"report_interval_s": INF},
            {"latency_s": NAN},
            {"latency_s": INF},
            {"rto_s": NAN},
            {"max_rto_s": NAN},
            {"max_rto_s": INF},
            {"rto_backoff": NAN},
            {"rto_backoff": INF},
            {"jitter_frac": NAN},
            {"jitter_frac": INF},
            {"staleness_s": NAN},
            {"staleness_s": INF},
        ],
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ValueError):
            ChannelConfig(**kwargs)

    @pytest.mark.parametrize("field", FINITE_FIELDS)
    def test_nan_is_refused_by_name(self, field):
        # At the parent every check was ``<= 0`` or ``< 0``, so NaN passed.
        with pytest.raises(ValueError, match=f"^{field} must be finite.*, got nan$"):
            ChannelConfig(**{field: NAN})


class TestLosslessDelivery:
    def test_every_sample_delivered_in_order(self):
        sim, source, sink, channel = make_channel()
        feed(sim, source, interval=0.01, stop=1.0)
        channel.start()
        sim.run(until=2.0)
        src = source.series(0)
        dst = sink.series(0)
        assert len(dst) == len(src) > 0
        np.testing.assert_array_equal(dst.times, src.times)
        np.testing.assert_array_equal(dst.values, src.values)
        assert channel.stats.retransmits == 0
        assert channel.stats.duplicates == 0

    def test_multiple_paths(self):
        sim, source, sink, channel = make_channel()
        for pid in (0, 1, 64):
            feed(sim, source, path_id=pid, stop=0.5)
        channel.start()
        sim.run(until=1.5)
        assert sink.path_ids() == [0, 1, 64]
        for pid in (0, 1, 64):
            assert len(sink.series(pid)) == len(source.series(pid))

    def test_double_start_rejected(self):
        _, _, _, channel = make_channel()
        channel.start()
        with pytest.raises(RuntimeError):
            channel.start()


class TestLossRecovery:
    def test_sink_converges_under_heavy_loss(self):
        """30% frame loss: everything still arrives, via retransmission."""
        sim, source, sink, channel = make_channel(
            config=ChannelConfig(loss_rate=0.3), seed=42
        )
        feed(sim, source, interval=0.01, stop=2.0)
        channel.start()
        sim.run(until=10.0)
        src, dst = source.series(0), sink.series(0)
        assert len(dst) == len(src)
        np.testing.assert_array_equal(dst.times, src.times)
        assert channel.stats.frames_lost > 0
        assert channel.stats.retransmits > 0

    def test_delivery_stays_in_order_despite_gaps(self):
        """Lost frames create receiver gaps; the reorder buffer must hold
        later records until the gap heals (sink series monotonic and gap
        -free — equality with the source proves both)."""
        sim, source, sink, channel = make_channel(
            config=ChannelConfig(loss_rate=0.4, frame_records=4), seed=7
        )
        feed(sim, source, interval=0.005, stop=1.0)
        channel.start()
        sim.run(until=10.0)
        np.testing.assert_array_equal(
            sink.series(0).times, source.series(0).times
        )
        assert channel.stats.out_of_order > 0

    def test_lost_acks_cause_suppressed_duplicates(self):
        """When acks are lost the sender retransmits delivered records;
        the receiver must drop them without double-recording."""
        sim, source, sink, channel = make_channel(
            config=ChannelConfig(loss_rate=0.4), seed=3
        )
        feed(sim, source, interval=0.01, stop=1.0)
        channel.start()
        sim.run(until=10.0)
        assert channel.stats.acks_lost > 0
        assert channel.stats.duplicates > 0
        assert len(sink.series(0)) == len(source.series(0))

    def test_loss_window_fault_hook(self):
        """A total-loss window stalls delivery; after it clears the sink
        catches up completely — degraded to late, never absent."""
        sim, source, sink, channel = make_channel(seed=1)
        channel.add_loss_window(0.3, 1.0, 1.0)
        feed(sim, source, interval=0.01, stop=2.0)
        channel.start()
        sim.run(until=0.9)
        assert len(sink.series(0)) < len(source.series(0))
        sim.run(until=8.0)
        np.testing.assert_array_equal(
            sink.series(0).times, source.series(0).times
        )

    def test_loss_window_validation(self):
        _, _, _, channel = make_channel()
        with pytest.raises(ValueError, match="end > start"):
            channel.add_loss_window(2.0, 1.0, 0.5)
        with pytest.raises(ValueError, match="rate"):
            channel.add_loss_window(1.0, 2.0, 1.5)

    def test_loss_rate_composition(self):
        _, _, _, channel = make_channel(config=ChannelConfig(loss_rate=0.1))
        channel.add_loss_window(1.0, 2.0, 0.8)
        assert channel.loss_rate(0.5) == pytest.approx(0.1)
        assert channel.loss_rate(1.5) == pytest.approx(0.8)
        assert channel.loss_rate(2.0) == pytest.approx(0.1)  # half-open


class TestBoundedQueue:
    def test_overflow_drops_oldest(self):
        """With a tiny queue and a huge burst, the newest samples win."""
        sim, source, sink, channel = make_channel(
            config=ChannelConfig(queue_limit=8, window_records=4, frame_records=4)
        )
        times = np.arange(0.0, 1.0, 0.001)
        source.extend(0, times, np.full_like(times, 0.03))
        channel.start()
        sim.run(until=30.0)
        assert channel.stats.queue_drops > 0
        delivered = sink.series(0).times
        # Everything that survived the queue is the tail of the burst.
        assert delivered[-1] == pytest.approx(times[-1])
        np.testing.assert_array_equal(delivered, times[-len(delivered) :])


class TestDiscardBefore:
    def test_unsent_samples_discarded(self):
        sim, source, sink, channel = make_channel()
        source.extend(0, np.asarray([0.0, 1.0, 2.0]), np.full(3, 0.03))
        assert channel.discard_before(1.5) == 2
        channel.start()
        sim.run(until=5.0)
        np.testing.assert_array_equal(sink.series(0).times, [2.0])

    def test_exact_boundary_survives(self):
        sim, source, sink, channel = make_channel()
        source.extend(0, np.asarray([0.0, 1.0]), np.full(2, 0.03))
        assert channel.discard_before(1.0) == 1
        channel.start()
        sim.run(until=5.0)
        np.testing.assert_array_equal(sink.series(0).times, [1.0])

    def test_queued_but_unsequenced_samples_discarded(self):
        sim, source, sink, channel = make_channel(
            config=ChannelConfig(window_records=1, frame_records=1)
        )
        source.extend(0, np.asarray([0.0, 1.0, 2.0]), np.full(3, 0.03))
        channel.start()
        sim.run(until=0.06)  # first pump: seq 0 in flight, rest queued
        assert channel.discard_before(5.0) == 2  # the two still queued
        sim.run(until=5.0)
        np.testing.assert_array_equal(sink.series(0).times, [0.0])

    def test_empty_channel_discards_nothing(self):
        _, _, _, channel = make_channel()
        assert channel.discard_before(100.0) == 0


class TestHealth:
    def test_never_delivered_is_not_fresh(self):
        _, _, _, channel = make_channel()
        health = channel.health(now=0.0)
        assert not health.fresh
        assert health.staleness_s is None

    def test_fresh_after_delivery_then_stale(self):
        sim, source, sink, channel = make_channel(
            config=ChannelConfig(staleness_s=0.5)
        )
        feed(sim, source, interval=0.01, stop=1.0)
        channel.start()
        sim.run(until=1.2)
        assert channel.health().fresh
        sim.run(until=3.0)
        health = channel.health()
        assert not health.fresh
        assert health.staleness_s > 0.5

    def test_backlog_visible(self):
        sim, source, sink, channel = make_channel(
            config=ChannelConfig(window_records=2, frame_records=2)
        )
        source.extend(0, np.arange(0.0, 0.1, 0.01), np.full(10, 0.03))
        channel.start()
        sim.run(until=0.06)
        health = channel.health()
        assert health.queued + health.unacked > 0


class TestMirrorCompatibleSurface:
    def test_mirror_api_names(self):
        _, _, _, channel = make_channel()
        assert channel.latency_s == ChannelConfig().latency_s
        assert channel.samples_mirrored == 0
        assert channel.samples_discarded == 0

    def test_pause_resume_silences_like_a_mirror(self):
        """The telemetry_drop fault pauses the pump task; nothing moves
        while paused, delivery resumes afterwards."""
        sim, source, sink, channel = make_channel()
        feed(sim, source, interval=0.01, stop=3.0)
        task = channel.start()
        sim.run(until=0.5)
        task.pause()
        # Frames already on the wire still land; drain them first.
        sim.run(until=0.5 + 2 * channel.latency_s)
        delivered = len(sink.series(0))
        sim.run(until=1.5)
        assert len(sink.series(0)) == delivered
        channel.discard_before(sim.now - channel.latency_s)
        task.resume()
        sim.run(until=2.0)
        assert len(sink.series(0)) > delivered


class TestDeterminism:
    def run_once(self, seed):
        sim, source, sink, channel = make_channel(
            config=ChannelConfig(loss_rate=0.25), seed=seed
        )
        feed(sim, source, interval=0.01, stop=1.0)
        channel.start()
        sim.run(until=5.0)
        return channel.stats, sink.series(0)

    def test_same_seed_identical_everything(self):
        stats_a, series_a = self.run_once(9)
        stats_b, series_b = self.run_once(9)
        assert stats_a == stats_b
        assert series_a.times.tobytes() == series_b.times.tobytes()
        assert series_a.values.tobytes() == series_b.values.tobytes()

    def test_different_seed_different_loss_pattern(self):
        stats_a, _ = self.run_once(9)
        stats_b, _ = self.run_once(10)
        assert stats_a != stats_b


class TestTelemetryRecord:
    def test_frozen(self):
        record = TelemetryRecord(seq=0, path_id=1, t=2.0, value=0.03)
        with pytest.raises(AttributeError):
            record.seq = 5


class TestAuthenticatedChannel:
    KEY = b"channel-test-key"

    def make_authed(self, config=None, seed=0, gate=None):
        from repro.telemetry.auth import TelemetryAuthenticator

        sim = Simulator()
        source, sink = MeasurementStore(), MeasurementStore()
        channel = ReliableTelemetryChannel(
            source,
            sink,
            sim,
            config=config or ChannelConfig(),
            seed=seed,
            authenticator=TelemetryAuthenticator(self.KEY),
            gate=gate,
        )
        return sim, source, sink, channel

    def test_honest_records_tagged_and_delivered(self):
        sim, source, sink, channel = self.make_authed()
        feed(sim, source, interval=0.01, stop=1.0)
        channel.start()
        sim.run(until=2.0)
        assert len(sink.series(0)) == len(source.series(0)) > 0
        assert channel.stats.records_forged == 0
        assert channel.authenticator.stats.verified == (
            channel.stats.records_delivered
        )

    def test_retransmits_do_not_trip_the_replay_window(self):
        """Transport-level duplicates are deduped by seq before the
        authenticator sees them: loss recovery is not a replay attack."""
        sim, source, sink, channel = self.make_authed(
            config=ChannelConfig(loss_rate=0.3), seed=5
        )
        feed(sim, source, interval=0.01, stop=1.0)
        channel.start()
        sim.run(until=5.0)
        assert channel.stats.retransmits > 0
        assert len(sink.series(0)) == len(source.series(0))
        assert channel.authenticator.stats.replayed == 0
        assert channel.stats.records_forged == 0

    def test_in_flight_tamper_rejected_and_withheld(self):
        """An on-path attacker shifting the MAC'd sample time keeps the
        stale tag; verification fails and the sink never sees it."""
        sim, source, sink, channel = self.make_authed()
        wire = channel._send_frame

        def mitm(records, now):
            wire(
                [
                    TelemetryRecord(
                        r.seq, r.path_id, r.t - 0.010, r.value, tag=r.tag
                    )
                    for r in records
                ],
                now,
            )

        channel._send_frame = mitm
        feed(sim, source, interval=0.01, stop=1.0)
        channel.start()
        sim.run(until=2.0)
        assert channel.stats.records_forged > 0
        assert channel.stats.records_delivered == 0
        assert len(sink.series(0)) == 0
        # Forged records are still acked: the transport did its job, the
        # verdict belongs to the auth layer — no retransmit storm.
        assert channel.stats.retransmits == 0

    def test_gate_rejections_counted_and_withheld(self):
        class EvenSecondsGate:
            def __init__(self):
                self.seen = 0

            def admit(self, path_id, t, value, now):
                self.seen += 1
                return int(t * 100) % 2 == 0

        gate = EvenSecondsGate()
        sim, source, sink, channel = self.make_authed(gate=gate)
        feed(sim, source, interval=0.01, stop=1.0)
        channel.start()
        sim.run(until=2.0)
        delivered = channel.stats.records_delivered
        rejected = channel.stats.records_rejected
        assert rejected > 0 and delivered > 0
        assert gate.seen == delivered + rejected
        assert len(sink.series(0)) == delivered
