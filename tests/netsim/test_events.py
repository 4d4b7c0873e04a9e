"""Tests for the discrete-event loop."""

import math

import pytest

from repro.netsim.events import Simulator


class TestScheduling:
    def test_schedule_at_runs_at_time(self):
        sim = Simulator()
        seen = []
        sim.schedule_at(2.0, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [2.0]

    def test_schedule_in_relative(self):
        sim = Simulator(start=1.0)
        seen = []
        sim.schedule_in(0.5, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [1.5]

    def test_schedule_in_past_raises(self):
        sim = Simulator(start=5.0)
        with pytest.raises(ValueError, match="past"):
            sim.schedule_at(4.0, lambda: None)

    def test_negative_delay_raises(self):
        sim = Simulator()
        with pytest.raises(ValueError, match="non-negative"):
            sim.schedule_in(-0.1, lambda: None)

    def test_nan_time_raises(self):
        sim = Simulator(start=1.0)
        with pytest.raises(ValueError, match="nan"):
            sim.schedule_at(math.nan, lambda: None)
        assert sim.pending == 0

    def test_nan_delay_raises_and_leaves_the_clock_alone(self):
        """A NaN used to compare neither before nor after anything: the
        event sat at the heap's top, ran first and set the clock to NaN."""
        sim = Simulator(start=1.0)
        seen = []
        sim.schedule_at(2.0, lambda: seen.append(sim.now))
        with pytest.raises(ValueError, match="nan"):
            sim.schedule_in(math.nan, lambda: seen.append("nan"))
        sim.run()
        assert seen == [2.0]
        assert sim.now == 2.0

    def test_events_run_in_time_order(self):
        sim = Simulator()
        order = []
        sim.schedule_at(3.0, lambda: order.append(3))
        sim.schedule_at(1.0, lambda: order.append(1))
        sim.schedule_at(2.0, lambda: order.append(2))
        sim.run()
        assert order == [1, 2, 3]

    def test_same_time_events_run_fifo(self):
        sim = Simulator()
        order = []
        for i in range(5):
            sim.schedule_at(1.0, lambda i=i: order.append(i))
        sim.run()
        assert order == [0, 1, 2, 3, 4]

    def test_callbacks_can_schedule_more_events(self):
        sim = Simulator()
        seen = []

        def first():
            seen.append("first")
            sim.schedule_in(1.0, lambda: seen.append("second"))

        sim.schedule_at(1.0, first)
        sim.run()
        assert seen == ["first", "second"]
        assert sim.now == 2.0


class TestCancellation:
    def test_cancelled_event_does_not_fire(self):
        sim = Simulator()
        seen = []
        event = sim.schedule_at(1.0, lambda: seen.append("x"))
        event.cancel()
        sim.run()
        assert seen == []

    def test_cancel_one_of_many(self):
        sim = Simulator()
        seen = []
        sim.schedule_at(1.0, lambda: seen.append("a"))
        victim = sim.schedule_at(1.0, lambda: seen.append("b"))
        sim.schedule_at(1.0, lambda: seen.append("c"))
        victim.cancel()
        sim.run()
        assert seen == ["a", "c"]


class TestRunControl:
    def test_run_until_stops_clock_at_bound(self):
        sim = Simulator()
        sim.schedule_at(10.0, lambda: None)
        sim.run(until=5.0)
        assert sim.now == 5.0
        assert sim.pending == 1

    def test_run_until_resumes(self):
        sim = Simulator()
        seen = []
        sim.schedule_at(10.0, lambda: seen.append("late"))
        sim.run(until=5.0)
        assert seen == []
        sim.run()
        assert seen == ["late"]

    def test_max_events_bounds_execution(self):
        sim = Simulator()
        count = [0]

        def reschedule():
            count[0] += 1
            sim.schedule_in(1.0, reschedule)

        sim.schedule_at(0.0, reschedule)
        sim.run(max_events=10)
        assert count[0] == 10

    def test_step_runs_single_event(self):
        sim = Simulator()
        seen = []
        sim.schedule_at(1.0, lambda: seen.append(1))
        sim.schedule_at(2.0, lambda: seen.append(2))
        assert sim.step()
        assert seen == [1]

    def test_step_on_empty_queue_returns_false(self):
        assert not Simulator().step()

    def test_events_processed_counter(self):
        sim = Simulator()
        for i in range(7):
            sim.schedule_at(float(i), lambda: None)
        sim.run()
        assert sim.events_processed == 7


class TestPeriodicTask:
    def test_fires_at_interval(self):
        sim = Simulator()
        ticks = []
        sim.call_every(0.5, lambda: ticks.append(sim.now))
        sim.run(until=2.0)
        assert ticks == pytest.approx([0.0, 0.5, 1.0, 1.5, 2.0])

    def test_end_bound_respected(self):
        sim = Simulator()
        ticks = []
        sim.call_every(1.0, lambda: ticks.append(sim.now), end=2.5)
        sim.run(until=10.0)
        assert ticks == pytest.approx([0.0, 1.0, 2.0])

    def test_start_offset(self):
        sim = Simulator()
        ticks = []
        sim.call_every(1.0, lambda: ticks.append(sim.now), start=5.0)
        sim.run(until=7.0)
        assert ticks == pytest.approx([5.0, 6.0, 7.0])

    def test_stop_halts_future_firings(self):
        sim = Simulator()
        ticks = []
        task = sim.call_every(1.0, lambda: ticks.append(sim.now))
        sim.run(until=2.0)
        task.stop()
        sim.run(until=10.0)
        assert len(ticks) == 3

    def test_zero_interval_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            Simulator().call_every(0.0, lambda: None)

    @pytest.mark.parametrize("interval", [math.nan, math.inf])
    def test_non_finite_interval_rejected(self, interval):
        sim = Simulator()
        with pytest.raises(ValueError, match=str(interval)):
            sim.call_every(interval, lambda: None)
        assert sim.pending == 0

    @pytest.mark.parametrize("start", [math.nan, math.inf])
    def test_non_finite_start_rejected(self, start):
        sim = Simulator()
        with pytest.raises(ValueError, match=str(start)):
            sim.call_every(1.0, lambda: None, start=start)
        assert sim.pending == 0


class TestPeriodicPauseResume:
    def test_pause_stops_firing(self):
        sim = Simulator()
        ticks = []
        task = sim.call_every(1.0, lambda: ticks.append(sim.now))
        sim.run(until=2.0)
        task.pause()
        sim.run(until=6.0)
        assert len(ticks) == 3  # 0, 1, 2

    def test_resume_rearms_without_replaying_missed_ticks(self):
        sim = Simulator()
        ticks = []
        task = sim.call_every(1.0, lambda: ticks.append(sim.now))
        sim.run(until=2.0)
        task.pause()
        sim.run(until=5.0)
        task.resume()
        sim.run(until=7.0)
        # Next firing is now + interval; occurrences 3..5 are simply lost.
        assert ticks == pytest.approx([0.0, 1.0, 2.0, 6.0, 7.0])

    def test_pause_is_idempotent(self):
        sim = Simulator()
        ticks = []
        task = sim.call_every(1.0, lambda: ticks.append(sim.now))
        task.pause()
        task.pause()
        task.resume()
        task.resume()
        sim.run(until=2.5)
        assert ticks == pytest.approx([1.0, 2.0])  # armed once, not twice

    def test_pause_after_stop_is_noop(self):
        sim = Simulator()
        ticks = []
        task = sim.call_every(1.0, lambda: ticks.append(sim.now))
        task.stop()
        task.pause()
        task.resume()
        sim.run(until=2.5)
        assert ticks == []  # resume did not re-arm a stopped task


class TestHeapCompaction:
    def test_pending_stays_bounded_under_pause_resume_churn(self):
        """A repeatedly paused-and-resumed task must not leak one
        tombstone per cycle: compaction keeps pending within a constant
        factor of the live event count."""
        sim = Simulator()
        task = sim.call_every(1000.0, lambda: None, start=1000.0)
        for _ in range(500):
            task.pause()
            task.resume()
        assert sim.live_pending == 1
        # Live events never exceed a handful here, so the 2x tombstone
        # bound caps the queue at a small constant, not ~500.
        assert sim.pending <= max(2 * sim.live_pending, Simulator._COMPACT_MIN_SIZE)
        assert sim.compactions > 0
        assert sim.tombstones_reaped >= 490

    def test_compaction_preserves_pop_order(self):
        sim = Simulator()
        fired = []
        keep = [
            sim.schedule_at(t, lambda t=t: fired.append(t))
            for t in (5.0, 1.0, 9.0, 3.0, 7.0)
        ]
        doomed = [sim.schedule_at(t + 0.5, lambda: fired.append(-1.0)) for t in range(20)]
        for event in doomed:
            event.cancel()
        assert sim.compactions >= 1
        sim.run()
        assert fired == [1.0, 3.0, 5.0, 7.0, 9.0]
        assert keep[0].time == 5.0  # handles stay valid after compaction

    def test_small_queues_are_never_compacted(self):
        sim = Simulator()
        events = [sim.schedule_at(float(t), lambda: None) for t in range(1, 5)]
        for event in events:
            event.cancel()
        assert sim.compactions == 0
        assert sim.pending == 4  # below _COMPACT_MIN_SIZE: lazy skip is fine
        sim.run()
        assert sim.pending == 0

    def test_cancel_is_idempotent_in_counters(self):
        sim = Simulator()
        events = [sim.schedule_at(float(t), lambda: None) for t in range(1, 21)]
        events[0].cancel()
        events[0].cancel()
        events[0].cancel()
        # One logical cancellation: no phantom tombstones counted.
        assert sim.pending - sim.live_pending == 1

    def test_self_cancel_from_callback_does_not_corrupt_count(self):
        """A task pausing itself mid-fire cancels an event that was
        already popped; the tombstone count must ignore it."""
        sim = Simulator()
        task_box = []

        def fire():
            task_box[0].pause()

        task_box.append(sim.call_every(1.0, fire))
        sim.run(until=3.0)
        assert sim.live_pending == 0
        assert sim.pending - sim.live_pending >= 0
        # Queue drains clean afterwards.
        sim.run()
        assert sim.pending == 0
