"""TickScheduler: one heap event, PeriodicTask-parity semantics.

The wheel is only admissible as a PeriodicTask replacement if its
firing sequence is indistinguishable at round-aligned times: same tick
instants, same pause/resume behavior, and a callback order that is a
pure function of registration history (never heap layout).  These tests
pin that contract, plus the heap-relief property the wheel exists for.
"""

import pytest

from repro.core.controller import TangoController
from repro.netsim.events import Simulator
from repro.netsim.ticks import TickScheduler
from repro.traffic.splitting import SplitRebalancer, WeightedSplitSelector
from tests.traffic.standin import StandinGateway, controller_farm


def recorder(log, tag):
    return lambda now: log.append((tag, round(now, 9)))


class TestFiringParity:
    def test_matches_call_every_instants(self):
        sim = Simulator()
        wheel_times, task_times = [], []
        scheduler = TickScheduler(sim, 0.1)
        scheduler.register(lambda now: wheel_times.append(round(now, 9)))
        sim.call_every(0.1, lambda: task_times.append(round(sim.now, 9)))
        sim.run(until=2.05)
        assert wheel_times == task_times
        assert len(wheel_times) == 21  # immediate first fire + 20 rounds

    def test_every_k_fires_on_multiples(self):
        sim = Simulator()
        log = []
        scheduler = TickScheduler(sim, 0.1)
        scheduler.register(recorder(log, "slow"), every=3)
        sim.run(until=1.0)
        assert [t for _, t in log] == [0.0, 0.3, 0.6, 0.9]

    def test_register_every_s_must_divide(self):
        sim = Simulator()
        scheduler = TickScheduler(sim, 0.1)
        handle = scheduler.register_every_s(0.3, lambda now: None)
        assert handle.every == 3
        with pytest.raises(ValueError, match="integer multiple"):
            scheduler.register_every_s(0.25, lambda now: None)

    def test_interval_must_be_positive(self):
        with pytest.raises(ValueError, match="positive"):
            TickScheduler(Simulator(), 0.0)

    def test_every_must_be_positive_int(self):
        scheduler = TickScheduler(Simulator(), 0.1)
        for bad in (0, -1, 1.5, "2"):
            with pytest.raises(ValueError, match="^every must be an int >= 1"):
                scheduler.register(lambda now: None, every=bad)

    def test_pause_resume_matches_periodic_task(self):
        # Pause at 0.5, resume at 1.0: PeriodicTask next fires at 1.1.
        results = {}
        for kind in ("task", "wheel"):
            sim = Simulator()
            times = []
            if kind == "task":
                ctl = sim.call_every(0.1, lambda: times.append(round(sim.now, 9)))
            else:
                scheduler = TickScheduler(sim, 0.1)
                ctl = scheduler.register(
                    lambda now: times.append(round(now, 9))
                )
            sim.schedule_at(0.5, ctl.pause)
            sim.schedule_at(1.0, ctl.resume)
            sim.run(until=1.55)
            results[kind] = times
        assert results["wheel"] == results["task"]
        assert 1.1 in results["wheel"]
        assert not any(0.5 < t < 1.1 for t in results["wheel"])

    def test_stop_deregisters_permanently(self):
        sim = Simulator()
        log = []
        scheduler = TickScheduler(sim, 0.1)
        handle = scheduler.register(recorder(log, "x"))
        sim.schedule_at(0.35, handle.stop)
        sim.run(until=1.0)
        assert [t for _, t in log] == [0.0, 0.1, 0.2, 0.3]
        handle.resume()  # no-op on a stopped handle
        sim.run(until=1.5)
        assert len(log) == 4

    def test_scheduler_stop_halts_all(self):
        sim = Simulator()
        log = []
        scheduler = TickScheduler(sim, 0.1)
        scheduler.register(recorder(log, "a"))
        scheduler.register(recorder(log, "b"))
        sim.schedule_at(0.25, scheduler.stop)
        sim.run(until=1.0)
        assert max(t for _, t in log) <= 0.2


class TestDeterminism:
    def test_callbacks_run_in_registration_order(self):
        sim = Simulator()
        log = []
        scheduler = TickScheduler(sim, 0.1)
        for tag in (3, 1, 4, 0, 2):
            scheduler.register(recorder(log, tag))
        sim.run(until=0.05)
        assert [tag for tag, _ in log] == [3, 1, 4, 0, 2]

    def test_order_survives_pause_resume_cycles(self):
        # A handle that pauses and resumes must not jump the queue: the
        # round's dispatch order is still registration order.
        sim = Simulator()
        log = []
        scheduler = TickScheduler(sim, 0.1)
        first = scheduler.register(recorder(log, "first"))
        scheduler.register(recorder(log, "second"))
        sim.schedule_at(0.15, first.pause)
        sim.schedule_at(0.3, first.resume)  # re-armed for round 4 (0.4)
        sim.run(until=0.45)
        by_round = {}
        for tag, t in log:
            by_round.setdefault(t, []).append(tag)
        assert by_round[0.4] == ["first", "second"]

    def test_no_duplicate_fire_after_resume_into_armed_round(self):
        # Pausing leaves a stale bucket entry; resuming can arm the same
        # handle into a later round that already has one.  The stale
        # entry must be skipped and the handle fired exactly once per
        # round.
        sim = Simulator()
        log = []
        scheduler = TickScheduler(sim, 0.1)
        handle = scheduler.register(recorder(log, "h"))
        sim.schedule_at(0.11, handle.pause)
        sim.schedule_at(0.12, handle.resume)
        sim.run(until=0.65)
        times = [t for _, t in log]
        assert times == sorted(set(times)), f"duplicate fire: {times}"

    def test_one_live_heap_event_for_many_registrants(self):
        sim = Simulator()
        scheduler = TickScheduler(sim, 0.1)
        for _ in range(50):
            scheduler.register(lambda now: None)
        assert sim.live_pending == 1
        sim.run(until=0.5)
        assert sim.live_pending == 1
        assert scheduler.rounds > 0
        assert scheduler.callbacks_run == 50 * scheduler.rounds


class TestControllerIntegration:
    def test_scheduled_controllers_tick_like_dedicated(self):
        sim_d, _, farm_d = controller_farm(5, shared=False)
        sim_s, scheduler, farm_s = controller_farm(5, shared=True)
        sim_d.run(until=1.05)
        sim_s.run(until=1.05)
        assert [c.ticks for c in farm_s] == [c.ticks for c in farm_d]
        assert all(c.running for c in farm_s)
        assert scheduler.callbacks_run == sum(c.ticks for c in farm_s)

    def test_shared_farm_keeps_one_heap_event(self):
        sim_d, _, farm_d = controller_farm(20, shared=False)
        sim_s, _, farm_s = controller_farm(20, shared=True)
        assert sim_d.live_pending == 20
        assert sim_s.live_pending == 1

    def test_thousand_controller_farm(self):
        # The E19 farm size: still one live heap event, still exactly
        # the dedicated tasks' tick counts, every registrant run every
        # round (the wall budget per round is benchmarks/'s to gate).
        sim_d, _, farm_d = controller_farm(1000, shared=False)
        sim_s, scheduler, farm_s = controller_farm(1000, shared=True)
        assert sim_d.live_pending == 1000
        assert sim_s.live_pending == 1
        sim_d.run(until=1.05)
        sim_s.run(until=1.05)
        assert sim_s.live_pending == 1
        assert [c.ticks for c in farm_s] == [c.ticks for c in farm_d]
        assert scheduler.rounds == 11
        assert scheduler.callbacks_run == 1000 * scheduler.rounds

    def test_controller_stop_and_double_start_guard(self):
        sim, scheduler, farm = controller_farm(2, shared=True)
        controller = farm[0]
        with pytest.raises(RuntimeError, match="already started"):
            controller.start()
        controller.stop()
        assert not controller.running
        sim.run(until=0.55)
        assert controller.ticks == 0
        assert farm[1].ticks == 6

    def test_controller_interval_must_fit_wheel(self):
        sim = Simulator()
        scheduler = TickScheduler(sim, 0.1)
        with pytest.raises(ValueError, match="integer multiple"):
            TangoController(
                StandinGateway("edge"), sim, interval_s=0.25, scheduler=scheduler
            )

    def test_rebalancer_attaches_to_wheel(self):
        sim = Simulator()
        scheduler = TickScheduler(sim, 0.1)
        selector = WeightedSplitSelector()

        class Tunnel:
            def __init__(self, path_id):
                self.path_id = path_id

        rebalancer = SplitRebalancer(
            selector, lambda tunnels, now: [1.0, 3.0], [Tunnel(0), Tunnel(1)]
        )
        handle = rebalancer.attach(scheduler)
        assert handle.every == 1
        sim.run(until=0.25)
        assert [t for t, _ in rebalancer.history] == pytest.approx([0.0, 0.1, 0.2])
        assert rebalancer.history[-1][1] == (0.25, 0.75)
