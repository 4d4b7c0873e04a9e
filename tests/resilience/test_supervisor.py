"""Tests for crash detection, restart backoff, and warm restore."""

import pytest

from repro.core.controller import QuarantinePolicy, TangoController
from repro.core.policy import LowestDelaySelector
from repro.resilience.journal import ControllerJournal
from repro.resilience.supervisor import Supervisor, SupervisorPolicy

from tests.resilience.test_degraded import make_setup

FAST_POLICY = SupervisorPolicy(
    check_interval_s=0.3,
    restart_delay_s=0.25,
    backoff_factor=2.0,
    max_restart_delay_s=5.0,
    healthy_after_s=10.0,
)


def make_supervised(policy=FAST_POLICY, journal=None, quarantine=None):
    net, gateway = make_setup()
    gateway.set_selector(LowestDelaySelector(gateway.outbound, window_s=1.0))
    controller = TangoController(
        gateway,
        net.sim,
        interval_s=0.1,
        staleness_s=0.5,
        quarantine=quarantine,
        journal=journal,
    )
    controller.start()
    supervisor = Supervisor(controller, net.sim, policy=policy)
    supervisor.start()
    return net, gateway, controller, supervisor


class TestPolicyValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"check_interval_s": 0.0},
            {"restart_delay_s": 0.0},
            {"backoff_factor": 0.9},
            {"restart_delay_s": 2.0, "max_restart_delay_s": 1.0},
            {"healthy_after_s": 0.0},
        ],
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ValueError):
            SupervisorPolicy(**kwargs)

    def test_heartbeat_no_slower_than_the_tick_rejected(self):
        """Checked at the tick interval, a healthy controller's counter
        can stand still between two heartbeats: it would be declared dead
        and restarted off its tick grid."""
        net, gateway = make_setup()
        controller = TangoController(gateway, net.sim, interval_s=0.5)
        with pytest.raises(ValueError, match="heartbeat"):
            Supervisor(controller, net.sim)  # the default 0.5 s heartbeat


class TestCrashDetection:
    def test_healthy_controller_never_flagged(self):
        net, _, controller, supervisor = make_supervised()
        net.run(until=5.0)
        assert supervisor.events == []
        assert supervisor.restarts == 0
        assert controller.running

    def test_crash_detected_and_restarted(self):
        net, _, controller, supervisor = make_supervised()
        net.sim.schedule_at(1.0, controller.crash)
        net.run(until=3.0)
        assert controller.running
        assert supervisor.restarts == 1
        actions = [e.action for e in supervisor.events]
        assert actions == ["crash-detected", "restart"]
        # Crash at 1.0; heartbeat grid 0, 0.3, ... detects at 1.2; the
        # restart fires one base delay later.
        detected, restarted = supervisor.events
        assert detected.t == pytest.approx(1.2)
        assert restarted.t == pytest.approx(1.2 + 0.25)

    def test_recovery_times(self):
        net, _, controller, supervisor = make_supervised()
        net.sim.schedule_at(1.0, controller.crash)
        net.run(until=3.0)
        assert supervisor.recovery_times() == [pytest.approx(0.25)]

    def test_hung_controller_treated_as_dead(self):
        """A controller whose tick counter stalls (loop wedged, flag
        still true) must be restarted too."""
        net, _, controller, supervisor = make_supervised()

        def wedge():
            controller._loop.stop()  # loop dies, `running` flag stays up

        net.sim.schedule_at(1.0, wedge)
        net.run(until=3.0)
        assert supervisor.restarts >= 1

    def test_stopped_supervisor_does_not_restart(self):
        net, _, controller, supervisor = make_supervised()
        net.sim.schedule_at(0.5, supervisor.stop)
        net.sim.schedule_at(1.0, controller.crash)
        net.run(until=5.0)
        assert not controller.running
        assert supervisor.restarts == 0

    def test_double_start_rejected(self):
        _, _, _, supervisor = make_supervised()
        with pytest.raises(RuntimeError):
            supervisor.start()

    def test_manual_restart_wins_race(self):
        """If something restarts the controller during the backoff wait,
        the supervisor's pending restart becomes a no-op."""
        net, _, controller, supervisor = make_supervised()
        net.sim.schedule_at(1.0, controller.crash)
        net.sim.schedule_at(1.3, controller.start)  # before restart at 1.45
        net.run(until=3.0)
        assert controller.running
        assert supervisor.restarts == 0
        assert [e.action for e in supervisor.events] == ["crash-detected"]


class TestBackoff:
    def crash_repeatedly(self, net, controller, times):
        for t in times:
            net.sim.schedule_at(t, controller.crash)

    def test_backoff_doubles_per_crash(self):
        net, _, controller, supervisor = make_supervised()
        self.crash_repeatedly(net, controller, [1.0, 2.0, 3.05, 4.6])
        net.run(until=10.0)
        delays = [
            e.delay_s for e in supervisor.events if e.action == "crash-detected"
        ]
        assert delays == [
            pytest.approx(0.25),
            pytest.approx(0.5),
            pytest.approx(1.0),
            pytest.approx(2.0),
        ]
        assert supervisor.restarts == 4

    def test_backoff_capped(self):
        policy = SupervisorPolicy(
            check_interval_s=0.3,
            restart_delay_s=0.25,
            backoff_factor=2.0,
            max_restart_delay_s=0.5,
            healthy_after_s=10.0,
        )
        net, _, controller, supervisor = make_supervised(policy=policy)
        self.crash_repeatedly(net, controller, [1.0, 2.0, 3.05, 4.6])
        net.run(until=10.0)
        delays = [
            e.delay_s for e in supervisor.events if e.action == "crash-detected"
        ]
        assert delays[0] == pytest.approx(0.25)
        assert all(d <= 0.5 + 1e-9 for d in delays)
        assert delays[-1] == pytest.approx(0.5)

    def test_healthy_uptime_resets_backoff(self):
        policy = SupervisorPolicy(
            check_interval_s=0.3,
            restart_delay_s=0.25,
            backoff_factor=2.0,
            max_restart_delay_s=5.0,
            healthy_after_s=1.0,
        )
        net, _, controller, supervisor = make_supervised(policy=policy)
        # Two quick crashes push the delay to 1.0, then a long healthy
        # stretch resets it; the third crash pays the base delay again.
        self.crash_repeatedly(net, controller, [1.0, 2.0, 6.0])
        net.run(until=10.0)
        actions = [e.action for e in supervisor.events]
        assert "backoff-reset" in actions
        delays = [
            e.delay_s for e in supervisor.events if e.action == "crash-detected"
        ]
        assert delays == [
            pytest.approx(0.25),
            pytest.approx(0.5),
            pytest.approx(0.25),
        ]


class TestWarmRestore:
    def quarantine_then_crash(self, journal):
        """Path 0 goes silent and is quarantined ~0.7 s; the controller
        dies at 1.0 s, before the 1.7 s probation."""
        net, gateway = make_setup()
        gateway.set_selector(LowestDelaySelector(gateway.outbound, window_s=1.0))
        controller = TangoController(
            gateway,
            net.sim,
            interval_s=0.1,
            staleness_s=0.5,
            quarantine=QuarantinePolicy(),
            journal=journal,
        )
        gateway.outbound.record(0, 0.0, 0.030)  # then silent
        net.sim.call_every(
            0.05, lambda: gateway.outbound.record(1, net.sim.now, 0.030)
        )
        controller.start()
        supervisor = Supervisor(controller, net.sim, policy=FAST_POLICY)
        supervisor.start()
        net.sim.schedule_at(1.0, controller.crash)
        return net, controller, supervisor

    def quarantine_actions(self, controller):
        return [
            q for q in controller.quarantine_log
            if q.path_id == 0 and q.action == "quarantine"
        ]

    def test_warm_restore_does_not_requarantine(self):
        journal = ControllerJournal(checkpoint_every_ticks=5)
        net, controller, supervisor = self.quarantine_then_crash(journal)
        net.run(until=1.6)  # restart at ~1.45, before probation at 1.7
        assert supervisor.restarts == 1
        assert 0 in controller.quarantined
        # The restored machine remembers the pre-crash quarantine; no
        # duplicate transition is issued after the restart.
        assert len(self.quarantine_actions(controller)) == 1

    def test_cold_restart_rederives_quarantine(self):
        """Without a journal the restarted controller has amnesia (its
        NullJournal recovers nothing, so the restore is a cold start): it
        re-walks the hysteresis and logs a second quarantine — exactly
        the churn the warm path exists to avoid."""
        net, controller, supervisor = self.quarantine_then_crash(journal=None)
        net.run(until=2.2)
        assert supervisor.restarts == 1
        assert 0 in controller.quarantined
        assert len(self.quarantine_actions(controller)) >= 2

    def test_warm_restore_keeps_probation_schedule(self):
        """Probation must still begin at the originally scheduled
        expiry (1.7 s, hit by the first post-restart tick at 1.75), not
        one fresh backoff after the restart (2.45 s)."""
        journal = ControllerJournal(checkpoint_every_ticks=5)
        net, controller, supervisor = self.quarantine_then_crash(journal)
        net.run(until=2.0)
        probations = [
            q for q in controller.quarantine_log
            if q.path_id == 0 and q.action == "probation"
        ]
        assert len(probations) >= 1
        assert probations[0].t == pytest.approx(1.75, abs=0.06)

    def test_checkpoint_with_a_retired_key_restores_unchanged(self):
        """A checkpoint written before ``stale_flags`` left the payload
        still restores: keys the controller does not know are ignored."""
        net, controller, _ = self.quarantine_then_crash(journal=None)
        net.run(until=0.95)
        snapshot = controller.snapshot_state()
        assert snapshot["quarantined"] == [0] and "stale_flags" not in snapshot
        controller.crash()
        controller.restore_state({**snapshot, "stale_flags": {"0": True, "1": False}})
        assert controller.snapshot_state() == snapshot
