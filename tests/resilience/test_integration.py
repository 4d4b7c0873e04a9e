"""Integration: the E14 acceptance scenario.

One resilient edge rides out three overlapping faults — a 30% loss
window on the telemetry channel, a 2 s total telemetry silence, and a
mid-run controller crash while a blackholed tunnel sits in quarantine:

* the data plane **never stops forwarding** (selector choice gaps stay
  under half a staleness horizon for the whole run);
* the controller **degrades to local RTT estimates within the staleness
  horizon** of the mirror going silent and re-upgrades after it heals;
* the supervisor **warm-restores quarantine state** from the journal —
  the quarantine/backoff history is identical to a crash-free twin run
  (no duplicate churn, no forgotten blackhole);
* the whole campaign is **byte-identical across replays** of the same
  plan and seed.
"""

import pytest

from repro.core.controller import QuarantinePolicy
from repro.core.policy import LowestDelaySelector
from repro.faults import FaultEvent, FaultInjector, FaultPlan
from repro.netsim.trace import PacketFactory
from repro.resilience import (
    ChannelConfig,
    ControllerJournal,
    DegradedModeConfig,
    RttFallbackEstimator,
)
from repro.scenarios.vultr import VultrDeployment

LOSS_AT, LOSS_FOR = 2.0, 4.0
DROP_AT, DROP_FOR = 8.0, 2.0
BLACKHOLE_AT, BLACKHOLE_FOR = 10.5, 5.0
CRASH_AT = 12.0
HORIZON_S = 0.5
RUN_UNTIL = 20.0


def build_plan(with_crash):
    events = [
        FaultEvent(
            "telemetry_loss",
            at=LOSS_AT,
            duration=LOSS_FOR,
            params={"edge": "ny", "rate": 0.3},
        ),
        FaultEvent(
            "telemetry_drop",
            at=DROP_AT,
            duration=DROP_FOR,
            params={"edge": "ny"},
        ),
        FaultEvent(
            "link_blackhole",
            at=BLACKHOLE_AT,
            duration=BLACKHOLE_FOR,
            params={"src": "ny", "path": "GTT"},
        ),
    ]
    if with_crash:
        events.append(
            FaultEvent("controller_crash", at=CRASH_AT, params={"edge": "ny"})
        )
    return FaultPlan(name="e14-combined", seed=11, events=tuple(events))


def run_campaign(with_crash):
    deployment = VultrDeployment(
        include_events=False,
        telemetry_channel=ChannelConfig(report_interval_s=0.1),
    )
    deployment.establish()
    deployment.start_path_probes("ny")
    estimator = RttFallbackEstimator.for_deployment(deployment, "ny")
    estimator.start()
    journal = ControllerJournal(checkpoint_every_ticks=10)
    controller = deployment.start_controller(
        "ny",
        LowestDelaySelector(deployment.gateway("ny").outbound, window_s=1.0),
        interval_s=0.1,
        staleness_s=HORIZON_S,
        quarantine=QuarantinePolicy(),
        degraded=DegradedModeConfig(
            estimates=estimator.estimates, horizon_s=HORIZON_S
        ),
        journal=journal,
    )
    supervisor = deployment.supervisors["ny"]

    factory = PacketFactory(
        src=str(deployment.pairing.a.host_address(4)),
        dst=str(deployment.pairing.b.host_address(4)),
        flow_label=9,
    )
    send = deployment.sender_for("ny")
    deployment.sim.call_every(0.02, lambda: send(factory.build()))

    FaultInjector(deployment, build_plan(with_crash)).arm()
    deployment.net.run(until=RUN_UNTIL)
    return deployment, controller, supervisor, journal


def gtt_history(controller):
    return [
        (q.action, q.backoff_s)
        for q in controller.quarantine_log
        if q.label == "GTT"
    ]


class TestCombinedFaultCampaign:
    @pytest.fixture(scope="class")
    def crash_free(self):
        return run_campaign(with_crash=False)

    @pytest.fixture(scope="class")
    def crashy(self):
        return run_campaign(with_crash=True)

    # -- (a) the data plane never stops forwarding ---------------------------------

    @pytest.mark.parametrize("which", ["crash_free", "crashy"])
    def test_forwarding_never_stops(self, which, request):
        _, controller, _, _ = request.getfixturevalue(which)
        times = controller.choice_trace.times
        assert len(times) > 150
        assert times[-1] > RUN_UNTIL - HORIZON_S
        gaps = times[1:] - times[:-1]
        # Telemetry silence, frame loss, blackhole, and the crash are
        # all slow-path events: packets keep flowing the whole time.
        assert gaps.max() < HORIZON_S

    # -- (b) degraded-mode estimation within the staleness horizon -----------------

    def test_degrades_within_horizon_of_mirror_silence(self, crashy):
        _, controller, _, _ = crashy
        downgrades = [
            m.t
            for m in controller.mode_log
            if m.mode == "degraded" and m.t >= DROP_AT
        ]
        assert downgrades, "mirror silence never triggered degraded mode"
        # Last frame lands ~DROP_AT + channel latency; the first control
        # tick past the horizon flips the mode (one tick of slack).
        assert downgrades[0] <= DROP_AT + HORIZON_S + 0.2

    def test_reupgrades_after_mirror_heals(self, crashy):
        _, controller, _, _ = crashy
        heal_at = DROP_AT + DROP_FOR
        upgrades = [
            m.t
            for m in controller.mode_log
            if m.mode == "cooperative" and m.t >= heal_at
        ]
        assert upgrades
        assert upgrades[0] <= heal_at + 0.5
        assert controller.mode == "cooperative"

    def test_mode_transitions_alternate(self, crashy):
        _, controller, _, _ = crashy
        modes = [m.mode for m in controller.mode_log]
        assert all(a != b for a, b in zip(modes, modes[1:]))

    def test_mirror_outage_never_quarantines_healthy_tunnels(self, crashy):
        """Feed-wide staleness must read as 'mirror down', not 'every
        tunnel dead': only the blackholed path is ever quarantined."""
        _, controller, _, _ = crashy
        assert {q.label for q in controller.quarantine_log} == {"GTT"}

    # -- (c) crash-safe warm restore ------------------------------------------------

    def test_crash_detected_and_recovered_quickly(self, crashy):
        _, controller, supervisor, journal = crashy
        assert supervisor.restarts == 1
        assert controller.running
        recovery = supervisor.recovery_times()
        assert len(recovery) == 1
        assert recovery[0] < 2.0
        assert journal.checkpoints > 0

    def test_no_duplicate_quarantine_churn_versus_crash_free_run(
        self, crash_free, crashy
    ):
        """The restarted controller must pick up the quarantine machine
        where it died: same transitions, same backoff escalation, same
        final restore as the run where the controller never crashed."""
        _, free_ctl, free_sup, _ = crash_free
        _, crash_ctl, _, _ = crashy
        assert free_sup.restarts == 0  # the twin really is crash-free
        assert gtt_history(crash_ctl) == gtt_history(free_ctl)
        history = gtt_history(crash_ctl)
        assert [b for a, b in history if a == "quarantine"] == [1.0, 2.0, 4.0]
        assert history[-1][0] == "restore"
        assert crash_ctl.quarantined == set()

    def test_quarantine_survives_the_crash_window(self, crashy):
        """GTT was quarantined before the crash and the blackhole was
        still active at restart: the warm-restored controller must keep
        it out of service, not re-admit and re-learn."""
        _, controller, supervisor, _ = crashy
        restart_at = next(
            e.t for e in supervisor.events if e.action == "restart"
        )
        requarantines = [
            q.t
            for q in controller.quarantine_log
            if q.label == "GTT"
            and q.action == "quarantine"
            and restart_at <= q.t < restart_at + 0.1
        ]
        assert requarantines == []  # no immediate post-restart churn


class TestReplayDeterminism:
    def test_journal_dump_byte_identical_across_replays(self):
        _, _, _, journal_a = run_campaign(with_crash=True)
        _, _, _, journal_b = run_campaign(with_crash=True)
        assert journal_a.dump() == journal_b.dump()

    def test_cli_resilient_byte_identical(self, tmp_path, capsys):
        plan_path = tmp_path / "plan.json"
        plan_path.write_text(build_plan(with_crash=True).to_json())
        outputs = []
        for run in (1, 2):
            out_path = tmp_path / f"log{run}.txt"
            assert (
                main_cli(
                    [
                        "faults",
                        "run",
                        "--resilient",
                        "--plan",
                        str(plan_path),
                        "--seed",
                        "11",
                        "--duration",
                        "16",
                        "--transitions",
                        "--out",
                        str(out_path),
                    ]
                )
                == 0
            )
            capsys.readouterr()
            outputs.append(out_path.read_bytes())
        assert outputs[0] == outputs[1]
        text = outputs[0].decode()
        assert "link_blackhole ny:GTT" in text


def main_cli(argv):
    from repro.cli import main

    return main(argv)
