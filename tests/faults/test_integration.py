"""Integration: a mid-run blackhole on the active tunnel.

The headline robustness claim (ISSUE acceptance criteria): with the
quarantine-enabled controller, a blackholed active path is detected via
staleness, evicted, and user traffic rerouted within bounded ticks —
MTTR well under 2 simulated seconds, versus BGP's ~180 s convergence —
and the path is restored after backoff once the fault clears.
"""

import pytest

from repro.bgp.network import CONVERGENCE_DELAY_S
from repro.cli import main
from repro.core.controller import QuarantinePolicy
from repro.core.policy import LowestDelaySelector
from repro.faults import FaultEvent, FaultInjector, FaultPlan, RecoveryLog
from repro.netsim.trace import PacketFactory
from repro.scenarios.vultr import VultrDeployment

FAIL_AT = 5.0
FAIL_FOR = 5.0


def run_blackhole_campaign():
    deployment = VultrDeployment(include_events=False)
    deployment.establish()
    deployment.start_path_probes("ny")
    # GTT is the calibrated-best ny->la path, so the adaptive selector
    # pins the data stream to it — the blackhole hits the active tunnel.
    controller = deployment.start_controller(
        "ny",
        LowestDelaySelector(deployment.gateway("ny").outbound, window_s=1.0),
        interval_s=0.1,
        staleness_s=0.5,
        quarantine=QuarantinePolicy(),
    )

    factory = PacketFactory(
        src=str(deployment.pairing.a.host_address(4)),
        dst=str(deployment.pairing.b.host_address(4)),
        flow_label=9,
    )
    send = deployment.sender_for("ny")
    deployment.sim.call_every(0.02, lambda: send(factory.build()))

    plan = FaultPlan(
        name="active-blackhole",
        seed=11,
        events=(
            FaultEvent(
                "link_blackhole",
                at=FAIL_AT,
                duration=FAIL_FOR,
                params={"src": "ny", "path": "GTT"},
            ),
        ),
    )
    FaultInjector(deployment, plan).arm()
    deployment.net.run(until=20.0)
    return deployment, controller, plan


class TestActivePathBlackhole:
    @pytest.fixture(scope="class")
    def campaign(self):
        return run_blackhole_campaign()

    def test_active_path_was_the_faulted_one(self, campaign):
        _, controller, _ = campaign
        gtt = next(
            t.path_id
            for t in controller.gateway.tunnel_table.all_tunnels()
            if t.short_label == "GTT"
        )
        times = controller.choice_trace.times
        values = controller.choice_trace.values
        before = [c for t, c in zip(times, values) if 2.0 < t < FAIL_AT]
        assert set(before) == {float(gtt)}

    def test_quarantined_and_rerouted_within_mttr_bound(self, campaign):
        _, controller, plan = campaign
        log = RecoveryLog.build(plan, {"ny": controller})
        record = log.records[0]
        assert record.detected_at is not None, "blackhole was never detected"
        assert record.rerouted_at is not None, "traffic was never rerouted"
        assert record.reroute_s < 2.0
        assert log.mttr() < 2.0
        assert log.mttr() < CONVERGENCE_DELAY_S / 50
        assert log.detected_count == 1

    def test_restored_after_backoff_once_fault_cleared(self, campaign):
        _, controller, plan = campaign
        log = RecoveryLog.build(plan, {"ny": controller})
        record = log.records[0]
        assert record.restored_at is not None
        assert record.restored_at >= FAIL_AT + FAIL_FOR
        gtt = next(
            q.path_id for q in controller.quarantine_log if q.label == "GTT"
        )
        assert gtt not in controller.quarantined
        actions = [q.action for q in controller.quarantine_log if q.path_id == gtt]
        assert actions[-1] == "restore"

    def test_backoff_doubles_between_requarantines(self, campaign):
        _, controller, _ = campaign
        backoffs = [
            q.backoff_s
            for q in controller.quarantine_log
            if q.action == "quarantine" and q.label == "GTT"
        ]
        assert len(backoffs) >= 2
        for earlier, later in zip(backoffs, backoffs[1:]):
            assert later == pytest.approx(earlier * 2)

    def test_fallback_never_engaged(self, campaign):
        _, controller, _ = campaign
        # Only one of four paths failed: the guarded selector always had
        # healthy candidates, so BGP-best fallback stayed off.
        assert all(
            q.action not in ("fallback-on", "fallback-off")
            for q in controller.quarantine_log
        )


class TestCliByteIdentical:
    def test_same_plan_same_seed_identical_logs(self, tmp_path, capsys):
        plan = FaultPlan(
            name="ci-blackhole",
            seed=5,
            events=(
                FaultEvent(
                    "link_blackhole",
                    at=3.0,
                    duration=3.0,
                    params={"src": "ny", "path": "GTT"},
                ),
            ),
        )
        plan_path = tmp_path / "plan.json"
        plan_path.write_text(plan.to_json())

        outputs = []
        for run in (1, 2):
            out_path = tmp_path / f"log{run}.txt"
            assert (
                main(
                    [
                        "faults",
                        "run",
                        "--plan",
                        str(plan_path),
                        "--seed",
                        "5",
                        "--duration",
                        "12",
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
        assert "# transitions" in text
