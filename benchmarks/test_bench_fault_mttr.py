"""E13 (extension) — chaos campaign MTTR across fault kinds.

One deterministic fault plan exercises the quarantine-enabled control
loop against each path-fault kind in sequence — hard blackhole, flapping
loss, heavy burst — on the active NY→LA path, with a quiet gap between
faults so each recovery is attributable.  The table reports per-fault
detection / reroute / repair timings and the MTTR headline.

Shape assertions: every fault is detected, MTTR stays under 2 simulated
seconds, and the whole loop is two orders of magnitude faster than BGP's
convergence delay — the paper's Section 3 motivation, now measured under
three distinct failure modes instead of one.
"""

from conftest import emit

from repro.analysis.report import format_kv
from repro.bgp.network import CONVERGENCE_DELAY_S
from repro.core.controller import QuarantinePolicy
from repro.core.policy import LowestDelaySelector
from repro.faults import FaultEvent, FaultInjector, FaultPlan, RecoveryLog
from repro.netsim.trace import PacketFactory
from repro.scenarios.vultr import VultrDeployment

#: Faults hit GTT — the calibrated-best NY→LA path the data stream rides.
PLAN = FaultPlan(
    name="mttr-sweep",
    seed=23,
    events=(
        FaultEvent(
            "link_blackhole",
            at=5.0,
            duration=4.0,
            params={"src": "ny", "path": "GTT"},
        ),
        FaultEvent(
            "link_flap",
            at=25.0,
            duration=4.0,
            params={"src": "ny", "path": "GTT", "period": 1.0, "duty": 0.8},
        ),
        # Staleness is the detection signal, so the burst must be heavy
        # enough that surviving probes are rarer than the staleness
        # horizon (100 probes/s x 0.002 pass rate ~ one per 5 s >> 0.5 s).
        FaultEvent(
            "loss_burst",
            at=45.0,
            duration=4.0,
            params={"src": "ny", "path": "GTT", "rate": 0.998},
        ),
    ),
)
RUN_UNTIL = 65.0


def run_campaign():
    deployment = VultrDeployment(include_events=False)
    deployment.establish()
    deployment.start_path_probes("ny")
    controller = deployment.start_controller(
        "ny",
        LowestDelaySelector(deployment.gateway_ny.outbound, window_s=1.0),
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

    FaultInjector(deployment, PLAN).arm()
    deployment.net.run(until=RUN_UNTIL)
    return RecoveryLog.build(PLAN, {"ny": controller})


def test_fault_mttr_sweep(benchmark):
    log = benchmark.pedantic(run_campaign, rounds=1, iterations=1)

    emit(log.format())
    mttr = log.mttr()
    emit(
        format_kv(
            [
                ("mttr_s", f"{mttr:.3f}"),
                ("detected", f"{log.detected_count}/{log.path_fault_count}"),
                ("bgp_convergence_s", f"{CONVERGENCE_DELAY_S:.0f}"),
                ("speedup_vs_bgp", f"{CONVERGENCE_DELAY_S / mttr:.0f}x"),
            ],
            title="Chaos campaign MTTR (E13)",
        )
    )

    # Every injected path fault must be detected and rerouted around.
    assert log.detected_count == log.path_fault_count == 3
    for record in log.records:
        assert record.detected_at is not None, f"{record.kind} undetected"
        assert record.rerouted_at is not None, f"{record.kind} not rerouted"
        assert record.reroute_s < 2.0
    # The headline: sub-2 s MTTR, ~100x faster than BGP convergence.
    assert mttr < 2.0
    assert CONVERGENCE_DELAY_S / mttr > 100
