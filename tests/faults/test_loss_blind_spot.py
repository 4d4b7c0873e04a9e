"""The packet-mode loss blind spot (EXPERIMENTS.md "Known deviations").

The controller judges a path on what its gateway's *receive-side*
sequence tracker saw, which is keyed by the peer's tunnels.  The far
edge measures this edge's loss and nothing carries it back, so a 90 %
loss burst leaves the path fresh — its surviving probes keep arriving —
and it is never quarantined.  This test states what the paper's design
does (loss measured at the destination switch reaches the sender's
decision) and is expected to fail until the loss feed lands; it is
strict, so that change must flip it to a plain pass.
"""

import pytest

from repro.core.controller import QuarantinePolicy
from repro.core.policy import LowestDelaySelector
from repro.faults import FaultEvent, FaultInjector, FaultPlan, RecoveryLog
from repro.scenarios.vultr import VultrDeployment

BURST_AT = 3.0
BURST_FOR = 1.2


@pytest.mark.xfail(
    strict=True,
    reason="the far edge's loss measurement does not reach the sender's "
    "controller (ROADMAP §A1)",
)
def test_a_loss_burst_on_one_path_is_detected():
    deployment = VultrDeployment(include_events=False)
    deployment.establish()
    deployment.start_path_probes("ny")
    controller = deployment.start_controller(
        "ny",
        LowestDelaySelector(deployment.gateway("ny").outbound, window_s=1.0),
        interval_s=0.1,
        staleness_s=0.5,
        quarantine=QuarantinePolicy(),
    )
    plan = FaultPlan(
        name="loss-burst",
        seed=11,
        events=(
            FaultEvent(
                "loss_burst",
                at=BURST_AT,
                duration=BURST_FOR,
                params={"src": "ny", "path": "GTT", "rate": 0.9},
            ),
        ),
    )
    FaultInjector(deployment, plan).arm()
    deployment.net.run(until=BURST_AT + BURST_FOR + 1.0)
    record = RecoveryLog.build(plan, {"ny": controller}).records[0]
    assert record.detected_at is not None, "the loss burst was never detected"
