"""End-to-end: UNMODIFIED selectors and quarantine reroute around
fluid-mode congestion.

The acceptance bar for the traffic subsystem: the existing policy stack
(LowestDelaySelector, HysteresisSelector, LossAwareSelector,
QuarantinePolicy/GuardedSelector) must work on fluid telemetry without
any code changes — congestion the fluid engine creates shows up as
inflated delay samples and loss-ledger entries through the exact same
stores the packet path fills, and the policies route around it.
"""

import pytest

from repro.core.controller import QuarantinePolicy
from repro.core.policy import (
    HysteresisSelector,
    LossAwareSelector,
    LowestDelaySelector,
    StaticSelector,
)
from repro.scenarios.vultr import VultrDeployment
from repro.traffic.demand import DemandModel, FlowClass
from repro.traffic.vector import VectorFluidEngine

NTT, TELIA, GTT, LEVEL3 = 0, 1, 2, 3


def overload_demand(offered_bps=9.6e9, seed=17):
    """One bulk class: overloads GTT (8 Gbps), fits on NTT/Telia."""
    return DemandModel(
        classes=(
            FlowClass(
                name="bulk",
                flow_label=1,
                arrival_rate_per_s=offered_bps / 1e6,
                mean_size_bytes=125_000.0,
                rate_bps=1e6,
            ),
        ),
        seed=seed,
    )


def launch(selector, *, buffer_delay_s=0.1, controller_kwargs=None):
    deployment = VultrDeployment(include_events=False)
    deployment.establish()
    controller = None
    if controller_kwargs is None:
        deployment.set_data_policy("ny", selector)
    else:
        controller = deployment.start_controller(
            "ny", selector, interval_s=0.1, **controller_kwargs
        )
    engine = VectorFluidEngine(
        deployment, "ny", overload_demand(), buffer_delay_s=buffer_delay_s
    )
    engine.start()
    return deployment, engine, controller


def dominance(engine):
    """(time, dominant_path_id) per engine step."""
    return [
        (t, max(sorted(split), key=lambda pid: split[pid]))
        for t, split in engine.split_trace
    ]


def assert_found_then_abandoned(engine, deployment, congested=GTT):
    """The selector chose the congested path, congestion inflated its
    measured delay, and traffic later moved off it."""
    picks = dominance(engine)
    on = [t for t, pid in picks if pid == congested]
    assert on, "selector never tried the lowest-delay (congested) path"
    first_on = on[0]
    off_after = [t for t, pid in picks if t > first_on and pid != congested]
    assert off_after, "selector never rerouted off the congested path"

    offset = deployment.clock_offset_delta("ny")
    measured = deployment.gateway_la.inbound.series(congested)
    inflated = max(measured.values) - offset
    assert inflated > 0.060, f"congestion never visible: max {inflated:.3f}s"
    return first_on, off_after[0]


class TestLowestDelayReroute:
    def test_reroutes_off_congested_path(self):
        deployment = VultrDeployment(include_events=False)
        deployment.establish()
        selector = LowestDelaySelector(
            deployment.gateway_ny.outbound, window_s=0.5
        )
        deployment.set_data_policy("ny", selector)
        engine = VectorFluidEngine(deployment, "ny", overload_demand())
        engine.start()
        deployment.sim.run(until=deployment.sim.now + 5.0)

        found_at, left_at = assert_found_then_abandoned(engine, deployment)
        assert left_at > found_at
        assert selector.switches >= 2  # found GTT, then fled it
        # The escape target can absorb the load: NTT or Telia.
        final = dominance(engine)
        escapes = {pid for t, pid in final if t > left_at}
        assert escapes & {NTT, TELIA}


class TestHysteresisReroute:
    def test_dwell_limits_flapping(self):
        deployment = VultrDeployment(include_events=False)
        deployment.establish()
        selector = HysteresisSelector(
            deployment.gateway_ny.outbound,
            window_s=0.5,
            margin_s=0.002,
            dwell_s=1.0,
        )
        deployment.set_data_policy("ny", selector)
        engine = VectorFluidEngine(deployment, "ny", overload_demand())
        engine.start()
        deployment.sim.run(until=deployment.sim.now + 6.0)

        assert_found_then_abandoned(engine, deployment)
        # Dwell bounds the churn: switches at least 1 s apart.
        picks = dominance(engine)
        changes = [
            t
            for (t, pid), (_, prev) in zip(picks[1:], picks[:-1])
            if pid != prev
        ]
        assert changes, "hysteresis selector never switched"
        gaps = [b - a for a, b in zip(changes, changes[1:])]
        assert all(gap >= 1.0 - 0.11 for gap in gaps)
        # An unbounded greedy policy would flap every drain cycle; the
        # dwell caps it at ~1 switch per second.
        assert len(changes) <= 7


class TestLossAwareReroute:
    def test_loss_alone_drives_the_reroute(self):
        # A tiny bottleneck buffer (2 ms) keeps GTT's inflated delay
        # (~30 ms) below Telia's floor (32 ms): on delay alone the
        # selector would sit on GTT forever.  Only the fluid loss ledger
        # — overload shedding 1 - 1/rho — makes it leave.
        deployment = VultrDeployment(include_events=False)
        deployment.establish()
        gateway = deployment.gateway_ny
        selector = LossAwareSelector(
            gateway.outbound,
            gateway.loss_monitor,
            window_s=0.5,
            loss_penalty_s=1.0,
        )
        engine = VectorFluidEngine(
            deployment, "ny", overload_demand(), buffer_delay_s=0.002
        )
        # The controller samples the loss monitor each tick.
        controller = deployment.start_controller("ny", selector, interval_s=0.1)
        engine.start()
        deployment.sim.run(until=deployment.sim.now + 5.0)
        controller.stop()

        picks = dominance(engine)
        on_gtt = [t for t, pid in picks if pid == GTT]
        assert on_gtt, "never tried GTT"
        off_after = [t for t, pid in picks if t > on_gtt[0] and pid != GTT]
        assert off_after, "loss penalty never moved traffic off GTT"
        # Loss really flowed through the ledger...
        stats = gateway.tracker.stats_for(GTT)
        assert stats.presumed_lost > 0
        # ...while delay stayed un-actionable (below Telia's floor).
        offset = deployment.clock_offset_delta("ny")
        gtt_max = max(deployment.gateway_la.inbound.series(GTT).values)
        telia_min = min(deployment.gateway_la.inbound.series(TELIA).values)
        assert gtt_max - offset < telia_min - offset


class TestQuarantineReroute:
    def test_quarantine_evicts_congested_path(self):
        # Data plane pinned to GTT (index 2): only the controller's
        # quarantine machinery — via the unmodified GuardedSelector —
        # can move traffic.
        deployment, engine, controller = launch(
            StaticSelector(2),
            buffer_delay_s=0.002,
            controller_kwargs={
                "quarantine": QuarantinePolicy(
                    loss_threshold=0.05, unhealthy_ticks=2
                )
            },
        )
        deployment.sim.run(until=deployment.sim.now + 3.0)
        controller.stop()

        quarantines = [
            e for e in controller.quarantine_log if e.action == "quarantine"
        ]
        assert quarantines, "lossy path never quarantined"
        first = quarantines[0]
        assert first.path_id == GTT
        assert first.cause == "loss"

        # While quarantined, the guarded static policy degrades to the
        # surviving candidate set — traffic leaves GTT.
        probations = [
            e.t
            for e in controller.quarantine_log
            if e.action == "probation" and e.path_id == GTT
        ]
        window_end = probations[0] if probations else float("inf")
        during = [
            pid for t, pid in dominance(engine) if first.t < t <= window_end
        ]
        assert during, "no engine steps inside the quarantine window"
        assert GTT not in during
        assert engine.utilization(GTT) == 0.0 or during[-1] != GTT

    def test_quarantine_policy_validation_unchanged(self):
        with pytest.raises(ValueError):
            QuarantinePolicy(loss_threshold=1.5)
