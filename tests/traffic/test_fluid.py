"""Fluid engine tests: seeding, telemetry feed, loss ledger, determinism."""

import pytest

from repro.core.policy import StaticSelector
from repro.scenarios.vultr import VultrDeployment
from repro.traffic.demand import DemandModel, FlowClass, standard_flow_classes
from repro.traffic.fluid import fluid_overload_loss
from repro.traffic.vector import VectorFluidEngine

GTT = 2  # NY->LA path ids: 0=NTT, 1=Telia, 2=GTT, 3=Level3


def single_class(offered_bps=9.6e9, seed=7):
    """One flow class whose equilibrium offered load is ``offered_bps``."""
    flows = offered_bps / 1e6  # 1 Mbps per flow, 1 s mean duration
    return DemandModel(
        classes=(
            FlowClass(
                name="bulk",
                flow_label=1,
                arrival_rate_per_s=flows,
                mean_size_bytes=125_000.0,
                rate_bps=1e6,
            ),
        ),
        seed=seed,
    )


def build(demand, selector=None, **engine_kwargs):
    deployment = VultrDeployment(include_events=False)
    deployment.establish()
    if selector is not None:
        deployment.set_data_policy("ny", selector)
    engine = VectorFluidEngine(deployment, "ny", demand, **engine_kwargs)
    return deployment, engine


class TestSeedingAndObservables:
    def test_equilibrium_seeding_hits_million_flows(self):
        demand = DemandModel(classes=standard_flow_classes(1_050_000), seed=42)
        deployment, engine = build(demand)
        assert engine.concurrent_flows == 0.0
        engine.start(at_equilibrium=True)
        assert engine.concurrent_flows >= 1_000_000
        assert engine.peak_concurrent_flows >= 1_000_000
        # Buckets aggregate: a million flows is three floats.
        assert engine._rows._flows_vec.tolist() == [
            demand.equilibrium_flows(cls, 0.0) for cls in demand.classes
        ]
        engine.stop()

    def test_cold_start_ramps_from_zero(self):
        deployment, engine = build(single_class(1e9))
        engine.start(at_equilibrium=False)
        assert engine.concurrent_flows == 0.0
        deployment.sim.run(until=deployment.sim.now + 2.0)
        # 1 s mean duration: ~86% of equilibrium after 2 s of ramp.
        assert engine.concurrent_flows > 0.5 * engine.demand.total_equilibrium_flows(
            deployment.sim.now
        )

    def test_engine_registers_with_deployment(self):
        deployment, engine = build(single_class())
        assert deployment.traffic_engine("ny") is engine
        with pytest.raises(LookupError):
            deployment.traffic_engine("la")

    def test_utilization_observable(self):
        demand = single_class(offered_bps=9.6e9)  # GTT capacity is 8 Gbps
        deployment, engine = build(demand, selector=StaticSelector(GTT))
        engine.start()
        deployment.sim.run(until=deployment.sim.now + 1.0)
        # All load pinned on GTT: rho ~ 9.6/8 (Poisson-noise wiggle).
        assert engine.utilization(GTT) == pytest.approx(1.2, rel=0.1)
        assert engine.utilization(0) == 0.0
        load = engine.last_loads[GTT]
        assert load.label == "GTT"
        assert load.capacity_bps == 8e9
        assert load.backlog_bits > 0
        assert engine.dominant_path() == GTT


class TestTelemetryFeed:
    def test_delay_samples_reach_both_stores(self):
        deployment, engine = build(single_class(1e9), selector=StaticSelector(GTT))
        engine.start()
        start = deployment.sim.now
        deployment.sim.run(until=start + 1.0)

        offset = deployment.clock_offset_delta("ny")
        inbound = deployment.gateway_la.inbound
        outbound = deployment.gateway_ny.outbound
        for pid, base_s in ((0, 0.0364), (1, 0.0320), (3, 0.0402)):
            # Unloaded tunnels still get one sample per step at their
            # calibrated floor (+ the clock-offset distortion).
            series = inbound.series(pid)
            assert len(series.times) >= 9
            assert series.values[-1] == pytest.approx(base_s + offset, abs=2e-3)
            # The existing TelemetryMirror reported it back to the sender.
            mirrored = outbound.recent_delay(pid, 1.0, deployment.sim.now)
            assert mirrored == pytest.approx(base_s + offset, abs=2e-3)

    def test_overload_inflates_delay_and_feeds_loss_ledger(self):
        demand = single_class(offered_bps=9.6e9)
        deployment, engine = build(
            demand, selector=StaticSelector(GTT), buffer_delay_s=0.1
        )
        engine.start()
        start = deployment.sim.now
        deployment.sim.run(until=start + 2.0)

        offset = deployment.clock_offset_delta("ny")
        inbound = deployment.gateway_la.inbound
        # Backlog drove GTT's measured delay well above its 28 ms floor
        # (up to one full buffer drain = +100 ms).
        inflated = inbound.series(GTT).values[-1] - offset
        assert inflated > 0.08
        assert inflated < 0.0282 + engine.buffer_delay_s + 0.01

        # The loss ledger landed in the *sender's* tracker.
        stats = deployment.gateway_ny.tracker.stats_for(GTT)
        assert stats.presumed_lost > 0
        assert stats.received > 0
        # Cumulative loss sits between zero and the steady-state shed
        # rate (the buffer-fill transient at the start is lossless).
        steady = fluid_overload_loss(1.2)
        assert 0.5 * steady < stats.loss_fraction < 1.1 * steady

        # LossMonitor (sampled the usual way) sees fluid-mode loss.
        monitor = deployment.gateway_ny.loss_monitor
        monitor.sample(deployment.sim.now)
        assert monitor.recent_loss(GTT) == pytest.approx(
            stats.loss_fraction, rel=0.05
        )

    def test_no_load_means_no_loss_entries(self):
        deployment, engine = build(single_class(1e9), selector=StaticSelector(0))
        engine.start()
        deployment.sim.run(until=deployment.sim.now + 1.0)
        # NTT at rho ~0.08: packets delivered, nothing lost.
        stats = deployment.gateway_ny.tracker.stats_for(0)
        assert stats.received > 0
        assert stats.presumed_lost == 0
        # Tunnels that never carried load have no ledger entries at all.
        assert deployment.gateway_ny.tracker.stats_for(GTT).received == 0


class TestDeterminism:
    def run_once(self):
        demand = single_class(offered_bps=9.6e9, seed=11)
        deployment, engine = build(demand, selector=StaticSelector(GTT))
        engine.start()
        deployment.sim.run(until=deployment.sim.now + 2.0)
        return engine

    def test_identical_traces_across_fresh_runs(self):
        a = self.run_once()
        b = self.run_once()
        assert a.steps == b.steps
        assert a.split_trace == b.split_trace
        assert a.concurrency_trace == b.concurrency_trace
        assert a.peak_concurrent_flows == b.peak_concurrent_flows
        assert {p: load.loss for p, load in a.last_loads.items()} == {
            p: load.loss for p, load in b.last_loads.items()
        }

    def test_step_validation(self):
        with pytest.raises(ValueError):
            build(single_class(), step_s=0.0)
