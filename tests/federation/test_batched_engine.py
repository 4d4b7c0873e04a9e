"""The federation's one array state against one scalar engine per direction.

``FederationRegistry.start_traffic`` puts every direction's tunnels on
one :class:`~repro.traffic.vector.FluidRows`: one step event, one array
pass, one batched write per member.  That is only admissible because it
is *byte-identical* to the layout it replaced — a scalar ``FluidEngine``
per direction, each on its own periodic task.  The replaced layout is
kept here (``scalar_traffic``) as the oracle: the same federation is
built twice and everything the run wrote is compared.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.controller import QuarantinePolicy
from repro.faults import FaultEvent, FaultInjector, FaultPlan
from repro.federation import FederationRegistry
from repro.federation.registry import PairView
from repro.netsim.delaymodels import BLOCK_STEPS, AsymmetryEvent, overlay
from repro.netsim.links import replace_models
import repro.traffic.vector as vector_module
from repro.scenarios.topologies import build_live_federation
from repro.traffic.demand import DemandModel, FlowClass, standard_flow_classes
from repro.traffic.vector import VectorFluidEngine
from tests.traffic.oracle import FluidEngine, assert_same_types


def demand_for(src, dst, seed, *, rate=200.0, surge=None, classes=None):
    """One 2 Mbps class at ``rate`` arrivals/s, or ``classes``."""
    demand = DemandModel(
        classes=classes
        or (
            FlowClass(
                name=f"{src}->{dst}",
                flow_label=1,
                arrival_rate_per_s=rate,
                mean_size_bytes=125_000,
                rate_bps=2e6,
            ),
        ),
        seed=seed,
    )
    if surge is not None:
        demand.add_surge(*surge)
    return demand


def scalar_traffic(registry, src, dst, demand):
    """The parent commit's ``start_traffic`` body at federation widths:
    one scalar engine per direction, stepping on its own task."""
    fluid = FluidEngine(
        PairView(registry, *registry._pair_key(src, dst)),
        src,
        demand,
        step_s=registry.report_interval_s,
    )
    fluid.start(at_equilibrium=True)
    return fluid


def batched_traffic(registry, src, dst, demand):
    return registry.start_traffic(src, dst, demand)


def run_federation(
    start_traffic,
    *,
    n=4,
    seed=42,
    demand_seed=7,
    stitch=True,
    outage_at=None,
    run_s=3.0,
    demands=None,
    directions=None,
    late=(),
    before_run=lambda registry, engines: None,
):
    """Build, drive and run one federation; returns ``(registry,
    {direction: engine})``.  ``demands`` overrides a direction's demand
    keyword arguments (see :func:`demand_for`); ``late`` directions start
    at the tenth step instant instead of before the run."""
    scenario = build_live_federation(n, seed=seed)
    registry = FederationRegistry(scenario)
    registry.establish()
    degraded = scenario.degraded_pair
    relay = registry.stitch_pair(*degraded).plan.relay if stitch else None
    registry.start_telemetry()
    registry.start_control_plane(
        focus=[degraded],
        staleness_s=0.5,
        quarantine=QuarantinePolicy(unhealthy_ticks=1, probation_delay_s=1.0),
    )
    names = scenario.member_names
    if directions is None:
        directions = [(s, d) for s in names for d in names if s != d]
    engines = {}

    def start(index, src, dst):
        kwargs = (demands or {}).get((src, dst), {})
        engines[(src, dst)] = start_traffic(
            registry, src, dst, demand_for(src, dst, demand_seed + index, **kwargs)
        )

    for index, (src, dst) in enumerate(directions):
        if (src, dst) not in late:
            start(index, src, dst)
    if late:
        sim, step_s = registry.sim, registry.report_interval_s
        rounds = []

        def join():
            rounds.append(sim.now)
            if len(rounds) == 10:
                joiner.stop()
                for index, (src, dst) in enumerate(directions):
                    if (src, dst) in late:
                        start(index, src, dst)

        # On the steps' grid and armed after their first event, so at
        # every instant it fires after the early directions' step and
        # before the wheels' round: where a late direction's first step
        # lands in both layouts.
        joiner = sim.call_every(step_s, join, start=sim.now + step_s)
    if outage_at is not None:
        plan = FaultPlan(
            name="batched-vs-scalar",
            seed=seed,
            events=(
                FaultEvent(
                    "relay_outage",
                    at=outage_at,
                    duration=1.0,
                    params={"member": relay or names[-1]},
                ),
            ),
        )
        FaultInjector(registry, plan).arm()
    before_run(registry, engines)
    registry.sim.run(until=run_s)
    return registry, engines


def series_bytes(store):
    return [
        (pid, series.times.tobytes(), series.values.tobytes())
        for pid, series in store.items()
    ]


def assert_same_run(scalar, batched):
    """Everything the two runs wrote, compared exactly."""
    (reg_s, engines_s), (reg_b, engines_b) = scalar, batched
    for name, gw_s in reg_s.gateways.items():
        gw_b = reg_b.gateways[name]
        # Lists, not dicts: series *creation order* is part of the bytes
        # a digest over ``store.items()`` sees.
        assert series_bytes(gw_s.inbound) == series_bytes(gw_b.inbound)
        assert series_bytes(gw_s.outbound) == series_bytes(gw_b.outbound)
        assert list(gw_s.tracker.all_paths().items()) == list(
            gw_b.tracker.all_paths().items()
        )
        loss_s, loss_b = gw_s.loss_monitor.series, gw_b.loss_monitor.series
        assert sorted(loss_s) == sorted(loss_b)
        for pid, series in loss_s.items():
            assert series.times.tobytes() == loss_b[pid].times.tobytes()
            assert series.values.tobytes() == loss_b[pid].values.tobytes()
        assert (
            reg_s.controllers[name].quarantine_log
            == reg_b.controllers[name].quarantine_log
        )
    assert list(engines_s) == list(engines_b)
    for direction, fluid_s in engines_s.items():
        fluid_b = engines_b[direction]
        assert type(fluid_s) is FluidEngine and type(fluid_b) is VectorFluidEngine
        assert fluid_s.steps == fluid_b.steps > 0
        assert fluid_s.peak_concurrent_flows == fluid_b.peak_concurrent_flows
        assert fluid_s.splits_recomputed == fluid_b.splits_recomputed
        assert fluid_s.split_trace == fluid_b.split_trace
        assert fluid_s.concurrency_trace == fluid_b.concurrency_trace
        assert fluid_s.last_loads == fluid_b.last_loads
    assert_same_types(fluid_s, fluid_b)


def both(**kwargs):
    return (
        run_federation(scalar_traffic, **kwargs),
        run_federation(batched_traffic, **kwargs),
    )


class TestAgainstOneScalarEnginePerDirection:
    @given(
        n=st.sampled_from([3, 4, 5]),
        seed=st.integers(min_value=0, max_value=2**20),
        demand_seed=st.integers(min_value=0, max_value=2**30),
        # On a grid instant, just off one, and anywhere.
        outage_at=st.one_of(
            st.sampled_from([0.5, 1.0, 1.2, 1.2000001, 0.0999]),
            st.floats(min_value=0.05, max_value=1.9),
        ),
    )
    @settings(max_examples=12, deadline=None)
    def test_all_directions_with_relay_outage(self, n, seed, demand_seed, outage_at):
        scalar, batched = both(
            n=n, seed=seed, demand_seed=demand_seed, outage_at=outage_at
        )
        assert_same_run(scalar, batched)
        registry = batched[0]
        assert len(registry.traffic.directions) == n * (n - 1)
        # The outage was felt: some tunnel was quarantined.
        assert any(c.quarantine_log for c in registry.controllers.values())

    def test_stitched_direction_rides_the_scalar_fallback(self):
        scalar, batched = both(outage_at=1.0)
        assert_same_run(scalar, batched)
        registry, engines = batched
        src, dst = registry.scenario.degraded_pair
        stitched = registry.stitches[(src, dst)].tunnel
        fluid = engines[(src, dst)]
        assert stitched.path_id in fluid.last_loads
        rows = registry.traffic
        row = rows._pids.index(stitched.path_id)
        scalar_rows, jitter_rows, _ = rows._delay_plan
        # Its composed delay is no plain jitter model: that row, and only
        # that row, is evaluated through ``delay_at``.
        assert scalar_rows == [row]
        assert len(jitter_rows) == len(rows._pids) - 1

    def test_delay_spike_leaves_the_array_draw_and_returns(self):
        seen = {}

        def arm(registry, engines):
            src, dst = registry.scenario.member_names[2:4]
            tunnel = registry.direction_tunnels(src, dst)[0]
            link = registry.wan_link(src, dst, tunnel.short_label)
            plain = link.delay
            spiked = overlay(
                plain, AsymmetryEvent(start=1.0, duration=0.5, shift=0.02)
            )
            sim = registry.sim

            def scalar_rows():
                plan = registry.traffic._delay_plan
                return None if plan is None else list(plan[0])

            # Swap mid-interval; observe just after the next steps ran.
            sim.schedule_at(0.95, lambda: replace_models(link, delay=spiked))
            sim.schedule_at(1.05, lambda: seen.update(during=scalar_rows()))
            sim.schedule_at(1.65, lambda: replace_models(link, delay=plain))
            sim.schedule_at(1.75, lambda: seen.update(after=scalar_rows()))
            seen["pid"] = tunnel.path_id

        scalar, batched = both(stitch=False, before_run=arm)
        assert_same_run(scalar, batched)
        registry = batched[0]
        row = registry.traffic._pids.index(seen["pid"])
        assert seen["during"] == [row]
        assert seen["after"] == []
        # The spike is in what the receiver measured.
        dst = registry.scenario.member_names[3]
        values = registry.gateways[dst].inbound.series(seen["pid"]).values
        assert values.max() - values.min() > 0.015

    def test_surge_window_and_idle_direction(self):
        demands = {
            ("edge2", "edge3"): {"surge": (1.0, 2.0, 400.0)},
            ("edge3", "edge0"): {"rate": 0.0},
        }
        scalar, batched = both(demands=demands, outage_at=1.5)
        assert_same_run(scalar, batched)
        registry, engines = batched
        surged = engines[("edge2", "edge3")]
        assert max(load.utilization for load in surged.last_loads.values()) > 0
        assert surged.peak_concurrent_flows > 0
        ledger = registry.gateways["edge2"].tracker
        assert any(
            ledger.stats_for(t.path_id).presumed_lost for t in surged.tunnels
        ), "the surge never overloaded its direction"
        idle = engines[("edge3", "edge0")]
        assert idle.peak_concurrent_flows == 0.0
        assert all(split == {pid: 0.0 for pid in split} for _, split in idle.split_trace)
        # An idle direction still measures its paths.
        assert all(
            len(registry.gateways["edge0"].inbound.series(t.path_id)) == idle.steps
            for t in idle.tunnels
        )

    def test_directions_added_out_of_member_order(self):
        # Receivers' and senders' rows interleave: the gathered write
        # order is a real permutation, not the identity.
        directions = [
            ("edge2", "edge0"),
            ("edge0", "edge1"),
            ("edge3", "edge0"),
            ("edge0", "edge2"),
            ("edge1", "edge0"),
        ]
        scalar, batched = both(directions=directions, outage_at=1.0)
        assert_same_run(scalar, batched)
        recv_order, _, send_order, _ = batched[0].traffic._writes
        assert recv_order is not None and send_order is not None


def mixed(seed):
    """Three classes (web and video on day curves) beside the 1-class
    directions, at a load the federation's paths carry."""
    return {"classes": standard_flow_classes(20_000.0, seed=seed)}


def edges(n):
    return [f"edge{i}" for i in range(n)]


class TestDemandSideAgainstOneScalarEnginePerDirection:
    """The bucket pass — rates, arrivals with block-drawn noise, day
    curves, surges, concurrency, traces — against the scalar per-class
    loop, on every path through it."""

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_mixed_class_counts_with_day_curves(self, n):
        names = edges(n)
        demands = {(names[0], names[1]): mixed(3), (names[-1], names[0]): mixed(4)}
        scalar, batched = both(n=n, demands=demands, outage_at=1.0)
        assert_same_run(scalar, batched)
        rows = batched[0].traffic
        assert len(rows._buckets) == n * (n - 1) + 2 * 2
        assert [cls.name for _, cls in rows._diurnal] == ["web", "video"] * 2
        assert batched[1][(names[0], names[1])].peak_concurrent_flows > 19_000

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_surges_added_mid_run(self, n):
        names = edges(n)
        overloaded, one_class = (names[0], names[1]), (names[1], names[2])

        def surge(registry, engines):
            sim = registry.sim
            first = engines[overloaded].demand
            second = engines[one_class].demand
            # A window ahead of the step that adds it, and one already open.
            sim.schedule_at(0.75, lambda: first.add_surge(1.0, 2.0, 300.0))
            sim.schedule_at(
                1.33, lambda: second.add_surge(0.0, 2.5, 3.0, flow_label=2)
            )

        scalar, batched = both(
            n=n, demands={one_class: mixed(5)}, before_run=surge, outage_at=1.5
        )
        assert_same_run(scalar, batched)
        registry, engines = batched
        ledger = registry.gateways[overloaded[0]].tracker
        assert any(
            ledger.stats_for(t.path_id).presumed_lost
            for t in engines[overloaded].tunnels
        ), "the surge never overloaded its direction"

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_directions_joining_late(self, n):
        names = edges(n)
        late = [(names[1], names[0]), (names[-1], names[1])]
        scalar, batched = both(
            n=n, late=late, demands={late[0]: mixed(6)}, outage_at=1.5
        )
        assert_same_run(scalar, batched)
        engines = batched[1]
        early = engines[(names[0], names[1])]
        assert [engines[d].steps for d in late] == [early.steps - 10] * 2
        assert list(engines)[-2:] == late

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_restart_off_the_grid_redraws_the_noise(self, n, monkeypatch):
        draws = []

        def counted(hashed_streams, times):
            draws.append(len(times))
            return normal_grid(hashed_streams, times)

        normal_grid = vector_module.normal_grid
        monkeypatch.setattr(vector_module, "normal_grid", counted)

        def pause(registry, engines):
            def stop():
                for engine in engines.values():
                    engine.stop()

            def restart():
                for engine in engines.values():
                    engine.start(at_equilibrium=False)

            registry.sim.schedule_at(1.234, stop)
            registry.sim.schedule_at(1.5678, restart)

        names = edges(n)
        scalar, batched = both(
            n=n, demands={(names[2], names[0]): mixed(7)}, before_run=pause
        )
        assert_same_run(scalar, batched)
        # One block at the first step, one when the step after the
        # restart missed the predicted midpoint; every other step hit.
        assert draws == [BLOCK_STEPS] * 2
        times = [t for t, _ in batched[1][(names[0], names[1])].split_trace]
        assert times[11] < 1.234 < 1.5678 < times[12]


class TestDirectionLifecycle:
    def build(self):
        scenario = build_live_federation(4, seed=42)
        registry = FederationRegistry(scenario)
        registry.establish()
        return registry

    def test_second_start_on_one_direction_rejected(self):
        registry = self.build()
        first = registry.start_traffic("edge0", "edge1")
        with pytest.raises(ValueError, match="edge0->edge1 already carries traffic"):
            registry.start_traffic("edge0", "edge1")
        assert registry.engines[("edge0", "edge1")] is first
        registry.sim.run(until=1.0)
        # One sample per tunnel per step, not two.
        tunnel = first.tunnels[0]
        assert len(registry.gateways["edge1"].inbound.series(tunnel.path_id)) == 10

    def test_stitch_after_traffic_rejected(self):
        registry = self.build()
        registry.start_traffic("edge0", "edge1")
        with pytest.raises(RuntimeError, match="stitch before starting traffic"):
            registry.stitch_pair("edge0", "edge1")
        assert ("edge0", "edge1") not in registry.stitches

    def test_late_direction_joins_only_at_a_step_instant(self):
        registry = self.build()
        early = registry.start_traffic("edge0", "edge1")
        registry.sim.run(until=0.95)
        with pytest.raises(RuntimeError, match="only at one of their step instants"):
            registry.start_traffic("edge1", "edge0")
        assert ("edge1", "edge0") not in registry.engines
        assert len(registry.traffic.directions) == 1
        registry.sim.run(until=1.0)
        late = registry.start_traffic("edge1", "edge0")
        assert late.last_loads == {}
        registry.sim.run(until=2.05)
        assert (early.steps, late.steps) == (20, 10)
        # The late direction's first step covered one whole dt.
        times = registry.gateways["edge0"].inbound.series(
            late.tunnels[0].path_id
        ).times
        assert times[0] == pytest.approx(1.1) and len(times) == 10
        assert late.last_loads and early.last_loads

    def test_an_event_before_the_step_of_its_instant_cannot_join(self):
        registry = self.build()
        registry.start_traffic("edge0", "edge1")
        errors = []

        def join():
            try:
                registry.start_traffic("edge1", "edge0")
            except RuntimeError as error:
                errors.append(error)

        # Scheduled before the run, so it fires ahead of the step event
        # re-armed for the same instant: the step has not run yet.
        registry.sim.schedule_at(registry.sim.now + 0.5, join)
        registry.sim.run(until=1.0)
        assert len(errors) == 1

    def test_mismatched_step_rejected(self):
        registry = self.build()
        view = PairView(registry, "edge0", "edge1")
        with pytest.raises(ValueError, match="cannot join"):
            VectorFluidEngine(view, "edge0", demand_for("a", "b", 1), step_s=0.05)
        assert registry.traffic.directions == []


class TestStop:
    def test_stop_leaves_nothing_ticking(self):
        registry, _ = run_federation(batched_traffic, outage_at=5.0, run_s=1.0)
        sim = registry.sim
        registry.stop()
        # Only the un-fired fault events (mark down, clear down) remain.
        assert sim.live_pending == 2
        counts = (
            registry.scheduler.callbacks_run,
            registry.telemetry_scheduler.callbacks_run,
            [e.steps for e in registry.engines.values()],
        )
        sim.run()  # returns: nothing periodic is left
        assert sim.live_pending == 0
        assert counts == (
            registry.scheduler.callbacks_run,
            registry.telemetry_scheduler.callbacks_run,
            [e.steps for e in registry.engines.values()],
        )
        registry.stop()  # idempotent

    def test_stop_before_anything_started(self):
        registry = FederationRegistry(build_live_federation(3, seed=1))
        registry.establish()
        registry.stop()
        registry.stop()
        assert registry.sim.live_pending == 0
