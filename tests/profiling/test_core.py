"""Tests for the profiling subsystem (timers, counters, report shape)."""

import json
import time

from repro.bgp.network import BgpNetwork
from repro.bgp.router import BgpRouter
from repro.netsim.events import Simulator
from repro.netsim.ticks import TickScheduler
from repro.profiling.core import Profiler, TimerStat
from repro.telemetry.store import TimeSeries


def fake_clock(ticks):
    """Deterministic clock: pops the next reading from a list."""
    readings = iter(ticks)
    return lambda: next(readings)


class TestTimerStat:
    def test_accumulates_calls_total_and_max(self):
        stat = TimerStat()
        stat.add(0.5)
        stat.add(1.5)
        stat.add(0.25)
        assert stat.calls == 3
        assert stat.total_s == 2.25
        assert stat.max_s == 1.5

    def test_as_dict_is_json_ready(self):
        stat = TimerStat()
        stat.add(0.125)
        assert json.dumps(stat.as_dict())


class TestProfiler:
    def test_time_context_uses_injected_clock(self):
        prof = Profiler(clock=fake_clock([10.0, 12.5]))
        with prof.time("work"):
            pass
        assert prof.timers["work"].calls == 1
        assert prof.timers["work"].total_s == 2.5

    def test_nested_and_repeated_timers_accumulate(self):
        prof = Profiler(clock=fake_clock([0.0, 1.0, 5.0, 7.0]))
        with prof.time("step"):
            pass
        with prof.time("step"):
            pass
        assert prof.timers["step"].calls == 2
        assert prof.timers["step"].total_s == 3.0
        assert prof.timers["step"].max_s == 2.0

    def test_counters(self):
        prof = Profiler()
        prof.count("ticks")
        prof.count("ticks", 4)
        prof.set_counter("queue.depth", 17)
        assert prof.counters["ticks"] == 5
        assert prof.counters["queue.depth"] == 17

    def test_capture_network_records_engine_counters(self):
        prof = Profiler()
        net = BgpNetwork()
        net.add_router(BgpRouter("a", 65001))
        net.add_router(BgpRouter("b", 65002))
        net.add_provider("a", "b")
        net.router("a").originate("2001:db8:1::/48")
        net.converge()
        prof.capture_network(net, prefix="bgp")
        assert prof.counters["bgp.convergences"] == 1
        assert prof.counters["bgp.updates_delivered"] >= 1
        assert prof.counters["bgp.decisions_run"] >= 1

    def test_capture_simulator_records_event_counters(self):
        prof = Profiler()
        sim = Simulator()
        sim.schedule_at(1.0, lambda: None)
        sim.run()
        prof.capture_simulator(sim, prefix="sim")
        assert prof.counters["sim.events_processed"] == 1

    def test_as_dict_and_json_round_trip(self):
        prof = Profiler(clock=fake_clock([0.0, 1.0]))
        with prof.time("t"):
            pass
        prof.count("c", 3)
        payload = json.loads(prof.to_json())
        assert payload["counters"]["c"] == 3
        assert payload["timers"]["t"]["calls"] == 1

    def test_format_table_mentions_every_metric(self):
        prof = Profiler(clock=fake_clock([0.0, 0.5]))
        with prof.time("alpha"):
            pass
        prof.count("beta", 2)
        table = prof.format_table()
        assert "alpha" in table
        assert "beta" in table


class TestNetworkProfilerHook:
    def test_converge_is_timed_when_profiler_attached(self):
        prof = Profiler()
        net = BgpNetwork()
        net.add_router(BgpRouter("a", 65001))
        net.add_router(BgpRouter("b", 65002))
        net.add_provider("a", "b")
        net.profiler = prof
        net.router("a").originate("2001:db8:1::/48")
        net.converge()
        assert prof.timers["bgp.converge.incremental"].calls == 1

    def test_simulator_run_is_timed_when_profiler_attached(self):
        prof = Profiler()
        sim = Simulator()
        sim.profiler = prof
        sim.schedule_at(1.0, lambda: None)
        sim.run()
        assert prof.timers["sim.run"].calls == 1


def run_fluid(profiled):
    """A short Vultr fluid run, with or without a profiler attached."""
    from repro.scenarios.vultr import VultrDeployment
    from repro.traffic.demand import DemandModel, standard_flow_classes
    from repro.traffic.vector import VectorFluidEngine

    deployment = VultrDeployment(include_events=False)
    deployment.establish()
    demand = DemandModel(classes=standard_flow_classes(10_000.0), seed=3)
    fluid = VectorFluidEngine(deployment, "ny", demand)
    prof = Profiler() if profiled else None
    fluid.profiler = prof
    fluid.start()
    deployment.sim.run(until=deployment.sim.now + 1.0)
    return fluid, prof


class TestTrafficCapture:
    def test_fluid_step_counters_when_profiler_attached(self):
        fluid, prof = run_fluid(profiled=True)
        assert prof.counters["fluid.steps"] == fluid.steps
        buckets = len(fluid.demand.classes) * len(fluid.tunnels)
        assert prof.counters["fluid.bucket_updates"] == fluid.steps * buckets

    def test_fluid_step_unprofiled_records_nothing(self):
        # The guarded fast path: no profiler, no counter machinery —
        # the engine only keeps its own cheap integers.
        fluid, prof = run_fluid(profiled=False)
        assert prof is None
        assert fluid.steps > 0
        assert fluid.splits_recomputed >= 1

    def test_capture_traffic_engine(self):
        fluid, _ = run_fluid(profiled=False)
        prof = Profiler()
        prof.capture_traffic_engine(fluid, prefix="fluid.vector")
        assert prof.counters["fluid.vector.steps_total"] == fluid.steps
        assert prof.counters["fluid.vector.peak_concurrent_flows"] == int(
            fluid.peak_concurrent_flows
        )
        assert (
            prof.counters["fluid.vector.splits_recomputed"]
            == fluid.splits_recomputed
        )

    def test_split_cache_rebuilds_rarely(self):
        # The resolver cache is the observable: resolutions happen per
        # (class, step) but rebuilds only when the selector moves.
        fluid, _ = run_fluid(profiled=False)
        resolutions = fluid.steps * len(fluid.demand.classes)
        assert fluid.splits_recomputed < resolutions / 2

    def test_capture_scheduler(self):
        sim = Simulator()
        scheduler = TickScheduler(sim, 0.1)
        scheduler.register(lambda now: None)
        scheduler.register(lambda now: None, every=2)
        sim.run(until=1.0)
        prof = Profiler()
        prof.capture_scheduler(scheduler, prefix="ticks")
        assert prof.counters["ticks.rounds"] == scheduler.rounds
        assert prof.counters["ticks.callbacks_run"] == scheduler.callbacks_run
        assert prof.counters["ticks.registered"] == 2

    def test_scheduler_counts_rounds_with_work(self):
        sim = Simulator()
        scheduler = TickScheduler(sim, 0.1)
        prof = Profiler()
        scheduler.profiler = prof
        scheduler.register(lambda now: None, every=5)
        sim.run(until=1.0)
        # 11 rounds fired but only ceil(11/5) had work in the bucket.
        assert prof.counters["ticks.rounds_with_work"] == 3
        assert prof.counters["ticks.callbacks"] == 3


class TestAppendMicroBench:
    def test_append_is_amortized_constant(self):
        # Doubling the appends must roughly double the wall time, never
        # square it (a realloc-per-append regression is ~50x here).
        def fill(n):
            series = TimeSeries()
            start = time.perf_counter()
            for i in range(n):
                series.append(float(i), 1.0)
            return time.perf_counter() - start, series

        fill(10_000)  # warm up
        small_s, _ = fill(50_000)
        big_s, big = fill(200_000)
        assert big.grows <= 10
        assert big_s < small_s * 16, (
            f"append no longer amortized O(1): {small_s:.4f}s for 50k vs "
            f"{big_s:.4f}s for 200k"
        )


class TestBenchReportShape:
    def test_workload_speedup_math(self):
        from repro.profiling.bench import WorkloadResult

        wl = WorkloadResult(name="x", baseline_s=3.0, incremental_s=1.0)
        assert wl.speedup == 3.0
        degenerate = WorkloadResult(name="y", baseline_s=1.0, incremental_s=0.0)
        assert degenerate.speedup == float("inf")

    def test_report_schema_fields(self):
        from repro.profiling.bench import (
            DISCOVERY_MIN_SPEEDUP,
            PerfReport,
            WorkloadResult,
        )

        report = PerfReport(
            scenario="vultr",
            smoke=True,
            workloads={
                "discovery": WorkloadResult(
                    name="discovery", baseline_s=0.4, incremental_s=0.1
                )
            },
            profile={"counters": {}, "timers": {}},
        )
        payload = json.loads(report.to_json())
        assert payload["schema"] == "tango-repro/bench-perf/v1"
        assert payload["thresholds"]["discovery_min_speedup"] == DISCOVERY_MIN_SPEEDUP
        assert payload["workloads"]["discovery"]["speedup"] == 4.0

    def test_bench_fault_plan_targets_exist_in_vultr(self):
        from repro.lint.plans import check_fault_plan, vultr_spec
        from repro.profiling.bench import bench_fault_plan

        assert check_fault_plan(bench_fault_plan(), vultr_spec()) == []
