"""The array fluid kernel: seeded bit-equivalence with the scalar oracle.

The array kernel is only admissible because it is *bit-identical* to
the scalar closed forms, not merely close: every per-step state vector
matches to the last ulp, the telemetry ledgers are byte-for-byte equal,
and selectors fed by both make identical reroute decisions.  These
tests pin that contract against ``tests/traffic/oracle.py`` on the
shipped Vultr scenario, including mid-run surges, blackholed links
(model objects swapped underneath the engine, the fault injector's
move), and at tunnel counts from 1 to 256.

``golden/scalar_kernel.json`` is what the scalar kernel wrote while it
was still the product's ``FluidEngine`` (captured at ``0605e10``); the
oracle and the product kernel are each held to it, so the two cannot
drift together.  Regenerate (only when a change is *meant* to alter
what the fluid engine writes)::

    PYTHONPATH=src:. python tests/traffic/test_vector.py
"""

import hashlib
import math
from functools import partial
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from repro.netsim.delaymodels import GaussianJitterDelay
from repro.netsim.events import Simulator
from repro.netsim.links import ConstantLoss, replace_models
from repro.scenarios.vultr import VultrDeployment
from repro.traffic.demand import DemandModel, standard_flow_classes
from repro.traffic.splitting import LoadAwareWeights, WeightedSplitSelector
from repro.traffic.vector import VectorFluidEngine
from tests import golden
from tests.traffic.oracle import FluidEngine, assert_same_types
from tests.traffic.standin import SyntheticDeployment

GOLDEN = Path(__file__).parent / "golden" / "scalar_kernel.json"
KERNELS = [FluidEngine, VectorFluidEngine]
GTT = 2
LOAD_FIELDS = ("offered_bps", "utilization", "backlog_bits", "delay_s", "loss")


def build(engine_cls, *, flows=50_000.0, surge=True, selector_seed=9, **kwargs):
    """One seeded Vultr deployment driving the requested kernel."""
    deployment = VultrDeployment(include_events=False)
    deployment.establish()
    demand = DemandModel(classes=standard_flow_classes(flows), seed=42)
    if surge:
        demand.add_surge(5.0, 10.0, 2.5)
    fluid = engine_cls(deployment, "ny", demand, **kwargs)
    selector = WeightedSplitSelector(
        LoadAwareWeights(
            deployment.gateway_ny.outbound,
            window_s=1.0,
            utilization=fluid.utilization,
        ),
        seed=selector_seed,
    )
    deployment.set_data_policy("ny", selector)
    fluid.start()
    return deployment, fluid, selector


def standin(width):
    """``(deployment, demand)`` for a ``width``-tunnel stand-in pair:
    mixed constant/jittered delays, lossy odd tunnels, capacity sized so
    the surge overloads every tunnel (rho ~0.75 before, ~1.9 during)."""
    deployment = SyntheticDeployment(
        Simulator(), width, capacity_bps=0.9e9 / max(width, 1)
    )
    for tunnel in deployment.tunnels("a")[1::2]:
        link = deployment.wan_link("a", tunnel.short_label)
        replace_models(
            link,
            delay=GaussianJitterDelay(0.03, 2e-4, seed=tunnel.path_id),
            loss=ConstantLoss(0.01),
        )
    demand = DemandModel(classes=standard_flow_classes(50_000.0), seed=42)
    demand.add_surge(2.0, 4.0, 2.5)
    return deployment, demand


def build_standin(engine_cls, width):
    deployment, demand = standin(width)
    fluid = engine_cls(
        deployment, "a", demand, default_capacity_bps=deployment.capacity_bps
    )
    fluid.start()
    return deployment, fluid


def assert_lockstep(dep_s, fluid_s, dep_v, fluid_v, steps):
    """Step the two simulators alternately and compare the full load
    state after every engine step — any divergence is caught at the
    step it first appears, within 1e-9 and in fact exactly."""
    step = fluid_s.step_s
    for i in range(steps):
        until = (i + 1) * step + step / 2
        dep_s.sim.run(until=until)
        dep_v.sim.run(until=until)
        assert fluid_s.steps == fluid_v.steps
        loads_s, loads_v = fluid_s.last_loads, fluid_v.last_loads
        assert sorted(loads_s) == sorted(loads_v)
        for pid, load_s in loads_s.items():
            load_v = loads_v[pid]
            for field in LOAD_FIELDS:
                a = getattr(load_s, field)
                b = getattr(load_v, field)
                assert a == pytest.approx(b, abs=1e-9)
                assert a == b  # and in fact bit-identical


def assert_runs_identical(fluid_s, fluid_v):
    """Bit-equality of state, telemetry bytes, and loss ledgers."""
    assert fluid_s.steps == fluid_v.steps
    assert fluid_s.split_trace == fluid_v.split_trace
    assert fluid_s.concurrency_trace == fluid_v.concurrency_trace
    assert fluid_s.last_loads == fluid_v.last_loads
    assert_same_types(fluid_s, fluid_v)

    store_s = fluid_s.receiver.inbound
    store_v = fluid_v.receiver.inbound
    assert store_s.path_ids() == store_v.path_ids()
    for pid in store_s.path_ids():
        a, b = store_s.series(pid), store_v.series(pid)
        assert a.times.tobytes() == b.times.tobytes()
        assert a.values.tobytes() == b.values.tobytes()

    assert fluid_s.sender.tracker.all_paths() == fluid_v.sender.tracker.all_paths()


def surge_run(engine_cls):
    dep, fluid, _ = build(engine_cls)
    dep.sim.run(until=dep.sim.now + 12.0)
    return fluid


def blackhole_run(engine_cls):
    """A Vultr run whose GTT link is blackholed at t=2.5 by swapping its
    loss model *object*, the fault injector's move."""
    dep, fluid, _ = build(engine_cls, surge=False)
    link = dep.wan_link("ny", fluid.tunnels[GTT].short_label)
    dep.sim.schedule_at(2.5, lambda: replace_models(link, loss=ConstantLoss(1.0)))
    dep.sim.run(until=dep.sim.now + 6.0)
    return dep, fluid


class TestFactory:
    @pytest.mark.parametrize("engine_cls", KERNELS)
    def test_direction_without_tunnels_rejected(self, engine_cls):
        deployment, demand = standin(0)
        with pytest.raises(ValueError, match="no tunnels from 'a' to 'b'"):
            engine_cls(deployment, "a", demand)

    @pytest.mark.parametrize(
        ("field", "kwargs"),
        [
            ("buffer_delay_s", {"buffer_delay_s": math.nan}),
            ("buffer_delay_s", {"buffer_delay_s": -1.0}),
            ("buffer_delay_s", {"buffer_delay_s": math.inf}),
            ("default_capacity_bps", {"default_capacity_bps": -1.0}),
            ("default_capacity_bps", {"default_capacity_bps": math.nan}),
            ("default_capacity_bps", {"default_capacity_bps": 0.0}),
            ("packet_bytes", {"packet_bytes": 0}),
            ("packet_bytes", {"packet_bytes": -1500}),
            ("step_s", {"step_s": math.nan}),
            ("step_s", {"step_s": math.inf}),
            ("step_s", {"step_s": 0.0}),
        ],
    )
    def test_bad_number_rejected_naming_the_field(self, field, kwargs):
        deployment, demand = standin(2)
        with pytest.raises(ValueError, match=f"^{field} must be finite"):
            VectorFluidEngine(deployment, "a", demand, **kwargs)

    @pytest.mark.parametrize("capacity", [math.nan, math.inf, -1.0, 0.0])
    def test_bad_calibrated_capacity_rejected_naming_the_field(self, capacity):
        deployment, demand = standin(2)
        deployment.calibrations = {"a": {"p1": SimpleNamespace(capacity_bps=capacity)}}
        with pytest.raises(ValueError, match="^capacity_bps of a's p1 must be finite"):
            VectorFluidEngine(deployment, "a", demand)

    def test_calibration_without_capacity_takes_the_default(self):
        deployment, demand = standin(2)
        deployment.calibrations = {"a": {"p1": SimpleNamespace(capacity_bps=None)}}
        fluid = VectorFluidEngine(deployment, "a", demand, default_capacity_bps=3e9)
        assert fluid._rows._cap_vec.tolist() == [3e9, 3e9]


@pytest.mark.parametrize("engine_cls", KERNELS)
def test_start_is_exclusive_and_restartable(engine_cls):
    dep, fluid = build_standin(engine_cls, 2)
    with pytest.raises(RuntimeError, match="fluid engine already started"):
        fluid.start()
    dep.sim.run(until=1.05)
    fluid.stop()
    dep.sim.run(until=2.05)
    assert fluid.steps == 10  # no orphaned task steps on after stop()
    fluid.start()
    dep.sim.run(until=3.1)
    fluid.stop()
    dep.sim.run(until=4.0)
    assert fluid.steps == 20  # one task again after the restart


class TestBitEquivalence:
    def test_surge_run_is_bit_identical(self):
        fluid_s, fluid_v = map(surge_run, KERNELS)
        assert fluid_v.steps > 100
        assert_runs_identical(fluid_s, fluid_v)

    def test_lockstep_per_step_state(self):
        dep_s, fluid_s, _ = build(FluidEngine)
        dep_v, fluid_v, _ = build(VectorFluidEngine)
        assert_lockstep(dep_s, fluid_s, dep_v, fluid_v, steps=60)

    @pytest.mark.parametrize("width", [1, 2, 3, 4, 5, 6, 8, 256])
    def test_lockstep_on_both_sides_of_the_selection(self, width):
        # The widths on both sides of the retired kernel selection
        # (scalar below 6 tunnels); 256 is the E19 width.
        dep_s, fluid_s = build_standin(FluidEngine, width)
        dep_v, fluid_v = build_standin(VectorFluidEngine, width)
        assert_lockstep(dep_s, fluid_s, dep_v, fluid_v, steps=50)
        assert_runs_identical(fluid_s, fluid_v)
        # The surge really overloaded the (lossless) first tunnel.
        assert fluid_s.sender.tracker.stats_for(0).presumed_lost > 0

    def test_blackholed_link_swap_is_bit_identical(self):
        # The fault injector replaces link model *objects* mid-run; the
        # vector engine must notice the identity change and reproduce
        # the scalar blackhole path (no telemetry, full ledger loss).
        (dep_s, fluid_s), (dep_v, fluid_v) = map(blackhole_run, KERNELS)
        assert_runs_identical(fluid_s, fluid_v)
        # The blackholed path really stopped producing telemetry...
        gtt_pid = fluid_s.tunnels[GTT].path_id
        times = dep_v.gateway_la.inbound.series(gtt_pid).times
        assert times.size and float(times[-1]) < 2.7
        # ...and its ledger kept counting losses.
        assert dep_v.gateway_ny.tracker.stats_for(gtt_pid).presumed_lost > 0

    def test_reroute_decisions_identical_under_surge(self):
        # The E16 acceptance condition under the new engine: the
        # load-aware selector sees identical telemetry, so its split
        # history — the reroute decisions — must match exactly.
        dep_s, fluid_s, sel_s = build(FluidEngine, flows=100_000.0)
        dep_v, fluid_v, sel_v = build(VectorFluidEngine, flows=100_000.0)
        dep_s.sim.run(until=dep_s.sim.now + 12.0)
        dep_v.sim.run(until=dep_v.sim.now + 12.0)
        assert fluid_s.split_trace == fluid_v.split_trace
        assert sel_s.uniform_fallbacks == sel_v.uniform_fallbacks
        assert sel_s.split_counts == sel_v.split_counts
        # The surge actually moved traffic (the trace is non-trivial).
        splits = {
            max(split, key=split.get) for _, split in fluid_s.split_trace
        }
        assert splits


class TestVectorState:
    def test_last_loads_rebuilt_lazily(self):
        dep, fluid, _ = build(VectorFluidEngine, surge=False)
        dep.sim.run(until=dep.sim.now + 1.0)
        loads = fluid.last_loads
        assert loads and all(
            isinstance(v, type(next(iter(loads.values())))) for v in loads.values()
        )
        for load in loads.values():
            for field in ("offered_bps", "utilization", "delay_s", "loss"):
                assert isinstance(getattr(load, field), float)
        # Cached: same object until the next step invalidates it.
        assert fluid.last_loads is loads

    def test_split_cache_rebuilds_rarely(self):
        # The resolver cache is the observable: resolutions happen per
        # (class, step) but rebuilds only when the selector moves.
        deployment = VultrDeployment(include_events=False)
        deployment.establish()
        demand = DemandModel(classes=standard_flow_classes(10_000.0), seed=3)
        fluid = VectorFluidEngine(deployment, "ny", demand)
        fluid.start()
        deployment.sim.run(until=deployment.sim.now + 1.0)
        resolutions = fluid.steps * len(fluid.demand.classes)
        assert fluid.splits_recomputed < resolutions / 2

    def test_utilization_matches_scalar(self):
        dep_s, fluid_s, _ = build(FluidEngine, surge=False)
        dep_v, fluid_v, _ = build(VectorFluidEngine, surge=False)
        dep_s.sim.run(until=dep_s.sim.now + 2.0)
        dep_v.sim.run(until=dep_v.sim.now + 2.0)
        for tunnel in fluid_s.tunnels:
            assert fluid_s.utilization(tunnel.path_id) == fluid_v.utilization(
                tunnel.path_id
            )

    def test_state_vectors_are_float64(self):
        _, fluid, _ = build(VectorFluidEngine, surge=False)
        rows = fluid._rows
        assert rows._cap_vec.dtype == np.float64
        assert rows._backlog_vec.dtype == np.float64
        assert rows._service_vec.dtype == np.float64


def dump_run(fluid) -> str:
    """Everything one direction's run wrote, one line per series, ledger
    entry and step."""
    lines = [f"steps {fluid.steps}"]
    store = fluid.receiver.inbound
    for pid in store.path_ids():
        series = store.series(pid)
        raw = series.times.tobytes() + series.values.tobytes()
        lines.append(
            f"series {pid} n={len(series)} {hashlib.sha256(raw).hexdigest()}"
        )
    for pid, stats in sorted(fluid.sender.tracker.all_paths().items()):
        lines.append(f"ledger {pid} {stats!r}")
    for t, split in fluid.split_trace:
        lines.append(f"split {t!r} {sorted(split.items())!r}")
    return "\n".join(lines) + "\n"


def standin_run(engine_cls, width):
    dep, fluid = build_standin(engine_cls, width)
    dep.sim.run(until=5.05)
    return fluid


GOLDEN_RUNS = {
    "surge": surge_run,
    "blackhole_swap": lambda engine_cls: blackhole_run(engine_cls)[1],
    **{
        f"standin_{width}": partial(standin_run, width=width)
        for width in (1, 4, 6, 256)
    },
}


@pytest.mark.parametrize("engine_cls", KERNELS)
@pytest.mark.parametrize("name", sorted(GOLDEN_RUNS))
def test_kernel_reproduces_the_parents_scalar_kernel(name, engine_cls):
    text = dump_run(GOLDEN_RUNS[name](engine_cls))
    assert golden.digest(text) == golden.load(GOLDEN)[name]


if __name__ == "__main__":
    golden.regenerate(
        GOLDEN,
        {
            name: golden.digest(dump_run(run(FluidEngine)))
            for name, run in sorted(GOLDEN_RUNS.items())
        },
    )
