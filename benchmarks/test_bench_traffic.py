"""E16 + E19 — the fluid traffic engine and the tick wheel.

Each gate builds its scenario from the library, times it here, and
prints its rows (see EXPERIMENTS.md E16/E19).  FAILS if

* (E16) the fluid engine does not carry >=1,000,000 concurrent modeled
  flows on the Vultr scenario through a 2.5x mid-run surge in under
  10 s wall-clock — or if any deterministic output of that run (peak
  flows, steps, controller ticks, split rebuilds, the dominant-path
  shift) moves from its pinned value, or
* (E16) the fluid model's mean delay deviates from the packet simulator
  by more than 10% (or loss by more than 2 pp) at any point of the
  equivalence sweep, or
* (E19) 1000 controllers on one shared tick wheel blow the 100 ms
  per-round wall budget.

Bit-equivalence of the array kernel with the scalar oracle at 256
tunnels and the wheel's one-heap-event / tick-parity properties at 1000
controllers are exact, so they are tier-1 tests
(``tests/traffic/test_vector.py``, ``tests/netsim/test_ticks.py``), not
benchmarks.  Wall-clock trajectories are ``python -m bench run``
(``fluid_many_tunnels`` is the 256-tunnel array kernel, gated on every
PR).

Environment:

* ``BENCH_SMOKE=1`` — CI mode: a shorter packet comparison run and tick
  farm.  The scale run has no smoke size (it takes 0.2 s).
"""

import os
import time

from conftest import emit

from repro.analysis.report import format_table
from repro.core.controller import QuarantinePolicy
from repro.scenarios.vultr import VultrDeployment
from repro.traffic.demand import DemandModel, standard_flow_classes
from repro.traffic.equivalence import run_equivalence
from repro.traffic.splitting import LoadAwareWeights, WeightedSplitSelector
from repro.traffic.vector import VectorFluidEngine
from tests.traffic.standin import controller_farm

SMOKE = os.environ.get("BENCH_SMOKE", "") == "1"

#: E16 scale: at least this many concurrent modeled flows...
SCALE_TARGET_FLOWS = 1_000_000
#: ...simulated end to end in under this much wall-clock time.
SCALE_MAX_WALL_S = 10.0
#: E16 equivalence: per-point mean-delay relative tolerance and loss
#: tolerance in percentage points.
EQUIV_DELAY_TOL = 0.10
EQUIV_LOSS_TOL_PP = 2.0
#: E19 ticks: this many controllers on one shared wheel, each round
#: completing within this wall budget (one control interval).
TICK_CONTROLLERS = 1000
TICK_BUDGET_S = 0.1


def run_scale():
    """Vultr NY→LA seeded ~5% above the target (Little's-law
    equilibrium), split by load-aware weights under a quarantine-enabled
    controller, surged 2.5x over the middle third of 60 sim-s."""
    duration_s, step_s = 60.0, 0.1
    deployment = VultrDeployment(include_events=False)
    deployment.establish()
    sim = deployment.sim
    gateway = deployment.gateway_ny
    demand = DemandModel(
        classes=standard_flow_classes(SCALE_TARGET_FLOWS * 1.05), seed=42
    )
    fluid = VectorFluidEngine(deployment, "ny", demand, step_s=step_s)
    selector = WeightedSplitSelector(
        LoadAwareWeights(
            gateway.outbound, window_s=1.0, utilization=fluid.utilization
        ),
        seed=9,
    )
    controller = deployment.start_controller(
        "ny", selector, interval_s=0.1, quarantine=QuarantinePolicy()
    )

    start = sim.now
    surge_at = start + duration_s / 3.0
    surge_end = start + 2.0 * duration_s / 3.0
    demand.add_surge(surge_at, surge_end, 2.5)
    # Seeded at Little's-law equilibrium: the target holds from the first
    # step, not only at the surge peak.
    assert demand.total_equilibrium_flows(start) >= SCALE_TARGET_FLOWS
    fluid.start()
    wall_start = time.perf_counter()
    sim.run(until=start + duration_s)
    wall_s = time.perf_counter() - wall_start
    fluid.stop()
    controller.stop()
    pre = fluid.dominant_path(at=surge_at - step_s)
    during = fluid.dominant_path(at=surge_end - step_s)
    return fluid, controller, (pre, during), wall_s


def test_e16_scale(benchmark):
    fluid, controller, dominant, wall_s = benchmark.pedantic(
        run_scale, rounds=1, iterations=1
    )
    emit(
        f"E16 scale ({type(fluid).__name__}): "
        f"{fluid.peak_concurrent_flows:,.0f} peak flows, 60s simulated in "
        f"{wall_s:.2f}s wall ({60.0 / wall_s:.0f}x real time), dominant "
        f"path {dominant[0]} -> {dominant[1]} under the surge"
    )
    assert fluid.peak_concurrent_flows >= SCALE_TARGET_FLOWS
    assert wall_s < SCALE_MAX_WALL_S, (
        f"scale workload took {wall_s:.2f}s wall (gate: {SCALE_MAX_WALL_S:.0f}s)"
    )
    # Deterministic for the fixed seeds, so pinned exactly.
    assert round(fluid.peak_concurrent_flows, 2) == 1_189_500.86
    assert fluid.steps == 599
    assert controller.ticks == 600
    assert fluid.splits_recomputed == 645
    assert dominant == (2, 0)


def test_e16_fluid_vs_packet_equivalence(benchmark):
    points = benchmark.pedantic(
        run_equivalence,
        kwargs={"packets": 10_000 if SMOKE else 40_000},
        rounds=1,
        iterations=1,
    )
    emit(
        format_table(
            [
                {
                    "rho": f"{p.rho:.2f}",
                    "packet ms": f"{p.packet_delay_s * 1e3:.2f}",
                    "fluid ms": f"{p.fluid_delay_s * 1e3:.2f}",
                    "delay err": f"{p.delay_rel_error:.3%}",
                    "pkt loss": f"{p.packet_loss:.4f}",
                    "fluid loss": f"{p.fluid_loss:.4f}",
                    "loss pp": f"{p.loss_error_pp:.2f}",
                }
                for p in points
            ],
            title="E16 fluid vs packet",
        )
    )
    for p in points:
        assert p.delay_rel_error <= EQUIV_DELAY_TOL, (
            f"rho={p.rho}: delay error {p.delay_rel_error:.1%} "
            f"exceeds {EQUIV_DELAY_TOL:.0%}"
        )
        assert p.loss_error_pp <= EQUIV_LOSS_TOL_PP, (
            f"rho={p.rho}: loss error {p.loss_error_pp:.2f}pp "
            f"exceeds {EQUIV_LOSS_TOL_PP:.0f}pp"
        )


def run_farm(duration_s):
    """``TICK_CONTROLLERS`` report-only controllers on one shared wheel."""
    sim, scheduler, _ = controller_farm(TICK_CONTROLLERS, shared=True)
    wall_start = time.perf_counter()
    sim.run(until=duration_s)
    wall_s = time.perf_counter() - wall_start
    return scheduler, wall_s


def test_e19_tick_wheel_round_budget(benchmark):
    scheduler, wall_s = benchmark.pedantic(
        run_farm, args=(2.0 if SMOKE else 10.0,), rounds=1, iterations=1
    )
    per_round_s = wall_s / scheduler.rounds
    emit(
        f"E19 ticks: {TICK_CONTROLLERS} controllers, {scheduler.rounds} "
        f"rounds at {per_round_s * 1e3:.2f}ms/round "
        f"(budget {TICK_BUDGET_S * 1e3:.0f}ms)"
    )
    assert scheduler.callbacks_run == TICK_CONTROLLERS * scheduler.rounds
    assert per_round_s <= TICK_BUDGET_S
