"""Standard perf workloads: the engine before/after measurements.

Three workloads over the shipped Vultr scenario, each run under the
full-scan baseline (``rounds`` engine, no snapshot cache — the pre-
incremental configuration) and the optimized configuration
(``incremental`` engine plus snapshot cache):

* **discovery** — both directions of the paper's Section 4.1 iterative
  suppression discovery, repeated as a periodic-rediscovery cycle.
* **reset_session** — repeated BGP session bounces of the Vultr-NY/NTT
  session with edge prefixes announced.
* **fault_replay_mttr** — a BGP-heavy chaos replay (session flaps and a
  prefix withdrawal under quarantine-enabled controllers and live
  probes), timing the armed simulation run.

Used by ``tango-repro profile`` and the CI perf gate
(``benchmarks/test_bench_engine_perf.py``); results are emitted as
``BENCH_PERF.json``.  Wall-clock is read through the profiler's
injectable clock, keeping simulation modules free of direct wall-clock
calls (TNG001).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Callable, Optional

from ..bgp.network import ENGINE_INCREMENTAL, ENGINE_ROUNDS, BgpNetwork
from ..bgp.snapshot import SnapshotCache
from ..core.discovery import PathDiscovery
from ..faults.injector import FaultInjector
from ..faults.plan import FaultEvent, FaultPlan
from ..faults.recovery import RecoveryLog
from .core import Profiler

__all__ = [
    "DISCOVERY_MIN_SPEEDUP",
    "WorkloadResult",
    "PerfReport",
    "bench_fault_plan",
    "run_discovery_workload",
    "run_reset_workload",
    "run_fault_replay_workload",
    "run_perf_suite",
]

#: The CI perf gate: incremental full-path discovery over the Vultr
#: topology must beat the full-scan baseline by at least this factor.
DISCOVERY_MIN_SPEEDUP = 3.0

#: The probe prefix the discovery workload announces (same as the CLI).
_PROBE_PREFIX = "2001:db8:fff::/48"


@dataclass
class WorkloadResult:
    """Before/after wall-clock for one workload."""

    name: str
    baseline_s: float
    incremental_s: float
    detail: dict[str, float] = field(default_factory=dict)

    @property
    def speedup(self) -> float:
        if self.incremental_s <= 0.0:
            return float("inf")
        return self.baseline_s / self.incremental_s

    def as_dict(self) -> dict[str, object]:
        return {
            "baseline_s": self.baseline_s,
            "incremental_s": self.incremental_s,
            "speedup": self.speedup,
            "detail": dict(sorted(self.detail.items())),
        }


@dataclass
class PerfReport:
    """Everything one perf-suite run measured."""

    scenario: str
    smoke: bool
    workloads: dict[str, WorkloadResult]
    profile: dict[str, object]

    def as_dict(self) -> dict[str, object]:
        return {
            "schema": "tango-repro/bench-perf/v1",
            "scenario": self.scenario,
            "smoke": self.smoke,
            "thresholds": {"discovery_min_speedup": DISCOVERY_MIN_SPEEDUP},
            "workloads": {
                name: wl.as_dict() for name, wl in sorted(self.workloads.items())
            },
            "profile": self.profile,
        }

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), indent=2, sort_keys=True) + "\n"


def _best_of(repeat: int, fn: Callable[[], None], clock: Callable[[], float]) -> float:
    """Minimum wall time over ``repeat`` runs (noise-robust)."""
    best: Optional[float] = None
    for _ in range(max(repeat, 1)):
        start = clock()
        fn()
        elapsed = clock() - start
        if best is None or elapsed < best:
            best = elapsed
    return float(best if best is not None else 0.0)


# -- discovery ---------------------------------------------------------------


def _discovery_pass(
    engine: str,
    cached: bool,
    runs: int,
    profiler: Optional[Profiler] = None,
) -> BgpNetwork:
    """One rediscovery cycle: both directions, ``runs`` times over."""
    from ..scenarios.vultr import VULTR_ASN, build_bgp_network

    bgp = build_bgp_network()
    bgp.use_engine(engine)
    bgp.profiler = profiler
    snapshots = SnapshotCache() if cached else None
    discovery = PathDiscovery(bgp, VULTR_ASN, snapshots=snapshots)
    discovery.profiler = profiler
    for _ in range(runs):
        for announcer, observer in (
            ("tango-ny", "tango-la"),
            ("tango-la", "tango-ny"),
        ):
            discovery.discover(
                announcer=announcer,
                observer=observer,
                probe_prefix=_PROBE_PREFIX,
            )
    return bgp


def run_discovery_workload(
    repeat: int = 3, runs: int = 3, profiler: Optional[Profiler] = None
) -> WorkloadResult:
    """Full-path discovery over the Vultr topology, both engines."""
    prof = profiler if profiler is not None else Profiler()
    clock = prof.clock
    baseline_s = _best_of(
        repeat, lambda: _discovery_pass(ENGINE_ROUNDS, False, runs), clock
    )
    incremental_s = _best_of(
        repeat, lambda: _discovery_pass(ENGINE_INCREMENTAL, True, runs), clock
    )
    # One instrumented pass so the report carries engine counters.
    instrumented = _discovery_pass(ENGINE_INCREMENTAL, True, runs, prof)
    prof.capture_network(instrumented, prefix="discovery.bgp")
    return WorkloadResult(
        name="discovery",
        baseline_s=baseline_s,
        incremental_s=incremental_s,
        detail={"repeat": float(repeat), "runs_per_pass": float(runs)},
    )


# -- session reset -----------------------------------------------------------


def _reset_pass(engine: str, resets: int) -> None:
    from ..scenarios.vultr import build_bgp_network

    bgp = build_bgp_network()
    bgp.use_engine(engine)
    # The edges' first route prefixes (see scenarios.vultr.make_pairing).
    bgp.router("tango-la").originate("2001:db8:a0::/48")
    bgp.router("tango-ny").originate("2001:db8:b0::/48")
    bgp.converge()
    for _ in range(resets):
        bgp.reset_session("vultr-ny", "ntt")


def run_reset_workload(
    repeat: int = 3, resets: int = 5, profiler: Optional[Profiler] = None
) -> WorkloadResult:
    """Repeated session bounces of the busiest Vultr transit session."""
    prof = profiler if profiler is not None else Profiler()
    clock = prof.clock
    baseline_s = _best_of(
        repeat, lambda: _reset_pass(ENGINE_ROUNDS, resets), clock
    )
    incremental_s = _best_of(
        repeat, lambda: _reset_pass(ENGINE_INCREMENTAL, resets), clock
    )
    return WorkloadResult(
        name="reset_session",
        baseline_s=baseline_s,
        incremental_s=incremental_s,
        detail={"repeat": float(repeat), "resets_per_pass": float(resets)},
    )


# -- fault replay ------------------------------------------------------------


def bench_fault_plan() -> FaultPlan:
    """A BGP-heavy plan: two session flaps plus a prefix withdrawal."""
    return FaultPlan(
        name="bench-bgp-replay",
        seed=11,
        events=(
            FaultEvent(
                "bgp_session_down",
                at=1.0,
                duration=1.0,
                params={"a": "vultr-ny", "b": "ntt"},
            ),
            FaultEvent(
                "prefix_withdraw",
                at=3.5,
                duration=1.0,
                params={"edge": "ny", "prefix_index": 0},
            ),
            FaultEvent(
                "bgp_session_down",
                at=6.0,
                duration=1.0,
                params={"a": "vultr-la", "b": "telia"},
            ),
        ),
    )


def _fault_replay(
    engine: str, use_snapshots: bool, clock: Callable[[], float]
) -> tuple[float, float, str]:
    """Arm the bench plan on a fresh deployment and run it.

    Returns ``(replay_wall_s, converge_wall_s, recovery_log_text)`` —
    establishment is setup, only the armed replay is timed.  The second
    element isolates the control-plane share: replay wall time is
    dominated by the packet-level simulation, which the engine change
    does not touch.
    """
    from ..core.controller import QuarantinePolicy, TangoController
    from ..core.policy import LowestDelaySelector
    from ..netsim.trace import PacketFactory
    from ..scenarios.vultr import VultrDeployment

    plan = bench_fault_plan()
    deployment = VultrDeployment(include_events=False)
    deployment.establish()
    controllers = {}
    for edge in (deployment.pairing.a.name, deployment.pairing.b.name):
        deployment.start_path_probes(edge)
        deployment.set_data_policy(
            edge,
            LowestDelaySelector(deployment.gateway(edge).outbound, window_s=1.0),
        )
        controller = TangoController(
            deployment.gateway(edge),
            deployment.sim,
            interval_s=0.1,
            staleness_s=0.5,
            quarantine=QuarantinePolicy(),
        )
        controller.start()
        deployment.attach_controller(edge, controller)
        controllers[edge] = controller
    for edge in (deployment.pairing.a.name, deployment.pairing.b.name):
        peer = deployment.pairing.peer_of(edge)
        factory = PacketFactory(
            src=str(deployment.pairing.edge(edge).host_address(4)),
            dst=str(peer.host_address(4)),
            flow_label=9,
        )
        send = deployment.sender_for(edge)
        deployment.sim.call_every(0.02, lambda f=factory, s=send: s(f.build()))

    deployment.bgp.use_engine(engine)
    replay_prof = Profiler()
    deployment.bgp.profiler = replay_prof
    injector = FaultInjector(deployment, plan, use_snapshots=use_snapshots)
    start = clock()
    injector.arm()
    deployment.net.run(until=plan.horizon + 2.0)
    elapsed = clock() - start
    converge_s = sum(
        stat.total_s
        for name, stat in sorted(replay_prof.timers.items())
        if name.startswith("bgp.converge.")
    )
    log = RecoveryLog.build(plan, controllers)
    return elapsed, converge_s, log.format()


def run_fault_replay_workload(
    repeat: int = 1, profiler: Optional[Profiler] = None
) -> WorkloadResult:
    """BGP-heavy chaos replay under both engine configurations.

    Also cross-checks that both configurations produce byte-identical
    recovery logs — a perf run that changed behavior is worthless.
    """
    prof = profiler if profiler is not None else Profiler()
    clock = prof.clock
    baseline_best: Optional[float] = None
    incremental_best: Optional[float] = None
    baseline_converge = incremental_converge = 0.0
    baseline_log = incremental_log = ""
    for _ in range(max(repeat, 1)):
        elapsed, converge_s, baseline_log = _fault_replay(
            ENGINE_ROUNDS, False, clock
        )
        if baseline_best is None or elapsed < baseline_best:
            baseline_best, baseline_converge = elapsed, converge_s
        elapsed, converge_s, incremental_log = _fault_replay(
            ENGINE_INCREMENTAL, True, clock
        )
        if incremental_best is None or elapsed < incremental_best:
            incremental_best, incremental_converge = elapsed, converge_s
    if baseline_log != incremental_log:
        raise AssertionError(
            "engine configurations disagree on the recovery log; "
            "refusing to report perf numbers for divergent behavior"
        )
    converge_speedup = (
        baseline_converge / incremental_converge
        if incremental_converge > 0.0
        else float("inf")
    )
    return WorkloadResult(
        name="fault_replay_mttr",
        baseline_s=float(baseline_best or 0.0),
        incremental_s=float(incremental_best or 0.0),
        detail={
            "repeat": float(repeat),
            "baseline_converge_s": baseline_converge,
            "incremental_converge_s": incremental_converge,
            "converge_speedup": converge_speedup,
        },
    )


# -- the suite ---------------------------------------------------------------


def run_perf_suite(
    repeat: int = 3,
    smoke: bool = False,
    include_replay: bool = True,
    profiler: Optional[Profiler] = None,
) -> PerfReport:
    """Run every workload and assemble the ``BENCH_PERF.json`` payload.

    Args:
        repeat: best-of repetitions per measurement.
        smoke: CI mode — fewer repetitions, same workloads.
        include_replay: skip the (slow) fault-replay workload when False.
        profiler: collector for timers/counters; a fresh one by default.
    """
    prof = profiler if profiler is not None else Profiler()
    if smoke:
        repeat = min(repeat, 2)
    workloads: dict[str, WorkloadResult] = {}
    with prof.time("suite.total"):
        workloads["discovery"] = run_discovery_workload(
            repeat=repeat, profiler=prof
        )
        workloads["reset_session"] = run_reset_workload(
            repeat=repeat, profiler=prof
        )
        if include_replay:
            workloads["fault_replay_mttr"] = run_fault_replay_workload(
                repeat=1 if smoke else max(1, repeat - 1), profiler=prof
            )
    return PerfReport(
        scenario="vultr",
        smoke=smoke,
        workloads=workloads,
        profile=prof.as_dict(),
    )
