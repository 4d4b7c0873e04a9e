"""``federation_establish`` and ``federation_live`` — the E20 federation,
once as pure control-plane establishment (zero simulated time) and once
as the live run (many narrow fluid engines on one shared control plane)."""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Optional

from repro.core.controller import QuarantinePolicy
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultEvent, FaultPlan
from repro.federation import FederationRegistry
from repro.scenarios.topologies import build_live_federation
from repro.traffic.demand import DemandModel, FlowClass

from . import (
    Check,
    Outcome,
    count_changes,
    digest_of,
    median,
    store_rows_and_grows,
)
from .fluidcheck import conserved, ledger_totals, offered_packets

_INTERVAL_S = 0.1
_STALENESS_S = 0.5
_DETECT_BUDGET_S = _STALENESS_S + 2 * _INTERVAL_S
#: ``relay_outage`` cadence: one member dark for ``_OUTAGE_S`` every
#: ``_OUTAGE_EVERY_S``, the first after ``_FIRST_OUTAGE_S`` (+ jitter).
_OUTAGE_EVERY_S = 10.0
_OUTAGE_S = 3.0
_FIRST_OUTAGE_S = 3.0
_OUTAGE_JITTER_S = 1.0


@dataclass(frozen=True)
class FederationPlan:
    n_edges: int
    federation_seed: int
    #: Live run only.
    run_s: float = 0.0
    fault_plan: Optional[FaultPlan] = None
    #: (src index, dst index) -> demand-model seed.
    demand_seeds: dict[tuple[int, int], int] = field(default_factory=dict)


@dataclass
class _Scenario:
    plan: FederationPlan
    registry: FederationRegistry
    #: One fluid engine per ordered direction (live run only).
    engines: list = field(default_factory=list)


def _degraded_pair(registry: FederationRegistry) -> tuple[str, str]:
    pair = registry.scenario.degraded_pair
    assert pair is not None, "bench federations are built with a degraded pair"
    return pair


def _bgp_counters(registry: FederationRegistry) -> dict[str, float]:
    bgp = registry.bgp
    stats = registry.snapshot_stats()
    sessions = [s for s in registry.sessions.values() if s.state is not None]
    return {
        "bgp.network.converges": bgp.convergence_count,
        "bgp.network.waves": bgp.total_rounds,
        "bgp.network.updates_delivered": bgp.updates_delivered,
        "bgp.network.withdrawals_delivered": bgp.withdrawals_delivered,
        "bgp.network.routers_scanned": bgp.routers_scanned,
        "bgp.snapshot.hits": stats["hits"],
        "bgp.snapshot.misses": stats["misses"],
        "core.discovery.paths_found": sum(
            sum(s.state.path_counts) for s in sessions
        ),
        "federation.pairs_established": len(sessions),
        "federation.stitched_tunnels": len(registry.stitches),
    }


def _establishment_check(registry: FederationRegistry) -> Check:
    """Every pair up with a tunnel each way; the degraded pair has a
    second route."""
    n = registry.scenario.n
    expected = n * (n - 1) // 2
    thin = [
        f"{a}-{b}"
        for (a, b), session in registry.sessions.items()
        if session.state is None or not all(session.state.path_counts)
    ]
    src, dst = _degraded_pair(registry)
    routes = len(registry.direction_tunnels(src, dst))
    ok = len(registry.sessions) == expected and not thin and routes >= 2
    return Check(
        "pairs_established",
        ok,
        f"{len(registry.sessions) - len(thin)}/{expected} pairs up, "
        f"degraded pair {src}->{dst} has {routes} routes",
    )


def _state_lines(registry: FederationRegistry) -> list[str]:
    """The federation's established state, one line per tunnel."""
    lines = []
    for (a, b), session in sorted(registry.sessions.items()):
        state = session.state
        if state is None:
            lines.append(f"{a}-{b} down")
            continue
        for src, dst, tunnels in (
            (a, b, state.tunnels_a_to_b),
            (b, a, state.tunnels_b_to_a),
        ):
            for tunnel in tunnels:
                cal = registry.calibrations_for(src, dst)[tunnel.short_label]
                lines.append(
                    f"{src}->{dst} id={tunnel.path_id} {tunnel.label} "
                    f"base_ms={cal.base_ms!r}"
                )
    for (src, dst), stitch in sorted(registry.stitches.items()):
        lines.append(
            f"{src}->{dst} stitched id={stitch.tunnel.path_id} "
            f"relay={stitch.plan.relay} {stitch.tunnel.label}"
        )
    stats = registry.snapshot_stats()
    lines.append(f"snapshots hits={stats['hits']} misses={stats['misses']}")
    return lines


class FederationEstablish:
    name = "federation_establish"

    def plan(self, seed: int, smoke: bool) -> FederationPlan:
        return FederationPlan(n_edges=4 if smoke else 8, federation_seed=seed)

    def setup(self, plan: FederationPlan) -> _Scenario:
        scenario = build_live_federation(plan.n_edges, seed=plan.federation_seed)
        return _Scenario(plan, FederationRegistry(scenario))

    def run(self, scenario: _Scenario) -> None:
        registry = scenario.registry
        registry.establish()
        registry.stitch_pair(*_degraded_pair(registry))

    def counters(self, scenario: _Scenario) -> dict[str, float]:
        return _bgp_counters(scenario.registry)

    def finish(self, scenario: _Scenario) -> Outcome:
        registry = scenario.registry
        stats = registry.snapshot_stats()
        return Outcome(
            digest=digest_of(_state_lines(registry)),
            checks=[_establishment_check(registry)],
            sim_detect_s=0.0,
            sim_delivered_share=1.0,
            gauges={"bgp.snapshot.hit_ratio": stats["hit_rate"]},
        )


class FederationLive:
    name = "federation_live"

    def plan(self, seed: int, smoke: bool) -> FederationPlan:
        rng = random.Random(seed)
        n_edges = 4 if smoke else 8
        run_s = 10.0 if smoke else 40.0
        members = list(range(n_edges))
        rng.shuffle(members)
        events = []
        onset = _FIRST_OUTAGE_S
        while onset + _OUTAGE_JITTER_S + _OUTAGE_S + 2.0 <= run_s:
            events.append(
                FaultEvent(
                    "relay_outage",
                    at=round(onset + rng.uniform(0.0, _OUTAGE_JITTER_S), 3),
                    duration=_OUTAGE_S,
                    params={"member": f"edge{members[len(events) % n_edges]}"},
                )
            )
            onset += _OUTAGE_EVERY_S
        demand_seeds = {
            (i, j): rng.randrange(1 << 30)
            for i in range(n_edges)
            for j in range(n_edges)
            if i != j
        }
        return FederationPlan(
            n_edges=n_edges,
            federation_seed=seed,
            run_s=run_s,
            fault_plan=FaultPlan(
                name="bench-federation-live", events=tuple(events), seed=seed
            ),
            demand_seeds=demand_seeds,
        )

    def setup(self, plan: FederationPlan) -> _Scenario:
        scenario = build_live_federation(plan.n_edges, seed=plan.federation_seed)
        registry = FederationRegistry(scenario)
        registry.establish()
        degraded = _degraded_pair(registry)
        registry.stitch_pair(*degraded)
        registry.start_telemetry()
        registry.start_control_plane(
            focus=[degraded],
            staleness_s=_STALENESS_S,
            quarantine=QuarantinePolicy(unhealthy_ticks=1, probation_delay_s=1.0),
        )
        out = _Scenario(plan, registry)
        names = scenario.member_names
        for (i, j), demand_seed in sorted(plan.demand_seeds.items()):
            src, dst = names[i], names[j]
            demand = DemandModel(
                classes=(
                    FlowClass(
                        name=f"{src}->{dst}",
                        flow_label=1,
                        arrival_rate_per_s=200.0,
                        mean_size_bytes=125_000,
                        rate_bps=2e6,
                    ),
                ),
                seed=demand_seed,
            )
            out.engines.append(registry.start_traffic(src, dst, demand))
        assert plan.fault_plan is not None
        FaultInjector(registry, plan.fault_plan).arm()
        return out

    def run(self, scenario: _Scenario) -> None:
        scenario.registry.sim.run(until=scenario.plan.run_s)

    def counters(self, scenario: _Scenario) -> dict[str, float]:
        registry = scenario.registry
        gateways = registry.gateways.values()
        rows, grows = store_rows_and_grows(
            store for g in gateways for store in (g.inbound, g.outbound)
        )
        engines = scenario.engines
        scheduler = registry.scheduler
        counters = _bgp_counters(registry)
        counters.update(
            {
                "netsim.events.processed": registry.sim.events_processed,
                "netsim.ticks.rounds": scheduler.rounds,
                "netsim.ticks.callbacks_run": scheduler.callbacks_run,
                "telemetry.store.appends": rows,
                "telemetry.store.grows": grows,
                "core.controller.ticks": sum(
                    c.ticks for c in registry.controllers.values()
                ),
                "traffic.steps": sum(e.steps for e in engines),
                "traffic.bucket_updates": sum(
                    e.steps * len(e.demand.classes) * len(e.tunnels)
                    for e in engines
                ),
                "traffic.splits_recomputed": sum(
                    e.splits_recomputed for e in engines
                ),
            }
        )
        return counters

    def finish(self, scenario: _Scenario) -> Outcome:
        registry = scenario.registry
        plan = scenario.plan
        assert plan.fault_plan is not None

        # Every tunnel a dark member takes down must be quarantined by
        # its sending controller within the budget, and restored after.
        detections: list[float] = []
        late: list[str] = []
        path_faults = 0
        for event in plan.fault_plan.timeline:
            for owner, tunnel in _tunnels_through(registry, event.params["member"]):
                path_faults += 1
                log = registry.controllers[owner].quarantine_log
                detected = next(
                    (
                        q.t - event.at
                        for q in log
                        if q.path_id == tunnel.path_id
                        and q.action == "quarantine"
                        and q.t >= event.at
                    ),
                    None,
                )
                restored = any(
                    q.path_id == tunnel.path_id
                    and q.action == "restore"
                    and q.t >= event.end
                    for q in log
                )
                if detected is not None:
                    detections.append(detected)
                if (
                    detected is None
                    or detected > _DETECT_BUDGET_S + 1e-9
                    or not restored
                ):
                    late.append(f"{event.target}/{owner}:{tunnel.short_label}")

        # Fluid mass: what the demand offered vs what the ledgers hold.
        engines = scenario.engines
        offered = sum(
            offered_packets(e.demand, 0.0, e.step_s, e.steps) for e in engines
        )
        delivered, lost = ledger_totals(
            g.tracker for g in registry.gateways.values()
        )
        n_tunnels = sum(len(e.tunnels) for e in engines)

        src, dst = _degraded_pair(registry)
        controller = registry.controllers[src]
        ids = {t.path_id for t in registry.direction_tunnels(src, dst)}
        usable = [
            h
            for h in controller.health()
            if h.path_id in ids and h.fresh and h.path_id not in controller.quarantined
        ]
        established = _establishment_check(registry)

        lines: list = _state_lines(registry)
        for name in sorted(registry.gateways):
            for path_id, series in registry.gateways[name].outbound.items():
                lines += [
                    f"{name} out {path_id}",
                    series.times.tobytes(),
                    series.values.tobytes(),
                ]
            for q in registry.controllers[name].quarantine_log:
                lines.append(
                    f"{name} {q.t:.6f} path={q.path_id} {q.action} "
                    f"cause={q.cause or '-'}"
                )
        lines.append(f"ledger delivered={delivered} lost={lost}")

        logs = [
            q for c in registry.controllers.values() for q in c.quarantine_log
        ]
        return Outcome(
            digest=digest_of(lines),
            checks=[
                Check(
                    "pairs_established",
                    established.ok and len(usable) >= 2,
                    f"{established.detail}; {len(usable)} usable at the end",
                ),
                Check(
                    "faults_detected_and_restored",
                    not late,
                    f"outside {_DETECT_BUDGET_S}s or never restored: {late}",
                ),
                Check(
                    "fluid_conservation",
                    conserved(offered, delivered, lost, n_tunnels),
                    f"offered={offered!r} delivered={delivered} lost={lost}",
                ),
            ],
            sim_detect_s=median(detections),
            sim_delivered_share=delivered / offered,
            gauges={
                "bgp.snapshot.hit_ratio": registry.snapshot_stats()["hit_rate"],
                "core.controller.quarantines": sum(
                    1 for q in logs if q.action == "quarantine"
                ),
                "core.controller.restores": sum(
                    1 for q in logs if q.action == "restore"
                ),
                "core.policy.choice_changes": sum(
                    count_changes(c.choice_trace.values)
                    for c in registry.controllers.values()
                ),
                "srlg.probation_holds": sum(
                    1 for q in logs if q.action == "probation-hold"
                ),
                "traffic.peak_concurrent_flows": sum(
                    e.peak_concurrent_flows for e in engines
                ),
                "faults.path_faults": path_faults,
                "faults.detected": len(detections),
            },
        )


def _tunnels_through(registry: FederationRegistry, member: str):
    """(sending member, tunnel) for every tunnel that crosses ``member``:
    its own, every peer's towards it, and stitched routes relayed by it."""
    seen = set()
    names = registry.scenario.member_names
    for peer in names:
        if peer == member:
            continue
        for owner, dst in ((member, peer), (peer, member)):
            for tunnel in registry.direction_tunnels(owner, dst):
                if tunnel.path_id not in seen:
                    seen.add(tunnel.path_id)
                    yield owner, tunnel
    for (src, _dst), stitch in sorted(registry.stitches.items()):
        if stitch.plan.relay == member and stitch.tunnel.path_id not in seen:
            seen.add(stitch.tunnel.path_id)
            yield src, stitch.tunnel

