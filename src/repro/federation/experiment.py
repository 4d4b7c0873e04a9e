"""E20 — federation diversity, dedup and relay failover at scale.

The two-party experiments (E1–E19) measure one Tango pairing.  E20 asks
what cooperation buys as the *number* of cooperating edges grows:

1. **Dedup** — establishing all N·(N−1)/2 pairs through one shared
   snapshot cache versus independently (each pair its own cache).  The
   announcer-major phased establishment makes every announcer's
   suppression states recur across its observers, so the shared cache's
   hit rate — and wall-clock — improve with N while the independent
   baseline pays full price per pair.
2. **Stitched rescue** — a deliberately degraded pair (both endpoints
   single-homed to the same transit) has exactly one direct path and no
   diversity; a stitched relay tunnel through the best intermediate
   member gives it a second usable route, measured live.
3. **Relay failover** — the relay member is killed mid-run
   (``relay_outage``); the stitched tunnel must be quarantined away
   within one telemetry horizon (staleness + two control ticks), with
   the ``member:<relay>`` fate tag holding it out of probation until
   the relay returns.
4. **Scaling** — projecting live federations of several sizes onto the
   analytical mesh gives the "Tango of N" diversity/delay-gain curve
   (:func:`tango_of_n_rows`, the table E9 and ``tango-repro mesh``
   print too) from calibrated established tunnels.

Everything is a pure function of the scenario seed: the report is
byte-identical across reruns, which the federation benchmark asserts.
"""

from __future__ import annotations

from typing import Iterable, Optional

from ..core.controller import QuarantinePolicy
from ..faults.injector import FaultInjector
from ..faults.plan import FaultEvent, FaultPlan
from ..scenarios.topologies import build_live_federation
from .registry import FederationRegistry, StitchResult

__all__ = ["run_federation_experiment", "tango_of_n_rows", "REPORT_SCHEMA"]

REPORT_SCHEMA = "tango-repro/e20-federation/v1"

#: Experiment timeline (seconds of simulation).
_WARMUP_END_S = 1.95
_KILL_AT_S = 2.0
_KILL_DURATION_S = 2.0
_RUN_END_S = 6.0
_STALENESS_S = 0.5
_CONTROL_INTERVAL_S = 0.1


def tango_of_n_rows(
    sizes: Iterable[int], seed: int = 42, degraded_pair: bool = True
) -> list[dict]:
    """The Tango-of-N table: one row per member count in ``sizes``.

    Each row establishes a live federation of that many members (one
    shared snapshot cache) and reads route diversity and best-route
    delay gain over every ordered pair off
    :meth:`FederationRegistry.analytical_mesh` — the direct routes, the
    routes with one relay, and what the best of those saves against the
    pair's BGP-default path.
    """
    rows = []
    for n in sizes:
        scenario = build_live_federation(
            n, seed=seed, degraded_pair=degraded_pair
        )
        registry = FederationRegistry(scenario)
        registry.establish()
        mesh = registry.analytical_mesh()
        names = scenario.member_names
        pairs = [(a, b) for a in names for b in names if a != b]
        direct = [mesh.diversity(a, b, max_relays=0) for a, b in pairs]
        routes = [mesh.diversity(a, b) for a, b in pairs]
        gains = [mesh.diversity_gain(a, b) for a, b in pairs]
        rows.append(
            {
                "n": n,
                "members": len(names),
                "ordered_pairs": len(pairs),
                "mean_direct_routes": sum(direct) / len(pairs),
                "mean_routes_per_pair": sum(routes) / len(pairs),
                "mean_gain_ms": sum(gains) / len(pairs) * 1e3,
                "max_gain_ms": max(gains) * 1e3,
                "pairs_gaining": sum(1 for g in gains if g > 1e-9),
                "snapshot_hit_rate": registry.snapshot_stats()["hit_rate"],
            }
        )
        registry.stop()
    return rows


def run_federation_experiment(
    n_edges: int = 8,
    seed: int = 42,
    smoke: bool = False,
    scaling_sizes: Optional[tuple[int, ...]] = None,
) -> dict:
    """Run E20 and return its (deterministic, JSON-able) report."""
    if scaling_sizes is None:
        scaling_sizes = (n_edges,) if smoke else (4, 6, n_edges)

    # -- establishment: shared cache vs independent pairwise ------------------
    scenario = build_live_federation(n_edges, seed=seed)
    registry = FederationRegistry(scenario)
    state = registry.establish()
    shared_stats = registry.snapshot_stats()

    baseline = FederationRegistry(
        build_live_federation(n_edges, seed=seed), share_snapshots=False
    )
    baseline.establish()
    baseline_stats = baseline.snapshot_stats()
    baseline.stop()

    established = sum(
        1 for s in registry.sessions.values() if s.state is not None
    )

    # -- stitched rescue of the degraded pair ---------------------------------
    assert scenario.degraded_pair is not None
    deg_src, deg_dst = scenario.degraded_pair
    direct = registry.direction_tunnels(deg_src, deg_dst)
    stitch: StitchResult = registry.stitch_pair(deg_src, deg_dst)
    relay = stitch.plan.relay

    registry.start_telemetry()
    registry.start_control_plane(
        focus=[(deg_src, deg_dst)],
        staleness_s=_STALENESS_S,
        # One-tick quarantine (the blackhole is unambiguous) and short
        # probation: the outage outlives the first probation attempt, so
        # the ``member:<relay>`` down-mark must hold the stitched tunnel
        # out — and release it after the relay returns, inside the run.
        quarantine=QuarantinePolicy(unhealthy_ticks=1, probation_delay_s=1.0),
    )
    registry.start_traffic(deg_src, deg_dst)
    # Segment directions carry their own traffic so the composer always
    # has per-segment telemetry, stitched load or not.
    registry.start_traffic(deg_src, relay)
    registry.start_traffic(relay, deg_dst)

    # Warm up, then count *usable* routes while everything is healthy.
    registry.sim.run(until=_WARMUP_END_S)
    controller = registry.controllers[deg_src]
    sender_tunnels = registry.direction_tunnels(deg_src, deg_dst)
    sender_ids = {t.path_id for t in sender_tunnels}
    usable = [
        h
        for h in controller.health()
        if h.path_id in sender_ids and h.fresh and h.recent_loss < 0.5
    ]
    composed_warm = stitch.composer.compose_at(registry.sim.now)
    direct_warm = registry.gateways[deg_src].outbound.recent_delay(
        stitch.tunnel.path_id, 1.0, registry.sim.now
    )

    # -- relay failover -------------------------------------------------------
    plan = FaultPlan(
        name="e20-relay-kill",
        events=(
            FaultEvent(
                kind="relay_outage",
                at=_KILL_AT_S,
                duration=_KILL_DURATION_S,
                params={"member": relay},
            ),
        ),
        seed=seed,
    )
    FaultInjector(registry, plan).arm()
    registry.sim.run(until=_RUN_END_S)

    stitched_id = stitch.tunnel.path_id
    quarantines = [
        ev
        for ev in controller.quarantine_log
        if ev.path_id == stitched_id
        and ev.action == "quarantine"
        and ev.t >= _KILL_AT_S
    ]
    budget_s = _STALENESS_S + 2 * _CONTROL_INTERVAL_S
    detected_at = quarantines[0].t if quarantines else None
    restores = [
        ev
        for ev in controller.quarantine_log
        if ev.path_id == stitched_id
        and ev.action == "restore"
        and ev.t >= _KILL_AT_S + _KILL_DURATION_S
    ]
    srlg_holds = sum(
        1
        for ev in controller.quarantine_log
        if ev.path_id == stitched_id and ev.cause == "srlg-down"
    )

    composed_series = stitch.composer.composed.series(stitched_id)

    # -- scaling: the Tango-of-N curve from live tunnels ----------------------
    # The v1 report predates the direct-routes column.
    scaling = [
        {k: v for k, v in row.items() if k != "mean_direct_routes"}
        for row in tango_of_n_rows(scaling_sizes, seed=seed)
    ]

    registry.stop()

    return {
        "schema": REPORT_SCHEMA,
        "seed": seed,
        "smoke": smoke,
        "n_edges": n_edges,
        "pairs": state.pair_count,
        "established_pairs": established,
        "snapshot_cache": shared_stats,
        "independent_baseline": baseline_stats,
        "degraded_pair": {
            "pair": [deg_src, deg_dst],
            "direct_routes": len(direct),
            "relay": relay,
            "stitched_path_id": stitched_id,
            "stitched_label": stitch.tunnel.label,
            "stitched_srlgs": sorted(stitch.tunnel.srlgs),
            "usable_routes": len(usable),
        },
        "reroute": {
            "killed_at": _KILL_AT_S,
            "kill_duration_s": _KILL_DURATION_S,
            "detected_at": detected_at,
            "delay_s": (
                detected_at - _KILL_AT_S if detected_at is not None else None
            ),
            "budget_s": budget_s,
            "within_budget": (
                detected_at is not None
                and detected_at - _KILL_AT_S <= budget_s
            ),
            "cause": quarantines[0].cause if quarantines else None,
            "srlg_probation_holds": srlg_holds,
            "restored_after_clear": bool(restores),
        },
        "segment_composition": {
            "samples": len(composed_series),
            "composed_owd_ms_at_warmup": (
                composed_warm * 1e3 if composed_warm is not None else None
            ),
            "measured_owd_ms_at_warmup": (
                direct_warm * 1e3 if direct_warm is not None else None
            ),
        },
        "scaling": scaling,
    }
