"""E20 — federation establishment dedup, stitched rescue, relay failover.

The federation gate (see README "Tango of N" and EXPERIMENTS.md E20):
runs the full N=8 federation experiment — shared-cache establishment of
all 28 pairs vs the independent-pairwise baseline, the stitched relay
rescue of the degraded pair, and the mid-run relay kill — and FAILS if

* any of the 28 pairwise sessions fails to establish,
* the shared snapshot cache's hit rate is below 50% or does not beat
  the independent-pairwise baseline's,
* the degraded pair (one direct path by construction) does not reach at
  least 2 usable routes via its stitched relay tunnel,
* killing the relay member is not detected (stitched tunnel
  quarantined) within one telemetry horizon, or
* a rerun of the seeded experiment is not byte-identical.

Environment:

* ``BENCH_SMOKE=1`` — CI mode: skips the N=4/6 scaling sweep, same gates.
* ``BENCH_FEDERATION_OUT`` — where to write the JSON report (default:
  ``BENCH_FEDERATION.json`` in the current directory).
"""

import json
import os

from conftest import emit

from repro.federation import FederationRegistry
from repro.federation.experiment import run_federation_experiment

SMOKE = os.environ.get("BENCH_SMOKE", "") == "1"
OUT_PATH = os.environ.get("BENCH_FEDERATION_OUT", "BENCH_FEDERATION.json")

N_EDGES = 8
MIN_HIT_RATE = 0.5
MIN_USABLE_ROUTES = 2


def test_federation_establishment_and_relay_failover(benchmark, monkeypatch):
    # The benchmark fixture times the high-signal piece: shared-cache
    # establishment of a mid-size federation.
    def establish_only():
        from repro.scenarios.topologies import build_live_federation

        registry = FederationRegistry(build_live_federation(6))
        registry.establish()
        registry.stop()

    benchmark(establish_only)

    # The report is frozen (BENCH_FEDERATION.json is byte-compared), so
    # the live run's heap-event count is read off the registries as the
    # experiment tears them down: the one that ran is the one with events.
    events_at_stop = []
    stop = FederationRegistry.stop

    def counting_stop(registry):
        events_at_stop.append(registry.sim.events_processed)
        stop(registry)

    monkeypatch.setattr(FederationRegistry, "stop", counting_stop)
    report = run_federation_experiment(N_EDGES, smoke=SMOKE)
    live_events = max(events_at_stop)
    replay = run_federation_experiment(N_EDGES, smoke=SMOKE)
    serialized = json.dumps(report, indent=2, sort_keys=True)
    byte_identical = serialized == json.dumps(
        replay, indent=2, sort_keys=True
    )

    cache = report["snapshot_cache"]
    baseline = report["independent_baseline"]
    degraded = report["degraded_pair"]
    reroute = report["reroute"]
    emit(
        f"E20 dedup: {report['established_pairs']}/{report['pairs']} pairs, "
        f"shared hit rate {cache['hit_rate']:.2f} "
        f"({cache['hits']} hits / {cache['misses']} misses) vs "
        f"independent {baseline['hit_rate']:.2f}"
    )
    emit(
        f"E20 live run: sim.events_processed={live_events} "
        "(one fluid step, one mirror sweep, one control round per tick)"
    )
    emit(
        f"E20 stitched: {degraded['pair'][0]}->{degraded['pair'][1]} had "
        f"{degraded['direct_routes']} direct route(s), "
        f"{degraded['usable_routes']} usable via relay {degraded['relay']}"
    )
    emit(
        f"E20 failover: relay killed at t={reroute['killed_at']:g}, "
        f"stitched tunnel quarantined +{reroute['delay_s']:.2f}s "
        f"(budget {reroute['budget_s']:.2f}s, cause={reroute['cause']}), "
        f"restored={reroute['restored_after_clear']}"
    )
    emit(f"E20 replay byte-identical: {byte_identical}")

    gates = {
        "n_edges": N_EDGES,
        "min_hit_rate": MIN_HIT_RATE,
        "min_usable_routes": MIN_USABLE_ROUTES,
        "reroute_budget_s": reroute["budget_s"],
    }
    passed = (
        report["established_pairs"] == report["pairs"]
        and cache["hit_rate"] >= MIN_HIT_RATE
        and cache["hit_rate"] > baseline["hit_rate"]
        and degraded["usable_routes"] >= MIN_USABLE_ROUTES
        and bool(reroute["within_budget"])
        and byte_identical
    )
    payload = {
        "schema": "tango-repro/bench-federation/v1",
        "smoke": SMOKE,
        "passed": passed,
        "gates": gates,
        "byte_identical_replay": byte_identical,
        "report": report,
    }
    with open(OUT_PATH, "w", encoding="utf-8") as handle:
        handle.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    emit(f"wrote {OUT_PATH}")

    # Gate 1: every pairwise session established over the shared network.
    assert report["established_pairs"] == report["pairs"], (
        f"only {report['established_pairs']} of {report['pairs']} "
        "pairwise sessions established"
    )

    # Gate 2: shared-cache dedup — the reason one process can afford N
    # sites — must clear 50% and beat independent establishment.
    assert cache["hit_rate"] >= MIN_HIT_RATE, (
        f"shared snapshot-cache hit rate {cache['hit_rate']:.2f} below "
        f"gate {MIN_HIT_RATE:.2f}"
    )
    assert cache["hit_rate"] > baseline["hit_rate"], (
        f"shared cache ({cache['hit_rate']:.2f}) did not beat independent "
        f"pairwise establishment ({baseline['hit_rate']:.2f})"
    )

    # Gate 3: the stitched relay tunnel rescues the degraded pair.
    assert degraded["direct_routes"] == 1
    assert degraded["usable_routes"] >= MIN_USABLE_ROUTES, (
        f"degraded pair has {degraded['usable_routes']} usable routes "
        f"(gate: {MIN_USABLE_ROUTES})"
    )

    # Gate 4: relay death is detected within one telemetry horizon.
    assert reroute["within_budget"], (
        f"stitched tunnel quarantined {reroute['delay_s']}s after the "
        f"relay kill (budget: {reroute['budget_s']}s)"
    )

    # Gate 5: the seeded experiment replays byte-identically.
    assert byte_identical, "seeded federation rerun diverged"
    assert passed
