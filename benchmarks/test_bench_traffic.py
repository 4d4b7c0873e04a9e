"""E16 + E19 — fluid traffic engine, its two step kernels, the tick wheel.

The traffic bench gate (see README "Workloads & traffic engine" and
EXPERIMENTS.md E16/E19): ONE :func:`run_traffic_suite` call runs every
standard traffic workload from :mod:`repro.traffic.bench` once, prints
the results, writes ``BENCH_TRAFFIC.json``, and FAILS if

* (E16) the fluid engine does not sustain >=1,000,000 concurrent
  modeled flows on the Vultr scenario in under 10 s wall-clock, or
* (E16) the fluid model's mean delay deviates from the packet simulator
  by more than 10% (or loss by more than 2 pp) at any point of the
  equivalence sweep, or
* (E19) the array kernel is not byte-identical to the scalar kernel
  (telemetry series and loss ledgers), sustains fewer than 10,000,000
  flow-updates/s (modeled concurrent flows x steps / wall), or is less
  than 5x faster than the scalar kernel at 256 tunnels, or
* (E19) 1000 controllers on one shared tick wheel need more than one
  live recurring heap event, drift from the per-controller-task tick
  counts, or blow the 100 ms per-round wall budget.

Environment:

* ``BENCH_SMOKE=1`` — CI mode: shorter simulated window and packet
  comparison run, same gates.
* ``BENCH_TRAFFIC_OUT`` — where to write the JSON report (default:
  ``BENCH_TRAFFIC.json`` in the current directory).
"""

import json
import os

from conftest import emit

from repro.traffic.bench import (
    EQUIV_DELAY_TOL,
    EQUIV_LOSS_TOL_PP,
    SCALE_MAX_WALL_S,
    SCALE_TARGET_FLOWS,
    TICK_BUDGET_S,
    VECTOR_MIN_SPEEDUP,
    VECTOR_TARGET_UPDATES_PER_S,
    run_equivalence_workload,
    run_traffic_suite,
)

SMOKE = os.environ.get("BENCH_SMOKE", "") == "1"
OUT_PATH = os.environ.get("BENCH_TRAFFIC_OUT", "BENCH_TRAFFIC.json")


def test_traffic_suite(benchmark):
    # The benchmark fixture times the cheap, high-signal workload (a
    # small equivalence sweep); the full gated suite runs once around it
    # and produces the report.
    benchmark(run_equivalence_workload, packets=2_000)

    report = run_traffic_suite(smoke=SMOKE)

    emit(report.format())
    scale, equivalence, vector, ticks = (
        report.workloads[name]
        for name in ("scale", "equivalence", "vector", "ticks")
    )

    with open(OUT_PATH, "w", encoding="utf-8") as handle:
        handle.write(report.to_json())
    emit(f"wrote {OUT_PATH}")

    payload = json.loads(report.to_json())
    assert payload["schema"] == "tango-repro/bench-traffic/v1"

    # Gate 1: >=1M concurrent modeled flows, simulated in <10 s wall.
    assert scale.detail["peak_concurrent_flows"] >= SCALE_TARGET_FLOWS, (
        f"only {scale.detail['peak_concurrent_flows']:,.0f} concurrent "
        f"flows modeled (gate: {SCALE_TARGET_FLOWS:,})"
    )
    assert scale.detail["wall_s"] < SCALE_MAX_WALL_S, (
        f"scale workload took {scale.detail['wall_s']:.2f}s wall "
        f"(gate: {SCALE_MAX_WALL_S:.0f}s)"
    )

    # Gate 2: fluid model within tolerance of the packet simulator at
    # every utilization point.
    for point in equivalence.detail["points"]:
        assert point["delay_rel_error"] <= EQUIV_DELAY_TOL, (
            f"rho={point['rho']}: delay error {point['delay_rel_error']:.1%} "
            f"exceeds {EQUIV_DELAY_TOL:.0%}"
        )
        assert point["loss_error_pp"] <= EQUIV_LOSS_TOL_PP, (
            f"rho={point['rho']}: loss error {point['loss_error_pp']:.2f}pp "
            f"exceeds {EQUIV_LOSS_TOL_PP:.0f}pp"
        )

    # E19 gates (the numbers are in the summary emitted above).
    # Gate 3: the array kernel is only trustworthy while it stays
    # bit-identical to the scalar kernel (telemetry bytes, ledgers).
    assert vector.detail["bit_equivalent"], "array kernel diverged"
    # Gate 4: sustained flow-update throughput.
    assert vector.detail["flow_updates_per_s"] >= VECTOR_TARGET_UPDATES_PER_S
    # Gate 5: at 256 tunnels the array kernel beats the scalar one >= 5x.
    assert vector.detail["speedup"] >= VECTOR_MIN_SPEEDUP
    # Gate 6: the controller farm multiplexes onto one heap event,
    # reproduces per-controller tick counts, and fits the round budget.
    assert ticks.detail["heap_live_shared"] == 1
    assert ticks.detail["ticks_match_dedicated"]
    assert ticks.detail["per_round_s"] <= TICK_BUDGET_S
    assert report.passed
