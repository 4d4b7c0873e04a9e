"""Ablation sweep (DESIGN.md Section 5) — policy knobs vs outcomes.

Two design choices the core policies expose, swept over the route-change
window (the regime where responsiveness and stability fight):

* hysteresis margin: small margins react to everything (many switches),
  large margins never move — mean delay is U-shaped in between;
* probe interval: the paper's 10 ms cadence vs slower probing — slower
  measurement directly lengthens event-reaction time.
"""

import numpy as np
from conftest import emit

from repro.analysis.replay import PolicyReplay
from repro.analysis.report import format_table
from repro.core.policy import HysteresisSelector, LowestDelaySelector
from repro.scenarios.vultr import ROUTE_CHANGE_HOUR

EVENT_S = ROUTE_CHANGE_HOUR * 3600.0
T0, T1 = EVENT_S - 300.0, EVENT_S + 900.0
GTT = 2
MARGINS_MS = (0.1, 0.5, 1.0, 2.0, 5.0, 20.0)
PROBE_INTERVALS = (0.01, 0.1, 1.0, 10.0)


def sweep_margin(deployment):
    measured, true = deployment.run_fast_campaign("ny", T0, T1, 0.01)
    replay = PolicyReplay(true, decision_interval_s=0.5)
    rows = []
    for margin_ms in MARGINS_MS:
        result = replay.run(
            HysteresisSelector(
                measured,
                margin_s=margin_ms * 1e-3,
                dwell_s=2.0,
                fallback_index=GTT,
            ),
            T0,
            T1,
            name=f"margin={margin_ms}ms",
        )
        rows.append(result.as_row())
    return rows


def test_hysteresis_margin_sweep(benchmark, deployment):
    rows = benchmark(sweep_margin, deployment)
    emit(format_table(rows, title="ablation — hysteresis margin"))
    switches = [row["switches"] for row in rows]
    # Monotone: larger margins can only reduce switching.
    assert all(a >= b for a, b in zip(switches, switches[1:]))
    # A huge margin degenerates to pinned (never switches) and eats the
    # event; a moderate margin avoids it.
    by_margin = dict(zip(MARGINS_MS, rows))
    assert by_margin[20.0]["switches"] == 0
    assert by_margin[0.5]["mean_ms"] < by_margin[20.0]["mean_ms"]


def test_probe_interval_sweep(benchmark, deployment):
    def sweep():
        rows = []
        for interval in PROBE_INTERVALS:
            measured, true = deployment.run_fast_campaign(
                "ny", T0, T1, interval_s=max(interval, 0.01)
            )
            # Sparser probing also means staler visibility.
            replay = PolicyReplay(
                true,
                decision_interval_s=0.5,
                visibility_latency_s=interval,
            )
            result = replay.run(
                LowestDelaySelector(measured, fallback_index=GTT),
                T0,
                T1,
                name=f"probe={interval}s",
            )
            rows.append(
                {
                    **result.as_row(),
                    "interval_s": interval,
                    # Fraction of plateau time spent at GTT's degraded
                    # level (33.2 ms) rather than on the Telia detour
                    # (32.0-32.5 ms): the escape-success metric.
                    "plateau_exposure": float(
                        np.mean(
                            result.achieved[
                                (result.times >= EVENT_S + 60.0)
                                & (result.times < EVENT_S + 540.0)
                            ]
                            > 0.0328
                        )
                    ),
                }
            )
        return rows

    rows = benchmark(sweep)
    emit(format_table(rows, title="ablation — probe interval (10 ms = paper)"))
    exposures = [row["plateau_exposure"] for row in rows]
    # Sparser measurement -> more time stuck on the degraded plateau.
    assert exposures[0] <= exposures[-1]
    assert exposures[-1] > exposures[0] or exposures[0] < 0.2
