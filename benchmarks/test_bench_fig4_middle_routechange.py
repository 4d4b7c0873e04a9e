"""E3 / Figure 4 (middle) — the intra-provider route change.

Paper: "Around hour 121.25, the one-way-delay of GTT's route dramatically
increases during a brief period of instability.  After this, it quickly
stabilizes at a new minimum that has a 5ms longer one-way delay.  This
persists for around 10 minutes until the original path is used.  Thus,
during these route-change events, selecting an alternate path based on
live data is required for optimal performance."

Regenerates the hour-long window around the event, detects it, and shows
that an adaptive policy sidesteps it while BGP-default-on-GTT would not.
"""

import numpy as np
from conftest import emit

from repro.analysis.replay import PolicyReplay
from repro.analysis.report import format_kv, format_table, series_sparkline
from repro.analysis.stats import detect_excursions
from repro.core.policy import HysteresisSelector, StaticSelector
from repro.scenarios.vultr import ROUTE_CHANGE_HOUR

EVENT_S = ROUTE_CHANGE_HOUR * 3600.0
T0, T1 = EVENT_S - 900.0, EVENT_S + 1500.0  # the figure's 1-hour frame
GTT = 2


def run_window(deployment):
    return deployment.run_fast_campaign("ny", T0, T1, interval_s=0.1)


def test_fig4_middle_route_change(benchmark, deployment):
    measured, true = benchmark(run_window, deployment)

    gtt = true.series(GTT)
    emit(
        "Fig. 4 (middle) — GTT NY->LA around hour "
        f"{ROUTE_CHANGE_HOUR}:\n  {series_sparkline(gtt.values * 1e3, 80)}"
    )

    before = float(np.mean(gtt.window(T0, EVENT_S - 10.0)[1]))
    plateau = float(np.mean(gtt.window(EVENT_S + 60.0, EVENT_S + 540.0)[1]))
    after = float(np.mean(gtt.window(EVENT_S + 720.0, T1)[1]))
    excursions = detect_excursions(
        gtt.times, gtt.values, threshold=before + 0.002, merge_gap_s=30.0
    )
    emit(
        format_kv(
            [
                ("baseline before (ms)", before * 1e3),
                ("new plateau (ms)", plateau * 1e3),
                ("shift (paper: +5 ms)", (plateau - before) * 1e3),
                ("after revert (ms)", after * 1e3),
                ("event duration (paper: ~10 min)", excursions[0].duration),
            ],
            title="route-change event",
        )
    )

    # Shape: +5 ms plateau for ~10 minutes, then revert.
    assert (plateau - before) * 1e3 == np.clip((plateau - before) * 1e3, 4.0, 6.0)
    assert after * 1e3 == np.clip(after * 1e3, before * 1e3 - 1.0, before * 1e3 + 1.0)
    assert len(excursions) == 1
    assert 480.0 <= excursions[0].duration <= 720.0

    # "selecting an alternate path based on live data is required":
    # pinned-to-GTT eats the plateau; hysteresis routing moves to Telia
    # for the duration and comes back.
    replay = PolicyReplay(true, decision_interval_s=1.0)
    pinned = replay.run(StaticSelector(GTT), T0, T1, name="pinned-GTT")
    adaptive = replay.run(
        HysteresisSelector(
            measured, margin_s=0.0005, dwell_s=5.0, fallback_index=GTT
        ),
        T0,
        T1,
        name="tango",
    )
    rows = [pinned.as_row(), adaptive.as_row()]
    emit(format_table(rows, title="policy outcome over the event window"))
    assert adaptive.mean_delay < pinned.mean_delay
    assert adaptive.switch_count >= 2  # leaves GTT and returns
