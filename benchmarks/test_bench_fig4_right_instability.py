"""E4 / Figure 4 (right) — the network-instability window.

Paper: "The period of instability lasts approximately 5min and involves
both minor increases in one-way delay and major spikes resulting in a
peak one-way-delay of 78ms (more than double the minimum one-way delay
of 28ms).  During this time, all other networks experience almost no
interference ... changing to a path that is not experiencing this
network instability is superior for application performance."
"""

import numpy as np
from conftest import emit

from repro.analysis.replay import PolicyReplay
from repro.analysis.report import format_kv, format_table, series_sparkline
from repro.core.policy import JitterAwareSelector, StaticSelector
from repro.scenarios.vultr import INSTABILITY_HOUR, NY_TO_LA_PATHS

EVENT_S = INSTABILITY_HOUR * 3600.0
T0, T1 = EVENT_S - 120.0, EVENT_S + 420.0  # the figure's ~12-minute frame
GTT = 2


def run_window(deployment):
    return deployment.run_fast_campaign("ny", T0, T1, interval_s=0.01)


def test_fig4_right_instability(benchmark, deployment):
    measured, true = benchmark(run_window, deployment)
    labels = {t.path_id: t.short_label for t in deployment.tunnels("ny")}

    gtt = true.series(GTT)
    emit(
        "Fig. 4 (right) — GTT NY->LA instability window:\n  "
        + series_sparkline(gtt.values * 1e3, 80)
    )
    window = gtt.window(EVENT_S, EVENT_S + 300.0)[1]
    peak = float(np.max(window))
    floor = float(np.min(window))
    emit(
        format_kv(
            [
                ("peak OWD (paper: 78 ms)", peak * 1e3),
                ("floor OWD (paper: 28 ms)", floor * 1e3),
                ("peak/floor (paper: >2x)", peak / floor),
            ],
            title="instability extremes",
        )
    )
    # Shape: spikes to ~78 ms, floor still ~28 ms, ratio > 2.
    assert 0.070 <= peak <= 0.080
    assert floor == np.clip(floor, 0.027, 0.029)
    assert peak / floor > 2.0

    # "all other networks experience almost no interference"
    for path_id, label in labels.items():
        if path_id == GTT:
            continue
        others = true.series(path_id).window(EVENT_S, EVENT_S + 300.0)[1]
        base = NY_TO_LA_PATHS[label].base_ms * 1e-3
        assert float(np.max(others)) < base + 0.012

    # Switching away wins for *application* performance: GTT's mean
    # stays low (most packets still ride the 28 ms floor), so a
    # mean-greedy policy correctly stays put — the win comes from
    # avoiding the spikes, which a jitter-aware policy sees.
    replay = PolicyReplay(true, decision_interval_s=0.5)
    pinned = replay.run(StaticSelector(GTT), T0, T1, name="pinned-GTT")
    adaptive = replay.run(
        JitterAwareSelector(measured, jitter_weight=3.0, fallback_index=GTT),
        T0,
        T1,
        name="tango-jitter-aware",
    )
    emit(
        format_table(
            [pinned.as_row(), adaptive.as_row()],
            title="policy outcome over the instability window",
        )
    )
    assert adaptive.p99_delay < pinned.p99_delay
    # Spike exposure: fraction of samples above 40 ms.
    pinned_exposure = float(np.mean(pinned.achieved > 0.040))
    adaptive_exposure = float(np.mean(adaptive.achieved > 0.040))
    emit(
        format_kv(
            [
                ("pinned spike exposure", pinned_exposure),
                ("adaptive spike exposure", adaptive_exposure),
            ]
        )
    )
    assert adaptive_exposure < pinned_exposure / 2
