"""E10 / Section 2 — Tango against the status-quo alternatives.

Regenerates the paper's motivation as a single comparison table: BGP
default, end-host RTT probing, multi-homed route control, a RON-style
overlay, and Tango policies, all over the same NY→LA campaign window
containing the instability event.  Shape claims: Tango wins on mean and
tail; multihoming beats the default but is capped by its path subset;
the overlay pays its software tax; the RTT prober is noise-limited.
"""

import numpy as np
from conftest import emit

from repro.analysis.replay import PolicyReplay
from repro.analysis.report import format_table
from repro.baselines import (
    BgpDefaultBaseline,
    MultihomingBaseline,
    OverlayBaseline,
    RttProbingBaseline,
)
from repro.core.policy import HysteresisSelector, LowestDelaySelector
from repro.scenarios.vultr import INSTABILITY_HOUR

EVENT_S = INSTABILITY_HOUR * 3600.0
T0, T1 = EVENT_S - 600.0, EVENT_S + 600.0  # 20 minutes around the event


def run_comparison(deployment):
    measured, fwd_true = deployment.run_fast_campaign("ny", T0, T1, 0.01)
    _, rev_true = deployment.run_fast_campaign("la", T0, T1, 0.01)
    # Reverse path ids live in the 64+ block; re-key them to align with
    # forward indices for the RTT pairing.
    rekeyed = _rekey(rev_true)

    replay = PolicyReplay(
        fwd_true, decision_interval_s=0.5, visibility_latency_s=0.2
    )
    results = [
        BgpDefaultBaseline().run(replay, T0, T1),
        RttProbingBaseline(fwd_true, rekeyed, probe_interval_s=1.0).run(T0, T1),
        MultihomingBaseline(
            fwd_true, rekeyed, accessible_paths=[0, 1]
        ).run(T0, T1),
        OverlayBaseline(fwd_true, probe_interval_s=10.0).run(T0, T1),
        replay.run(LowestDelaySelector(measured), T0, T1, name="tango-greedy"),
        replay.run(
            HysteresisSelector(measured, margin_s=0.001, dwell_s=2.0),
            T0,
            T1,
            name="tango-hysteresis",
        ),
    ]
    return results


def _rekey(store):
    from repro.telemetry.store import MeasurementStore

    rekeyed = MeasurementStore()
    for new_id, path_id in enumerate(store.path_ids()):
        series = store.series(path_id)
        rekeyed.extend(new_id, series.times, series.values)
    return rekeyed


def test_baseline_comparison(benchmark, deployment):
    results = benchmark(run_comparison, deployment)
    by_name = {r.name: r for r in results}
    emit(
        format_table(
            [r.as_row() for r in results],
            title=(
                "E10 — alternatives over the NY->LA window around the "
                "instability event"
            ),
        )
    )

    default = by_name["bgp-default"]
    rtt = by_name["rtt-probing"]
    multihoming = by_name["multihoming"]
    overlay = by_name["overlay"]
    tango = by_name["tango-greedy"]
    tango_hyst = by_name["tango-hysteresis"]

    # Tango beats every alternative on mean delay.
    for other in (default, rtt, multihoming, overlay):
        assert tango.mean_delay < other.mean_delay, other.name
        assert tango_hyst.mean_delay < other.mean_delay, other.name

    # Multihoming (subset {NTT, Telia}) improves on the default...
    assert multihoming.mean_delay < default.mean_delay
    # ...but cannot reach the best path, so Tango's margin is real.
    assert multihoming.fraction_on_path(2) == 0.0

    # The overlay finds good paths but pays its per-packet overhead:
    # its steady-state mean sits ~1 ms above Tango's.
    steady = overlay.times < EVENT_S - 30.0
    overlay_steady = float(np.mean(overlay.achieved[steady]))
    tango_steady = float(np.mean(tango.achieved[tango.times < EVENT_S - 30.0]))
    assert overlay_steady - tango_steady > 0.0005

    # The default is ~30% worse than Tango outside event influence.
    assert default.mean_delay / tango.mean_delay > 1.15
