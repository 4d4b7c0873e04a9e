"""E7 / Section 3 ablation — one-way measurement vs RTT probing.

The paper's motivation (Sections 2.1 and 3): round-trip measurements
cannot be decomposed into the two one-way components, and end-to-end
probes are dominated by edge/host noise.  This ablation grants the RTT
prober the same path diversity Tango has and shows both failure modes:

* a forward-only degradation paired with an equal reverse improvement is
  invisible to RTT/2, so the prober stays on the degraded path while
  Tango's one-way measurements flag it immediately;
* the RTT estimate's noise floor is an order of magnitude above the
  border-to-border one-way measurement's.
"""

import numpy as np
from conftest import emit

from repro.analysis.replay import PolicyReplay
from repro.analysis.report import format_kv, format_table
from repro.baselines.rtt_probing import RttProbingBaseline
from repro.core.policy import LowestDelaySelector
from repro.netsim.delaymodels import AsymmetryEvent
from repro.scenarios.vultr import (
    LA_TO_NY_PATHS,
    NY_TO_LA_PATHS,
    VultrDeployment,
)
from repro.telemetry.store import MeasurementStore

T1 = 300.0
EVENT = AsymmetryEvent(start=100.0, duration=120.0, shift=0.006)
GTT = 2


def build_campaign():
    """Steady-state Vultr paths with an asymmetric event on GTT:
    forward +6 ms, reverse −6 ms (e.g. an asymmetric intradomain
    reroute) — RTT is exactly unchanged."""
    fwd, rev = MeasurementStore(), MeasurementStore()
    times = np.arange(0.0, T1, 0.01)
    for index, label in enumerate(["NTT", "Telia", "GTT", "Level3"]):
        model = NY_TO_LA_PATHS[label].build(include_events=False)
        values = model.delays(times)
        if index == GTT:
            values = values + EVENT.extra_delays(times)
        fwd.extend(index, times, values)
    for index, label in enumerate(["NTT", "Telia", "GTT", "Cogent"]):
        model = LA_TO_NY_PATHS[label].build(include_events=False)
        values = model.delays(times)
        if index == GTT:
            values = values - EVENT.extra_delays(times)
        rev.extend(index, times, values)
    return fwd, rev


def run_ablation():
    fwd, rev = build_campaign()
    rtt = RttProbingBaseline(fwd, rev, probe_interval_s=1.0)
    rtt_result = rtt.run(0.0, T1)
    tango_replay = PolicyReplay(
        fwd, decision_interval_s=1.0, visibility_latency_s=0.2
    )
    tango_result = tango_replay.run(
        LowestDelaySelector(fwd), 0.0, T1, name="tango-oneway"
    )
    return fwd, rev, rtt, rtt_result, tango_result


def test_oneway_vs_rtt_ablation(benchmark):
    fwd, rev, rtt, rtt_result, tango_result = benchmark(run_ablation)

    emit(
        format_table(
            [rtt_result.as_row(), tango_result.as_row()],
            title="E7 — forward-direction delay achieved by each prober",
        )
    )

    # During the event, Tango leaves GTT; the RTT prober cannot see it.
    inside = (rtt_result.times >= EVENT.start + 20.0) & (
        rtt_result.times < EVENT.end
    )
    rtt_on_gtt = float(np.mean(rtt_result.choices[inside] == GTT))
    tango_on_gtt = float(np.mean(tango_result.choices[inside] == GTT))
    # Estimate blindness: the RTT/2 estimate of GTT barely moves.
    estimates = rtt.build_estimates(0.0, T1)
    est = estimates.series(GTT)
    est_before = float(np.mean(est.window(50.0, 99.0)[1]))
    est_during = float(np.mean(est.window(120.0, 219.0)[1]))
    truth_shift = 0.006
    emit(
        format_kv(
            [
                ("true forward shift (ms)", truth_shift * 1e3),
                ("RTT/2 estimate shift (ms)", (est_during - est_before) * 1e3),
                ("RTT prober time on degraded path", rtt_on_gtt),
                ("Tango time on degraded path", tango_on_gtt),
                (
                    "RTT estimate noise floor (ms, std)",
                    float(np.std(est.window(0.0, 99.0)[1])) * 1e3,
                ),
                (
                    "Tango measurement noise (ms, std)",
                    float(np.std(fwd.series(GTT).window(0.0, 99.0)[1])) * 1e3,
                ),
            ],
            title="asymmetry blindness and noise",
        )
    )

    assert abs(est_during - est_before) < truth_shift / 4  # blind
    assert rtt_on_gtt > 0.9  # stays on the degraded path
    assert tango_on_gtt < 0.1  # flees it
    assert tango_result.mean_delay < rtt_result.mean_delay
    # Edge/host noise dominates the RTT estimates.
    rtt_noise = float(np.std(est.window(0.0, 99.0)[1]))
    tango_noise = float(np.std(fwd.series(GTT).window(0.0, 99.0)[1]))
    assert rtt_noise > 3 * tango_noise
