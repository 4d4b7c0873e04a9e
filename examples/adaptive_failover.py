"""Adaptive failover around the paper's route-change event (Fig. 4 middle).

Replays the hour around hour 121.25 of the campaign: GTT's intradomain
route change bumps its one-way delay by 5 ms for ~10 minutes.  BGP never
reacts (the interdomain path is unchanged and BGP carries no performance
signal); Tango's hysteresis policy detours to Telia for exactly the
duration of the plateau and returns.

Prints the per-minute timeline: GTT's delay, the policy's chosen path,
and the delay the application actually experienced.

Run:
    python examples/adaptive_failover.py
"""

import numpy as np

from repro.analysis.replay import PolicyReplay
from repro.analysis.report import format_table, series_sparkline
from repro.core.policy import HysteresisSelector, StaticSelector
from repro.scenarios.vultr import ROUTE_CHANGE_HOUR, VultrDeployment

EVENT_S = ROUTE_CHANGE_HOUR * 3600.0
T0, T1 = EVENT_S - 900.0, EVENT_S + 1500.0
GTT = 2


def main() -> None:
    deployment = VultrDeployment()
    deployment.establish()
    labels = {t.path_id: t.short_label for t in deployment.tunnels("ny")}

    measured, true = deployment.run_fast_campaign("ny", T0, T1, interval_s=0.1)
    replay = PolicyReplay(true, decision_interval_s=1.0)
    pinned = replay.run(StaticSelector(GTT), T0, T1, name="pinned-GTT")
    tango = replay.run(
        HysteresisSelector(
            measured, margin_s=0.0005, dwell_s=5.0, fallback_index=GTT
        ),
        T0,
        T1,
        name="tango",
    )

    print("GTT one-way delay over the window (paper Fig. 4, middle):")
    print("  " + series_sparkline(true.series(GTT).values * 1e3, 76))

    rows = []
    for minute_start in np.arange(T0, T1, 120.0):
        mask = (tango.times >= minute_start) & (tango.times < minute_start + 120.0)
        if not np.any(mask):
            continue
        chosen = int(np.bincount(tango.choices[mask]).argmax())
        rows.append(
            {
                "t_min": (minute_start - EVENT_S) / 60.0,
                "gtt_ms": float(
                    np.mean(true.series(GTT).window(
                        minute_start, minute_start + 120.0
                    )[1])
                )
                * 1e3,
                "tango_path": labels[chosen],
                "tango_ms": float(np.mean(tango.achieved[mask])) * 1e3,
                "pinned_ms": float(np.mean(pinned.achieved[mask])) * 1e3,
            }
        )
    print(
        format_table(
            rows,
            title="two-minute bins relative to the event (t=0 is hour 121.25)",
        )
    )
    print(
        f"\nwindow means: tango {tango.mean_delay * 1e3:.3f} ms vs "
        f"pinned-GTT {pinned.mean_delay * 1e3:.3f} ms "
        f"({tango.switch_count} path switches)"
    )


if __name__ == "__main__":
    main()
