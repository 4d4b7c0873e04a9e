"""E14 (extension) — resilient transport: crash recovery + degraded OWD.

One resilient edge (reliable telemetry channel, RTT-probe fallback,
journaled controller under a supervisor) rides out a 3 s telemetry
blackout and a mid-run controller crash.  The table reports:

* **recovery time** — crash detection to warm restart, versus BGP's
  convergence delay (the no-controller alternative for rerouting);
* **degraded-mode OWD penalty** — mean excess one-way delay of the
  selector's choice over the true-best path while running on local
  RTT-probe estimates, versus the same regret in cooperative mode.

Shape assertions: the crash is recovered in under 2 simulated seconds
(two orders faster than BGP), degraded mode engages within the staleness
horizon and heals afterwards, and the degraded-mode penalty stays under
a millisecond — the paper's cooperative feed is better, but losing it
degrades selection, not connectivity.
"""

import numpy as np
from conftest import emit

from repro.analysis.report import format_kv
from repro.bgp.network import CONVERGENCE_DELAY_S
from repro.core.controller import QuarantinePolicy
from repro.core.policy import LowestDelaySelector
from repro.faults import FaultEvent, FaultInjector, FaultPlan
from repro.netsim.trace import PacketFactory
from repro.resilience import (
    ChannelConfig,
    ControllerJournal,
    DegradedModeConfig,
    RttFallbackEstimator,
)
from repro.scenarios.vultr import VultrDeployment

DROP_AT, DROP_FOR = 5.0, 3.0
CRASH_AT = 12.0
HORIZON_S = 0.5
RUN_UNTIL = 20.0
WARMUP_S = 2.0  # selector windows still filling; excluded from regret

PLAN = FaultPlan(
    name="e14-resilience",
    seed=23,
    events=(
        FaultEvent(
            "telemetry_drop",
            at=DROP_AT,
            duration=DROP_FOR,
            params={"edge": "ny"},
        ),
        FaultEvent("controller_crash", at=CRASH_AT, params={"edge": "ny"}),
    ),
)


def run_campaign():
    deployment = VultrDeployment(
        include_events=False,
        telemetry_channel=ChannelConfig(report_interval_s=0.1),
    )
    deployment.establish()
    deployment.start_path_probes("ny")
    estimator = RttFallbackEstimator.for_deployment(deployment, "ny")
    estimator.start()
    journal = ControllerJournal(checkpoint_every_ticks=10)
    controller = deployment.start_controller(
        "ny",
        LowestDelaySelector(deployment.gateway_ny.outbound, window_s=1.0),
        interval_s=0.1,
        staleness_s=HORIZON_S,
        quarantine=QuarantinePolicy(),
        degraded=DegradedModeConfig(
            estimates=estimator.estimates, horizon_s=HORIZON_S
        ),
        journal=journal,
    )
    supervisor = deployment.supervisors["ny"]

    factory = PacketFactory(
        src=str(deployment.pairing.a.host_address(4)),
        dst=str(deployment.pairing.b.host_address(4)),
        flow_label=9,
    )
    send = deployment.sender_for("ny")
    deployment.sim.call_every(0.02, lambda: send(factory.build()))

    FaultInjector(deployment, PLAN).arm()
    deployment.net.run(until=RUN_UNTIL)
    return deployment, controller, supervisor


def regret_by_mode(deployment, controller):
    """Per-mode mean/max excess OWD (ms) of the chosen path over the
    true-best path, from the calibrated ground-truth delay models."""
    mask = (controller.choice_trace.values >= 0) & (
        controller.choice_trace.times >= WARMUP_S
    )
    times = controller.choice_trace.times[mask]
    choices = controller.choice_trace.values[mask]
    table = deployment.calibrations["ny"]
    delays = {
        t.path_id: table[t.short_label].build(False).delays(times)
        for t in deployment.tunnels("ny")
    }
    best = np.vstack(list(delays.values())).min(axis=0)
    chosen = np.array([delays[int(c)][i] for i, c in enumerate(choices)])
    regret_ms = (chosen - best) * 1e3

    marks = [(m.t, m.mode) for m in controller.mode_log]

    def mode_at(t):
        mode = "cooperative"
        for mark_t, mark_mode in marks:
            if t < mark_t:
                break
            mode = mark_mode
        return mode

    modes = np.array([mode_at(t) for t in times])
    out = {}
    for mode in ("cooperative", "degraded"):
        sel = modes == mode
        out[mode] = (
            int(sel.sum()),
            float(regret_ms[sel].mean()) if sel.any() else float("nan"),
            float(regret_ms[sel].max()) if sel.any() else float("nan"),
        )
    return out


def test_resilience_recovery_and_degraded_penalty(benchmark):
    deployment, controller, supervisor = benchmark.pedantic(
        run_campaign, rounds=1, iterations=1
    )

    recovery = supervisor.recovery_times()
    regret = regret_by_mode(deployment, controller)
    downgrades = [m.t for m in controller.mode_log if m.mode == "degraded"]
    upgrades = [m.t for m in controller.mode_log if m.mode == "cooperative"]
    coop_n, coop_mean, _ = regret["cooperative"]
    deg_n, deg_mean, deg_max = regret["degraded"]

    emit(
        format_kv(
            [
                ("crashes", f"{len(recovery)}"),
                ("recovery_s", f"{recovery[0]:.3f}"),
                ("bgp_convergence_s", f"{CONVERGENCE_DELAY_S:.0f}"),
                ("speedup_vs_bgp", f"{CONVERGENCE_DELAY_S / recovery[0]:.0f}x"),
                ("degraded_enter_s", f"{downgrades[0]:.2f}"),
                ("degraded_exit_s", f"{upgrades[0]:.2f}"),
                ("degraded_ticks", f"{deg_n}"),
                ("owd_regret_coop_ms", f"{coop_mean:.4f}"),
                ("owd_regret_degraded_ms", f"{deg_mean:.4f}"),
                ("owd_regret_degraded_max_ms", f"{deg_max:.4f}"),
            ],
            title="Resilient transport: crash recovery + degraded OWD (E14)",
        )
    )

    # Crash recovered warm, two orders faster than BGP convergence.
    assert supervisor.restarts == 1
    assert controller.running
    assert recovery[0] < 2.0
    assert CONVERGENCE_DELAY_S / recovery[0] > 100
    # Degraded mode engaged within the horizon of the blackout (plus a
    # couple of control ticks) and healed after the mirror returned.
    assert DROP_AT < downgrades[0] <= DROP_AT + HORIZON_S + 0.2
    assert upgrades and upgrades[0] > DROP_AT + DROP_FOR
    assert controller.mode == "cooperative"
    assert deg_n > 0
    # Local RTT-probe selection costs at most a millisecond of OWD here:
    # degraded means slightly worse choices, never lost connectivity.
    assert deg_mean < 1.0
    assert coop_mean < 1.0
