"""E11 (extension) — failure recovery: Tango vs BGP convergence.

The paper's Section 3 motivates per-packet path control with BGP's
sluggishness: short-term route changes "could overwhelm the control
plane or [are] too short-lived for BGP's several minute convergence
time".  This experiment quantifies the gap on a hard path failure:

* at t=5 s, the NY→LA GTT path (carrying the data) is blackholed;
* **Tango**: measurements for the dead tunnel stop arriving, its
  trailing window empties, and the delay-based policy fails over to the
  next-best live path — recovery within roughly the policy window;
* **BGP**: the interdomain control plane needs a convergence wave
  (``CONVERGENCE_DELAY_S``, the literature's multi-minute figure) before
  the default path moves.

Packet-level, end to end.
"""

import numpy as np
from conftest import emit

from repro.analysis.report import format_kv
from repro.bgp.network import CONVERGENCE_DELAY_S
from repro.core.policy import LowestDelaySelector
from repro.netsim.trace import PacketFactory
from repro.scenarios.vultr import VultrDeployment

FAIL_AT = 5.0
RUN_UNTIL = 12.0
DATA_RATE_GAP = 0.02
FLOW_DATA = 9


def run_failover():
    deployment = VultrDeployment(include_events=False)
    deployment.establish()
    deployment.start_path_probes("ny", interval_s=0.01)
    policy = LowestDelaySelector(deployment.gateway_ny.outbound, window_s=1.0)
    deployment.set_data_policy("ny", policy)

    factory = PacketFactory(
        src=str(deployment.pairing.a.host_address(4)),
        dst=str(deployment.pairing.b.host_address(4)),
        flow_label=FLOW_DATA,
    )
    send = deployment.sender_for("ny")
    deliveries: list[tuple[float, float, int]] = []  # (sent, received, path)

    def on_delivery(packet, now):
        deliveries.append((packet.meta["sent"], now, packet.meta["tango_path_id"]))

    deployment.host_la.bind(FLOW_DATA, on_delivery)

    def emit_data():
        packet = factory.build()
        packet.meta["sent"] = deployment.sim.now
        send(packet)

    deployment.sim.call_every(DATA_RATE_GAP, emit_data)
    deployment.fail_path("ny", "GTT", at=FAIL_AT)
    deployment.net.run(until=RUN_UNTIL)
    return deliveries


def test_failover_vs_bgp_convergence(benchmark):
    deliveries = benchmark.pedantic(run_failover, rounds=1, iterations=1)

    sent_times = np.asarray([d[0] for d in deliveries])
    paths = np.asarray([d[2] for d in deliveries])

    # Before the failure, data rides GTT (path 2) once measurements warm up.
    warm = (sent_times > 2.0) & (sent_times < FAIL_AT)
    assert float(np.mean(paths[warm] == 2)) > 0.95

    # Packets sent right after the failure on GTT are lost; recovery time
    # is the gap until deliveries resume (on another path).
    lost_window = sent_times[(sent_times >= FAIL_AT)]
    first_recovered = float(np.min(lost_window)) if lost_window.size else None
    assert first_recovered is not None
    tango_recovery = first_recovered - FAIL_AT
    after = paths[sent_times >= first_recovered]
    recovered_path = int(after[0])

    emit(
        format_kv(
            [
                ("failure at (s)", FAIL_AT),
                ("tango recovery (s)", tango_recovery),
                ("recovered onto path", recovered_path),
                ("bgp convergence (s, literature)", CONVERGENCE_DELAY_S),
                ("speedup", CONVERGENCE_DELAY_S / max(tango_recovery, 1e-9)),
            ],
            title="E11 — failure recovery",
        )
    )

    # Tango recovers within ~its measurement window (1 s) + slack.
    assert tango_recovery < 2.0
    # It fails over to a *live* path, not the dead one.
    assert recovered_path != 2
    # And every subsequent packet keeps flowing.
    assert float(np.mean(after != 2)) > 0.99
    # The gap to BGP is two orders of magnitude.
    assert CONVERGENCE_DELAY_S / tango_recovery > 50.0
