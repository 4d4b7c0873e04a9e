"""The paper's motivating application: drone analytics (Section 2.2).

ASX (an access network flying drones) streams telemetry to its VMs in
ASY (a cost-effective cloud) for real-time adaptive control.  Occasional
wide-area delay spikes break the control loop's deadline.

This example runs that workload packet-level over the Vultr deployment
during an instability event and compares:

* **BGP default** — pinned to the provider-preferred path (NTT);
* **Tango** — jitter-aware adaptive selection over the measured tunnels.

The metric an operator cares about: fraction of control messages that
arrive within the 40 ms control-loop deadline, and latency statistics.

Run:
    python examples/drone_analytics.py
"""

from repro.analysis.report import format_table
from repro.core.policy import JitterAwareSelector, StaticSelector
from repro.netsim.delaymodels import InstabilityEvent
from repro.netsim.links import replace_models
from repro.netsim.trace import DroneTelemetryWorkload, PacketFactory
from repro.scenarios.vultr import VultrDeployment

DEADLINE_S = 0.040
RUN_SECONDS = 30.0
FLOW_DRONE = 42


def run_workload(policy_name: str) -> dict:
    deployment = VultrDeployment(include_events=False)
    deployment.establish()

    # Inject a (time-shifted) instability window on the NY->LA GTT path
    # — the Figure 4 (right) event, early enough to hit this short run.
    link = deployment.net.links["ny->la:GTT"]
    replace_models(
        link,
        delay=link.delay.with_event(
            InstabilityEvent(
                start=10.0,
                duration=15.0,
                spike_probability=0.05,
                spike_min=0.010,
                spike_max=0.050,
                seed=77,
            )
        ),
    )

    deployment.start_path_probes("ny")
    if policy_name == "tango":
        deployment.set_data_policy(
            "ny",
            JitterAwareSelector(
                deployment.gateway_ny.outbound, window_s=1.0, jitter_weight=5.0
            ),
        )
    else:
        deployment.set_data_policy("ny", StaticSelector(0))  # BGP default

    # Stamp application-level latency on delivery at the cloud host.
    latencies: list[float] = []

    def on_delivery(packet, now):
        latencies.append(now - packet.meta["sent_at"])

    deployment.host_la.bind(FLOW_DRONE, on_delivery)

    factory = PacketFactory(
        src=str(deployment.pairing.a.host_address(3)),
        dst=str(deployment.pairing.b.host_address(3)),
        payload_bytes=256,
        flow_label=FLOW_DRONE,
    )
    workload = DroneTelemetryWorkload(
        deployment.sim,
        factory,
        deployment.sender_for("ny"),
        rate_hz=100.0,
        deadline_s=DEADLINE_S,
    )
    workload.start(until=RUN_SECONDS)
    deployment.net.run(until=RUN_SECONDS + 1.0)

    on_time = sum(1 for latency in latencies if latency <= DEADLINE_S)
    return {
        "policy": policy_name,
        "sent": workload.sent,
        "delivered": len(latencies),
        "on_time_fraction": on_time / max(len(latencies), 1),
        "worst_latency_ms": max(latencies) * 1e3 if latencies else 0.0,
        "mean_latency_ms": (
            sum(latencies) / len(latencies) * 1e3 if latencies else 0.0
        ),
    }


def main() -> None:
    rows = [run_workload(policy) for policy in ("bgp-default", "tango")]
    print(format_table(rows, title="drone control-loop deadline performance"))
    print(
        "\nThe BGP default path (NTT) sits within a millisecond of the"
        "\ndeadline and misses whenever noise pushes it over; Tango keeps"
        "\nan ~8 ms margin by riding GTT while it is healthy and abandons"
        "\nit during the instability (its worst case is the handful of"
        "\nspiked packets before the policy reacts)."
    )


if __name__ == "__main__":
    main()
