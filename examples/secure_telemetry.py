"""Trustworthy telemetry under an on-path attacker (paper Section 6).

"Any data-driven system working in the wide-area is vulnerable to
on-path and off-path attackers who might try to compromise the
monitoring process.  For instance, an attacker might try to inject, drop
or modify some of the packets used for measurements."

This example stages exactly that attack against the Vultr deployment: a
compromised transit hop on the *best* path (GTT) rewrites Tango
timestamps to make GTT look slower than NTT, trying to push the victim's
traffic onto a path the attacker controls.

Two runs: without telemetry authentication the attack succeeds (traffic
leaves GTT); with the shared-key MACs of `repro.telemetry.auth` every
tampered packet is rejected at verification and the routing decision
stands.

Run:
    python examples/secure_telemetry.py
"""

from dataclasses import replace

from repro.analysis.report import format_table
from repro.core.policy import LowestDelaySelector
from repro.scenarios.vultr import VultrDeployment

ATTACK_EXTRA_NS = 30_000_000  # +30 ms forged onto tampered timestamps
TAMPER_EVERY = 3  # forge every third GTT packet (stay stealthy)
GTT = 2
_attack_counter = {"n": 0}


def attacker_program(switch, packet):
    """On-path tamperer: inflate every third GTT-tunnel timestamp by
    30 ms (rewriting the timestamp backwards in time makes the measured
    one-way delay larger — the path looks congested).  Tampering only a
    fraction keeps the attack stealthier than dropping the path outright
    — which an on-path adversary could always do, and which no
    measurement scheme can prevent (only detect)."""
    tango = packet.tango
    if tango is not None and tango.path_id == GTT:
        _attack_counter["n"] += 1
        if _attack_counter["n"] % TAMPER_EVERY == 0:
            packet.replace_header(
                packet.headers.index(tango),
                replace(tango, timestamp_ns=tango.timestamp_ns - ATTACK_EXTRA_NS),
            )
    return packet


def run(auth_key: bytes) -> dict:
    deployment = VultrDeployment(include_events=False, auth_key=auth_key)
    deployment.establish()
    # Compromise the receiving border's upstream: tamper before the
    # receiver program sees the packet (ingress program attached first
    # runs first, so prepend the attacker).
    deployment.gw_la_switch.ingress_programs.insert(0, attacker_program)

    deployment.start_path_probes("ny", interval_s=0.01)
    deployment.set_data_policy(
        "ny", LowestDelaySelector(deployment.gateway_ny.outbound, window_s=1.0)
    )

    # Data stream whose path choice the attacker wants to steer.
    from repro.netsim.trace import PacketFactory, ProbeGenerator

    factory = PacketFactory(
        src=str(deployment.pairing.a.host_address(5)),
        dst=str(deployment.pairing.b.host_address(5)),
        flow_label=77,
    )
    data = ProbeGenerator(
        deployment.sim, [factory], deployment.sender_for("ny"), interval=0.02
    )
    data.start(at=2.0)
    deployment.net.run(until=8.0)

    delivered = [
        p for p in deployment.host_la.received_packets if p.flow_label == 77
    ]
    on_gtt = sum(1 for p in delivered if p.meta["tango_path_id"] == GTT)
    receiver = deployment.gateway_la.receiver
    return {
        "auth": "enabled" if auth_key else "disabled",
        "data_packets": len(delivered),
        "fraction_on_gtt": on_gtt / max(len(delivered), 1),
        "rejected_forgeries": receiver.rejected_auth,
    }


def main() -> None:
    rows = [run(b""), run(b"shared-pairing-key!!")]
    print(
        format_table(
            rows,
            title=(
                "on-path timestamp forgery against GTT "
                f"(+{ATTACK_EXTRA_NS / 1e6:.0f} ms)"
            ),
        )
    )
    print(
        "\nWithout authentication the forged measurements inflate GTT's"
        "\napparent delay and steer the victim's traffic off its best"
        "\npath.  With the shared-key MAC every tampered packet fails"
        "\nverification and is dropped: the surviving clean measurements"
        "\nkeep the routing decision on GTT, and the rejection counter"
        "\nitself is the alarm that someone is tampering."
    )


if __name__ == "__main__":
    main()
