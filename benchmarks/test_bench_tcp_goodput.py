"""E6b (extension) — real TCP over Tango tunnels during the instability.

The analytic model (E6) shows head-of-line blocking; this benchmark runs
an actual Reno-style TCP transfer packet-by-packet through the Vultr
deployment while GTT suffers the Figure 4-right instability *with
elevated loss*, and compares:

* a transfer pinned to GTT (nominally the fastest path),
* the same transfer pinned to Telia (stable, 4 ms slower),

reproducing "should a packet experience delay during one of these
spikes, future application packets will be delivered out-of-order
(resulting in a reduction in TCP throughput)" with a real congestion
window, fast retransmits, and timeouts.
"""

import ipaddress

from conftest import emit

from repro.analysis.report import format_table
from repro.core.policy import StaticSelector
from repro.netsim.delaymodels import InstabilityEvent
from repro.netsim.links import WindowedLoss, replace_models
from repro.netsim.packet import Ipv6Header, Packet, UdpHeader
from repro.netsim.transport import connect_tcp
from repro.scenarios.vultr import VultrDeployment

TRANSFER_BYTES = 3_000_000  # ~2200 MSS segments
#: MSS clamped for tunnel overhead: 1500 MTU - 40 (inner IPv6) - 8 (inner
#: UDP) - 64 (Tango encapsulation) = 1388; use 1360 for slack.  (With a
#: 1400-byte MSS every segment exceeds the wide-area MTU once
#: encapsulated and the transfer deadlocks — the classic tunnel-MTU trap,
#: reproduced faithfully by the simulator's MTU accounting.)
MSS = 1360
EVENT = dict(start=2.0, duration=40.0)


def run_transfer(path_index: int, conn_id: int):
    deployment = VultrDeployment(include_events=False)
    deployment.establish()
    # Stage the instability (delay spikes + 3% loss) on GTT NY->LA.
    link = deployment.net.links["ny->la:GTT"]
    event = InstabilityEvent(
        start=EVENT["start"],
        duration=EVENT["duration"],
        spike_probability=0.04,
        spike_min=0.010,
        spike_max=0.050,
        seed=88,
    )
    replace_models(
        link,
        delay=link.delay.with_event(event),
        loss=WindowedLoss.around_events([event], elevated=0.03),
    )

    deployment.set_data_policy("ny", StaticSelector(path_index))
    ny, la = deployment.pairing.a, deployment.pairing.b

    def builder(src, dst, sport):
        def build():
            return Packet(
                headers=[
                    Ipv6Header(
                        src=ipaddress.IPv6Address(src),
                        dst=ipaddress.IPv6Address(dst),
                    ),
                    UdpHeader(sport=sport, dport=sport + 1),
                ],
                flow_label=conn_id,
            )

        return build

    sender, receiver, data_cb, ack_cb = connect_tcp(
        deployment.sim,
        send_data=deployment.sender_for("ny"),
        send_ack=deployment.sender_for("la"),
        build_data_packet=builder(
            str(ny.host_address(3)), str(la.host_address(3)), 6000
        ),
        build_ack_packet=builder(
            str(la.host_address(3)), str(ny.host_address(3)), 6002
        ),
        transfer_bytes=TRANSFER_BYTES,
        conn_id=conn_id,
        mss=MSS,
    )
    deployment.host_la.on_packet = data_cb
    deployment.host_ny.on_packet = ack_cb
    sender.start()
    deployment.net.run(until=120.0)
    return sender


def test_tcp_goodput_under_instability(benchmark):
    def run_both():
        return {
            "GTT (unstable)": run_transfer(2, conn_id=21),
            "Telia (stable)": run_transfer(1, conn_id=22),
        }

    results = benchmark.pedantic(run_both, rounds=1, iterations=1)
    rows = []
    for label, sender in results.items():
        stats = sender.stats
        rows.append(
            {
                "path": label,
                "done": sender.done,
                "seconds": stats.completed_at,
                "goodput_kbps": (
                    stats.goodput_bps() / 1e3 if sender.done else None
                ),
                "retx": stats.retransmissions,
                "fast_retx": stats.fast_retransmits,
                "timeouts": stats.timeouts,
            }
        )
    emit(
        format_table(
            rows, title="E6b — 3 MB TCP transfer through the instability"
        )
    )

    gtt = results["GTT (unstable)"]
    telia = results["Telia (stable)"]
    assert gtt.done and telia.done
    # The stable path wins despite its higher propagation delay.
    assert telia.stats.completed_at < gtt.stats.completed_at
    # And the mechanism is TCP's loss/reordering response, not magic:
    assert gtt.stats.retransmissions > 5
    assert gtt.stats.fast_retransmits + gtt.stats.timeouts > 0
    assert telia.stats.retransmissions == 0
