"""E8 / Section 3 ablation — why Tango tunnels before measuring.

Paper: "Tango tunnels traffic before forwarding it to each path to avoid
unpredictable path diversity (e.g., due to 5-tuple hashing in ECMP)
which will result in measuring multiple paths as one."

Packet-level experiment on a fabric whose single BGP path hides three
ECMP sub-paths at 30/35/41 ms:

* an unpinned prober (fresh source port per probe, the classic
  traceroute/ping pathology) sees a multi-modal blend whose variance
  says nothing about any real path;
* the same probes inside one Tango tunnel (fixed outer 5-tuple) stick
  to a single sub-path and measure it cleanly.

Section 6 turns the pathology into a knob: the same unpinned probes, kept
with their source ports, are what ``EcmpMapper`` clusters back into the
three sub-paths — after which picking a port picks a sub-path.
"""

import ipaddress

import numpy as np
from conftest import emit

from repro.analysis.report import format_kv
from repro.core.ecmp_probing import EcmpMapper
from repro.dataplane.encap import encapsulate, tunnel_headers
from repro.netsim.packet import Ipv6Header, Packet, TangoHeader, UdpHeader
from repro.scenarios.topologies import build_ecmp_fanout

PROBES = 400


def probe(sport, dst="2001:db8:ecf::9"):
    return Packet(
        headers=[
            Ipv6Header(
                src=ipaddress.IPv6Address("2001:db8:ec0::1"),
                dst=ipaddress.IPv6Address(dst),
            ),
            UdpHeader(sport=sport, dport=33434),
        ],
        payload_bytes=16,
    )


def run_unpinned():
    fabric = build_ecmp_fanout()
    net = fabric.net
    src, dst = net.node(fabric.src_name), net.node(fabric.dst_name)
    arrivals = []
    mapper = EcmpMapper()

    def measure(switch, packet):
        delay = switch.sim.now - packet.created_at
        arrivals.append(delay)
        mapper.observe(packet.five_tuple().sport, delay)

    dst.attach_ingress(measure)
    for i in range(PROBES):
        net.sim.schedule_at(
            i * 0.01, lambda i=i: net.inject(src, probe(sport=20000 + i))
        )
    net.run()
    return np.asarray(arrivals), mapper.build_map()


def run_tunneled():
    fabric = build_ecmp_fanout()
    net = fabric.net
    src, dst = net.node(fabric.src_name), net.node(fabric.dst_name)
    arrivals = []
    dst.attach_ingress(
        lambda s, p: (arrivals.append(s.sim.now - p.created_at), None)[1]
    )

    outer = tunnel_headers("2001:db8:eca::1", "2001:db8:eca::2")

    def send(i):
        packet = probe(sport=20000 + i)
        encapsulate(packet, outer, TangoHeader(timestamp_ns=0, seq=i, path_id=0))
        net.inject(src, packet)

    for i in range(PROBES):
        net.sim.schedule_at(i * 0.01, lambda i=i: send(i))
    net.run()
    return np.asarray(arrivals)


def test_ecmp_measurement_blur(benchmark):
    unpinned, ecmp_map = benchmark(run_unpinned)
    tunneled = run_tunneled()

    emit(
        format_kv(
            [
                ("unpinned probes", unpinned.size),
                ("unpinned mean (ms)", float(np.mean(unpinned)) * 1e3),
                ("unpinned std (ms)", float(np.std(unpinned)) * 1e3),
                (
                    "unpinned modes seen",
                    len(np.unique(np.round(unpinned * 1e3 / 5) * 5)),
                ),
                ("tunneled mean (ms)", float(np.mean(tunneled)) * 1e3),
                ("tunneled std (ms)", float(np.std(tunneled)) * 1e3),
                (
                    "recovered sub-paths (ms x ports)",
                    ", ".join(
                        f"{c.mean_delay_s * 1e3:.2f} x {len(c.ports)}"
                        for c in ecmp_map.clusters
                    ),
                ),
                ("port for the fastest sub-path", ecmp_map.port_for_fastest()),
            ],
            title="E8 — ECMP blur vs tunnel pinning",
        )
    )

    assert unpinned.size == PROBES and tunneled.size == PROBES
    # Unpinned probing blends the 30/35/41 ms sub-paths: its spread is
    # dominated by mode separation (milliseconds), not path jitter.
    assert float(np.std(unpinned)) > 3e-3
    # The tunnel sticks to one sub-path: spread is the sub-path's own
    # 0.05 ms jitter, two orders of magnitude tighter.
    assert float(np.std(tunneled)) < 2e-4
    # The tunneled mean matches one (and only one) of the real sub-paths.
    modes = np.asarray([0.030, 0.035, 0.041])
    distance = np.abs(modes - float(np.mean(tunneled) - 0.0002))
    assert float(np.min(distance)) < 5e-4
    # The unpinned series is multi-modal: every sub-path contributes a
    # healthy share of samples, i.e. it "measures multiple paths as one".
    for mode in modes:
        share = float(np.mean(np.abs(unpinned - 0.0002 - mode) < 1e-3))
        assert share > 0.10, f"mode {mode}: share {share}"
    # Kept with their ports, the same probes give the sub-paths back.
    assert ecmp_map.sub_path_count == 3
    recovered = [c.mean_delay_s for c in ecmp_map.clusters]
    assert np.allclose(recovered, modes, atol=5e-4), recovered
