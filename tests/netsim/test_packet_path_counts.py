"""Counted, not timed: the packet path builds no outer header, scans no
prefix, re-derives no header fact and hashes no address per packet, a
probe round is one heap event per edge, a jitter stream draws once per
noise quantum and a window mean does not go through ``np.mean``.

A tunnel's outer IPv6 and UDP headers are built once
(``TangoTunnel.outer_headers``), a header's hop-limit successor once
(``Ipv6Header.decremented``), and ``Fib.lookup`` / ``TunnelTable.
tunnels_for`` answer a destination they have seen from a memo.  A
packet derives its header facts when it is built and keeps them through
encapsulation, hops and decapsulation; header addresses are interned, so
memo hits are identity hits on a stored hash; a link schedules a
delivery with no closure.  After a warm-up, constructions, scans,
derivations, stdlib address hashes and comparisons, and Python calls
are counted over a live Vultr run — exact on any host; each regression
would show up as a multiple of the packet count.  The memos are also
checked to forget on every route or tunnel change.  A delivered probe
ends in its generator's count, so the packets a run holds do not grow
with its length.
"""

import gc
import ipaddress
import math
import sys
from collections import Counter

import numpy as np
import pytest

from repro.core.policy import LowestDelaySelector
from repro.core.session import TelemetryMirror
from repro.core.tunnels import TangoTunnel, TunnelTable
from repro.dataplane.programs import TangoSenderProgram
from repro.netsim import delaymodels
from repro.netsim.delaymodels import GaussianJitterDelay
from repro.netsim.links import Link
from repro.netsim.node import Fib
from repro.netsim.packet import Ipv6Header, Packet, TangoHeader, UdpHeader
from repro.netsim.topology import Network
from repro.netsim.trace import PacketFactory, ProbeGenerator
from repro.scenarios.vultr import VultrDeployment
from repro.telemetry.store import MeasurementStore

EDGES = ("ny", "la")
WARM_UP_S = 0.5
UNTIL_S = 1.5


def probing_deployment() -> VultrDeployment:
    """Both edges probing every path, plus a 20 ms data stream from ny
    that takes the data policy's tunnel."""
    deployment = VultrDeployment(include_events=False)
    deployment.establish()
    for edge in EDGES:
        deployment.start_path_probes(edge)
    data = PacketFactory(
        src=str(deployment.pairing.a.host_address(4)),
        dst=str(deployment.pairing.b.host_address(4)),
        flow_label=9,
    )
    send = deployment.sender_for("ny")
    deployment.sim.call_every(0.02, lambda: send(data.build()))
    return deployment


def encapsulated(deployment) -> int:
    return sum(g.sender.encapsulated for g in deployment.gateways.values())


def test_no_outer_header_build_or_prefix_scan_per_packet(monkeypatch):
    deployment = probing_deployment()
    deployment.net.run(until=WARM_UP_S)
    built = Counter()
    for cls in (Ipv6Header, UdpHeader, TangoHeader):
        original = cls.__init__

        def counting(self, *args, _cls=cls, _original=original, **kwargs):
            built[_cls] += 1
            _original(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counting)
    contains = ipaddress.IPv6Network.__contains__
    scans = []

    def counting_contains(self, other):
        scans.append(other)
        return contains(self, other)

    monkeypatch.setattr(ipaddress.IPv6Network, "__contains__", counting_contains)
    before = encapsulated(deployment)
    deployment.net.run(until=UNTIL_S)
    packets = encapsulated(deployment) - before
    # 100 rounds of 4 probes per edge, plus 50 data packets.
    assert packets == 2 * 4 * 100 + 50
    assert built[Ipv6Header] == 0
    assert built[UdpHeader] == 0
    assert built[TangoHeader] == packets
    assert scans == []


def test_no_header_fact_derived_or_address_hashed_per_hop(monkeypatch):
    deployment = probing_deployment()
    deployment.net.run(until=WARM_UP_S)
    counts = Counter()

    def count(owner, name):
        original = vars(owner)[name]

        def counting(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counting)

    count(ipaddress.IPv6Address, "__hash__")
    count(ipaddress.IPv6Address, "__eq__")
    count(Packet, "_restack")
    count(Packet, "__init__")
    count(Packet, "replace_header")
    before = encapsulated(deployment)
    deployment.net.run(until=UNTIL_S)
    assert encapsulated(deployment) - before == 2 * 4 * 100 + 50
    # Every lookup key is interned: its own hash, identity hits.
    assert counts["__hash__"] == 0
    assert counts["__eq__"] == 0
    # A stack is derived when a packet is built or a header replaced,
    # never per hop, encapsulation or decapsulation.
    assert counts["__init__"] == 2 * 4 * 100 + 50
    assert counts["_restack"] == counts["__init__"] + counts["replace_header"]


#: Python calls the egress program makes to encapsulate one probe:
#: ``dst``, the tunnel lookup and the destination's stored hash (2), the
#: two-level probe selector (2), the switch clock (2: ``now_ns`` and
#: ``now``), the sequence stamp, the Tango header and its size (2), and
#: ``encapsulate``.  It was 17 while the tunnel check was two calls
#: (``is_tango_encapsulated`` and the ``tunneled`` property) and
#: simulation time was a property over a ``SimClock`` property, which a
#: switch clock read through one more call (``NodeClock.at``); 17 or 19
#: before that, by whether the memo's key was the very address object or
#: only an equal one (a stdlib ``__eq__`` pair).
SENDER_CALLS_PER_ENCAPSULATION = 11

#: Every Python call over the window (850 encapsulated packets), exact:
#: 75.8 per packet.  It was 99,816 (117.4 per packet) while time was
#: read through two properties (20.3 calls per packet), each event
#: advanced a ``SimClock`` (3.3), a lossless link drew its loss coin
#: (6.0), a jitter draw called ``_grid_index`` (3.2) and the programs
#: called for the tunnel flag (9.0).
WINDOW_CALLS = 64_413


def test_python_calls_per_encapsulated_packet_are_exact():
    deployment = probing_deployment()
    deployment.net.run(until=WARM_UP_S)
    sender = TangoSenderProgram.__call__.__code__
    links = Link.transmit.__code__.co_filename
    per_probe = Counter()
    lambdas = []
    frames = []
    window_calls = 0

    def profile(frame, event, arg):
        nonlocal window_calls
        if event == "call":
            window_calls += 1
            code = frame.f_code
            if code is sender:
                frames.append([frame.f_locals["packet"], 0])
            elif frames:
                frames[-1][1] += 1
            if code.co_name == "<lambda>" and code.co_filename == links:
                lambdas.append(frame)
        elif event == "return" and frame.f_code is sender:
            packet, calls = frames.pop()
            if packet.tunneled and packet.flow_label >= 1000:
                per_probe[calls] += 1

    # A cyclic collection inside the window would finalize earlier
    # tests' garbage (a suspended generator runs Python to close) and
    # charge it to whatever frame is live.
    gc.collect()
    gc.disable()
    before = encapsulated(deployment)
    sys.setprofile(profile)
    try:
        deployment.net.run(until=UNTIL_S)
    finally:
        sys.setprofile(None)
        gc.enable()
    assert encapsulated(deployment) - before == 2 * 4 * 100 + 50
    assert per_probe == {SENDER_CALLS_PER_ENCAPSULATION: 2 * 4 * 100}
    assert window_calls == WINDOW_CALLS
    # Deliveries are scheduled as partials: no closure per transmit.
    assert lambdas == []


def test_a_probe_round_is_one_heap_event_per_edge(monkeypatch):
    rounds, syncs = [], []
    emit, sync = ProbeGenerator._emit, TelemetryMirror.sync

    def counting_emit(self):
        rounds.append(self._sim.now)
        emit(self)

    def counting_sync(self, *args, **kwargs):
        syncs.append(self)
        return sync(self, *args, **kwargs)

    monkeypatch.setattr(ProbeGenerator, "_emit", counting_emit)
    monkeypatch.setattr(TelemetryMirror, "sync", counting_sync)
    deployment = VultrDeployment(include_events=False)
    deployment.establish()
    generators = [deployment.start_path_probes(edge) for edge in EDGES]
    events_before = deployment.sim.events_processed
    deployment.net.run(until=0.995)
    # Rounds at 0.00 .. 0.99 s: one firing per edge, one packet per path.
    assert len(set(rounds)) == 100
    assert len(rounds) == len(EDGES) * 100
    paths = sum(len(deployment.tunnels(edge)) for edge in EDGES)
    assert sum(g.sent for g in generators) == paths * 100
    # Every other event is a link delivery or a telemetry-mirror sync.
    deliveries = sum(l.stats.delivered for l in deployment.net.links.values())
    processed = deployment.sim.events_processed - events_before
    assert processed == len(rounds) + deliveries + len(syncs)


def live_packets() -> int:
    gc.collect()
    return sum(1 for o in gc.get_objects() if type(o) is Packet)


def test_held_packets_do_not_grow_with_run_length():
    """Probes end in their generator's count at the peer host: after a
    drain, a 4 s probe-only run holds as many packets as a 2 s one."""
    held = []
    for until_s in (2.0, 4.0):
        deployment = VultrDeployment(include_events=False)
        deployment.establish()
        generators = [deployment.start_path_probes(edge) for edge in EDGES]
        deployment.net.run(until=until_s)
        assert not any(
            p.flow_label >= 1000
            for host in deployment.hosts.values()
            for p in host.received_packets
        )
        deployment.stop_probes()
        deployment.net.run(until=until_s + 1.0)
        assert all(g.sent and g.delivered == g.sent for g in generators)
        held.append(live_packets())
        del deployment, generators
    assert held[0] == held[1]


def test_one_draw_per_noise_quantum_and_no_np_mean_per_window(monkeypatch):
    """Over the live window with ny's data on ``LowestDelaySelector``:
    the parent ran ``ndtri`` 2,550 times for 1,794 distinct (jitter
    model, grid index) pairs — a probe round crosses each access link
    at one instant — ran 2,750 ``_splitmix64_int`` frames (one per
    scalar draw), and called ``np.mean`` once per ``recent_delay`` read,
    200 times."""
    deployment = probing_deployment()
    deployment.set_data_policy(
        "ny", LowestDelaySelector(deployment.gateway("ny").outbound, window_s=1.0)
    )
    deployment.net.run(until=WARM_UP_S)
    counts = Counter()
    drawn = set()

    def count(owner, name):
        original = getattr(owner, name)

        def counting(*args, **kwargs):
            counts[name] += 1
            if name == "delay_at":
                model, t = args
                drawn.add((id(model), math.floor(t / 1e-4)))
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counting)

    count(delaymodels, "ndtri")
    count(delaymodels, "_splitmix64_int")
    count(GaussianJitterDelay, "delay_at")
    count(MeasurementStore, "recent_delay")
    count(np, "mean")
    deployment.net.run(until=UNTIL_S)
    assert counts["delay_at"] == 2550
    assert counts["ndtri"] == len(drawn) == 1794
    assert counts["_splitmix64_int"] == 0
    assert counts["recent_delay"] == 200
    assert counts["mean"] == 0


class TestFibMemo:
    def lookup_pair(self):
        net = Network()
        a, b = net.add_host("a"), net.add_host("b")
        link_a = net.add_link("a->b", a, b, delay_s=0.001)
        link_b = net.add_link("b->a", b, a, delay_s=0.001)
        return Fib(), link_a, link_b

    def test_add_route_after_a_cached_miss(self):
        fib, link_a, _ = self.lookup_pair()
        address = ipaddress.IPv6Address("2001:db8:1::5")
        assert fib.lookup(address) is None
        fib.add_route("2001:db8:1::/48", link_a)
        assert fib.lookup(address).links == [link_a]

    def test_more_specific_route_after_a_cached_hit(self):
        fib, link_a, link_b = self.lookup_pair()
        address = ipaddress.IPv6Address("2001:db8:1::5")
        fib.add_route("2001:db8::/32", link_a)
        assert fib.lookup(address).links == [link_a]
        fib.add_route("2001:db8:1::/48", link_b)
        assert fib.lookup(address).links == [link_b]

    def test_remove_route_after_a_cached_hit(self):
        fib, link_a, link_b = self.lookup_pair()
        address = ipaddress.IPv6Address("2001:db8:1::5")
        fib.add_route("2001:db8::/32", link_a)
        fib.add_route("2001:db8:1::/48", link_b)
        assert fib.lookup(address).links == [link_b]
        assert fib.remove_route("2001:db8:1::/48")
        assert fib.lookup(address).links == [link_a]
        fib.remove_route("2001:db8::/32")
        assert fib.lookup(address) is None

    def test_replacing_a_route_after_a_cached_hit(self):
        fib, link_a, link_b = self.lookup_pair()
        address = ipaddress.IPv6Address("2001:db8:1::5")
        fib.add_route("2001:db8:1::/48", link_a)
        assert fib.lookup(address).links == [link_a]
        fib.add_route("2001:db8:1::/48", link_b)
        assert fib.lookup(address).links == [link_b]


def tunnel(path_id: int) -> TangoTunnel:
    return TangoTunnel(
        path_id=path_id,
        label=f"path {path_id}",
        local_endpoint=ipaddress.IPv6Address(f"2001:db8:a{path_id}::1"),
        remote_endpoint=ipaddress.IPv6Address(f"2001:db8:b{path_id}::1"),
        remote_prefix=ipaddress.IPv6Network(f"2001:db8:b{path_id}::/48"),
    )


class TestTunnelTableMemo:
    HOSTS = ipaddress.IPv6Network("2001:db8:20::/48")
    ADDRESS = ipaddress.IPv6Address("2001:db8:20::9")

    def test_add_after_a_cached_miss(self):
        table = TunnelTable()
        assert table.tunnels_for(self.ADDRESS) == []
        table.add(self.HOSTS, tunnel(0))
        assert [t.path_id for t in table.tunnels_for(self.ADDRESS)] == [0]

    def test_add_after_a_cached_hit(self):
        table = TunnelTable()
        table.add(self.HOSTS, tunnel(0))
        assert [t.path_id for t in table.tunnels_for(self.ADDRESS)] == [0]
        table.add(self.HOSTS, tunnel(1))
        assert [t.path_id for t in table.tunnels_for(self.ADDRESS)] == [0, 1]

    def test_add_for_another_prefix_after_a_cached_miss(self):
        table = TunnelTable()
        table.add(self.HOSTS, tunnel(0))
        other = ipaddress.IPv6Address("2001:db8:30::9")
        assert table.tunnels_for(other) == []
        table.add(ipaddress.IPv6Network("2001:db8:30::/48"), tunnel(1))
        assert [t.path_id for t in table.tunnels_for(other)] == [1]


@pytest.mark.parametrize("path_id", [0, 3])
def test_tunnel_outer_headers_are_its_endpoints(path_id):
    t = tunnel(path_id)
    outer_ip, outer_udp = t.outer_headers
    assert (outer_ip.src, outer_ip.dst) == (t.local_endpoint, t.remote_endpoint)
    assert outer_udp.sport == t.sport
    assert tunnel(path_id).outer_headers == t.outer_headers
