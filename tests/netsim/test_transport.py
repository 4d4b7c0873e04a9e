"""Tests for the Reno-style TCP transport."""

import ipaddress

import pytest

from repro.netsim.delaymodels import ConstantDelay
from repro.netsim.links import ConstantLoss
from repro.netsim.packet import Ipv6Header, Packet, UdpHeader
from repro.netsim.topology import Network
from repro.netsim.transport import TcpSender, connect_tcp

MSS = 1400


def build_pipe(delay_s=0.020, loss=0.0, bandwidth_bps=None):
    """host-a <-> host-b over a single bidirectional path."""
    net = Network()
    a = net.add_host("a")
    b = net.add_host("b")
    fwd = net.add_link(
        "fwd",
        a,
        b,
        delay=ConstantDelay(delay_s),
        loss=ConstantLoss(loss),
        bandwidth_bps=bandwidth_bps,
    )
    rev = net.add_link("rev", b, a, delay=ConstantDelay(delay_s))
    return net, a, b, fwd, rev


def make_builder(src, dst):
    def build():
        return Packet(
            headers=[
                Ipv6Header(
                    src=ipaddress.IPv6Address(src),
                    dst=ipaddress.IPv6Address(dst),
                ),
                UdpHeader(sport=5000, dport=5001),
            ]
        )

    return build


def run_transfer(
    transfer_bytes, delay_s=0.020, loss=0.0, bandwidth_bps=None, until=120.0
):
    net, a, b, fwd, rev = build_pipe(delay_s, loss, bandwidth_bps)
    sender, receiver, data_cb, ack_cb = connect_tcp(
        net.sim,
        send_data=lambda p: fwd.transmit(net.sim, p),
        send_ack=lambda p: rev.transmit(net.sim, p),
        build_data_packet=make_builder("2001:db8:1::1", "2001:db8:2::1"),
        build_ack_packet=make_builder("2001:db8:2::1", "2001:db8:1::1"),
        transfer_bytes=transfer_bytes,
    )
    b.on_packet = data_cb
    a.on_packet = ack_cb
    sender.start()
    net.run(until=until)
    return sender, receiver


class TestCleanTransfer:
    def test_transfer_completes(self):
        sender, receiver = run_transfer(200 * MSS)
        assert sender.done
        assert sender.stats.completed_at is not None
        assert receiver.expected == 200 * MSS
        assert sender.stats.retransmissions == 0

    def test_slow_start_doubles_cwnd(self):
        net, a, b, fwd, rev = build_pipe()
        sender, receiver, data_cb, ack_cb = connect_tcp(
            net.sim,
            send_data=lambda p: fwd.transmit(net.sim, p),
            send_ack=lambda p: rev.transmit(net.sim, p),
            build_data_packet=make_builder("2001:db8:1::1", "2001:db8:2::1"),
            build_ack_packet=make_builder("2001:db8:2::1", "2001:db8:1::1"),
            transfer_bytes=5000 * MSS,
        )
        b.on_packet = data_cb
        a.on_packet = ack_cb
        sender.start()
        initial = sender.cwnd
        net.run(until=0.045)  # one RTT: the whole IW is acked
        assert sender.cwnd == pytest.approx(2 * initial, rel=0.05)

    def test_goodput_tracks_rtt(self):
        """Same transfer, doubled RTT -> roughly halved goodput while
        window-limited."""
        fast, _ = run_transfer(500 * MSS, delay_s=0.010)
        slow, _ = run_transfer(500 * MSS, delay_s=0.020)
        assert fast.stats.completed_at < slow.stats.completed_at

    def test_last_segment_may_be_short(self):
        sender, receiver = run_transfer(MSS + 17)
        assert sender.done
        assert receiver.expected == MSS + 17


class TestLossRecovery:
    def test_lossy_path_still_completes(self):
        sender, receiver = run_transfer(300 * MSS, loss=0.02, until=300.0)
        assert sender.done
        assert sender.stats.retransmissions > 0
        assert receiver.expected == 300 * MSS

    def test_loss_reduces_goodput(self):
        clean, _ = run_transfer(300 * MSS, loss=0.0, until=300.0)
        lossy, _ = run_transfer(300 * MSS, loss=0.02, until=300.0)
        assert clean.stats.completed_at < lossy.stats.completed_at

    def test_fast_retransmit_engages_before_timeout(self):
        sender, _ = run_transfer(300 * MSS, loss=0.01, until=300.0)
        assert sender.stats.fast_retransmits > 0

    def test_total_loss_triggers_timeouts_not_livelock(self):
        net, a, b, fwd, rev = build_pipe(loss=1.0)
        sender, receiver, data_cb, ack_cb = connect_tcp(
            net.sim,
            send_data=lambda p: fwd.transmit(net.sim, p),
            send_ack=lambda p: rev.transmit(net.sim, p),
            build_data_packet=make_builder("2001:db8:1::1", "2001:db8:2::1"),
            build_ack_packet=make_builder("2001:db8:2::1", "2001:db8:1::1"),
            transfer_bytes=10 * MSS,
        )
        b.on_packet = data_cb
        a.on_packet = ack_cb
        sender.start()
        net.run(until=30.0)
        assert not sender.done
        assert sender.stats.timeouts >= 3
        assert sender.cwnd == pytest.approx(MSS)


class TestValidation:
    def test_bad_parameters(self):
        net = Network()
        with pytest.raises(ValueError):
            TcpSender(net.sim, lambda p: None, lambda: None, transfer_bytes=0)
        with pytest.raises(ValueError):
            TcpSender(
                net.sim, lambda p: None, lambda: None, transfer_bytes=10, mss=0
            )

    def test_receiver_ignores_foreign_connections(self):
        sender, receiver = run_transfer(10 * MSS)
        before = receiver.received_segments
        foreign = make_builder("2001:db8:9::1", "2001:db8:2::1")()
        foreign.meta["tcp_conn"] = 999
        foreign.meta["tcp_seq"] = 0
        foreign.meta["tcp_is_ack"] = False
        receiver.on_segment(foreign, 0.0)
        assert receiver.received_segments == before
