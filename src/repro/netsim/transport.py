"""A Reno-style TCP transport over the packet simulator.

The paper's Section 5 argues that delay spikes hurt TCP twice: in-order
delivery stalls the application, and spurious reordering/timeouts shrink
the congestion window.  :mod:`repro.analysis.tcp_model` captures the
first effect analytically; this module provides the real thing — an
event-driven sender/receiver pair with slow start, congestion avoidance,
fast retransmit on three duplicate ACKs, and RFC 6298 RTO estimation —
so the claim can be validated packet-by-packet over Tango tunnels.

Deliberately simplified where the simplification cannot change the
studied phenomena: no SACK, no delayed ACKs, no Nagle, byte-counting
window arithmetic in MSS-sized segments.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from ..validate import positive
from .events import Event, Simulator
from .packet import Packet

__all__ = ["TcpStats", "TcpSender", "TcpReceiver", "connect_tcp"]

#: meta keys used on segment/ack packets.
META_SEQ = "tcp_seq"
META_ACK = "tcp_ack"
META_IS_ACK = "tcp_is_ack"
META_CONN = "tcp_conn"


@dataclass
class TcpStats:
    """Transfer outcome counters."""

    segments_sent: int = 0
    retransmissions: int = 0
    timeouts: int = 0
    fast_retransmits: int = 0
    acked_bytes: int = 0
    completed_at: Optional[float] = None

    def goodput_bps(self, started_at: float = 0.0) -> float:
        """Acked payload bits per second (nan until completion)."""
        if self.completed_at is None or self.completed_at <= started_at:
            return float("nan")
        return self.acked_bytes * 8.0 / (self.completed_at - started_at)


class TcpSender:
    """Reno sender transferring ``transfer_bytes`` then stopping.

    Args:
        sim: the event loop (timers).
        send: transmits a data segment toward the receiver.
        build_packet: returns a fresh packet shell for one segment
            (headers set; payload/meta filled in here).
        transfer_bytes: total payload to deliver.
        mss: segment payload size.
        conn_id: connection identifier carried in packet meta.
        initial_cwnd_segments: IW (RFC 6928's 10 by default).
        min_rto_s: RTO floor (RFC 6298 says 1 s; practical stacks use
            ~200 ms, which suits simulation timescales).
    """

    def __init__(
        self,
        sim: Simulator,
        send: Callable[[Packet], None],
        build_packet: Callable[[], Packet],
        transfer_bytes: int,
        mss: int = 1400,
        conn_id: int = 1,
        initial_cwnd_segments: int = 10,
        min_rto_s: float = 0.2,
    ) -> None:
        positive("transfer_bytes", transfer_bytes)
        positive("mss", mss)
        self.sim = sim
        self.send = send
        self.build_packet = build_packet
        self.transfer_bytes = transfer_bytes
        self.mss = mss
        self.conn_id = conn_id
        self.min_rto_s = min_rto_s

        self.cwnd = float(initial_cwnd_segments * mss)
        self.ssthresh = float(64 * 1024)
        self.send_base = 0  # lowest unacked byte
        self.next_seq = 0  # next byte to transmit
        self.dup_acks = 0
        self.stats = TcpStats()
        self.started_at: Optional[float] = None

        self._srtt: Optional[float] = None
        self._rttvar = 0.0
        self._rto = 3 * min_rto_s
        self._timer: Optional[Event] = None
        self._send_times: dict[int, float] = {}  # seq -> first-send time
        self._retransmitted: set[int] = set()

    # -- driving ------------------------------------------------------------------

    def start(self) -> None:
        """Begin the transfer now."""
        self.started_at = self.sim.now
        self._pump()

    @property
    def inflight(self) -> int:
        return self.next_seq - self.send_base

    @property
    def done(self) -> bool:
        return self.send_base >= self.transfer_bytes

    def _pump(self) -> None:
        while (
            not self.done
            and self.next_seq < self.transfer_bytes
            and self.inflight + self.mss <= self.cwnd
        ):
            self._transmit(self.next_seq)
            self.next_seq += self._segment_size(self.next_seq)
        self._arm_timer()

    def _segment_size(self, seq: int) -> int:
        return min(self.mss, self.transfer_bytes - seq)

    def _transmit(self, seq: int, retransmission: bool = False) -> None:
        packet = self.build_packet()
        packet.payload_bytes = self._segment_size(seq)
        packet.meta[META_SEQ] = seq
        packet.meta[META_CONN] = self.conn_id
        packet.meta[META_IS_ACK] = False
        self.stats.segments_sent += 1
        if retransmission:
            self.stats.retransmissions += 1
            self._retransmitted.add(seq)
        else:
            self._send_times.setdefault(seq, self.sim.now)
        self.send(packet)

    # -- ACK processing ------------------------------------------------------------

    def on_ack(self, ack: int) -> None:
        """Process a cumulative ACK for bytes below ``ack``."""
        if ack > self.send_base:
            newly = ack - self.send_base
            self.stats.acked_bytes += newly
            # Karn's algorithm: only sample RTT on never-retransmitted
            # segments.
            sample_seq = self.send_base
            if sample_seq in self._send_times and (
                sample_seq not in self._retransmitted
            ):
                self._update_rto(self.sim.now - self._send_times[sample_seq])
            for seq in [s for s in self._send_times if s < ack]:
                del self._send_times[seq]
            self.send_base = ack
            self.dup_acks = 0
            if self.cwnd < self.ssthresh:
                self.cwnd += newly  # slow start
            else:
                self.cwnd += self.mss * self.mss / self.cwnd  # AIMD
            if self.done:
                self._complete()
                return
            # RFC 6298 (5.3): restart the retransmission timer when an
            # ACK acknowledges new data.
            self._arm_timer(restart=True)
            self._pump()
        elif ack == self.send_base and self.inflight > 0:
            self.dup_acks += 1
            if self.dup_acks == 3:
                self._fast_retransmit()

    def _fast_retransmit(self) -> None:
        self.stats.fast_retransmits += 1
        self.ssthresh = max(self.cwnd / 2.0, 2.0 * self.mss)
        self.cwnd = self.ssthresh + 3 * self.mss
        self._transmit(self.send_base, retransmission=True)
        self._arm_timer(restart=True)

    # -- timers -------------------------------------------------------------------

    def _update_rto(self, sample: float) -> None:
        if self._srtt is None:
            self._srtt = sample
            self._rttvar = sample / 2.0
        else:
            self._rttvar = 0.75 * self._rttvar + 0.25 * abs(self._srtt - sample)
            self._srtt = 0.875 * self._srtt + 0.125 * sample
        self._rto = max(self._srtt + 4.0 * self._rttvar, self.min_rto_s)

    def _arm_timer(self, restart: bool = False) -> None:
        if self.done or self.inflight == 0:
            self._cancel_timer()
            return
        if self._timer is not None and not restart:
            return
        self._cancel_timer()
        self._timer = self.sim.schedule_in(self._rto, self._on_timeout)

    def _cancel_timer(self) -> None:
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None

    def _on_timeout(self) -> None:
        self._timer = None
        if self.done or self.inflight == 0:
            return
        self.stats.timeouts += 1
        self.ssthresh = max(self.cwnd / 2.0, 2.0 * self.mss)
        self.cwnd = float(self.mss)
        self.next_seq = self.send_base + self._segment_size(self.send_base)
        self._transmit(self.send_base, retransmission=True)
        self._rto = min(self._rto * 2.0, 60.0)  # exponential backoff
        self._arm_timer(restart=True)

    def _complete(self) -> None:
        if self.stats.completed_at is None:
            self.stats.completed_at = self.sim.now
        self._cancel_timer()


class TcpReceiver:
    """In-order receiver emitting cumulative ACKs.

    Out-of-order segments are buffered; every arrival triggers one ACK
    carrying the next expected byte (so reordering manufactures the
    duplicate ACKs fast retransmit keys on — the mechanism behind the
    paper's "reduction in TCP throughput").
    """

    def __init__(
        self,
        send_ack: Callable[[Packet], None],
        build_packet: Callable[[], Packet],
        conn_id: int = 1,
    ) -> None:
        self.send_ack = send_ack
        self.build_packet = build_packet
        self.conn_id = conn_id
        self.expected = 0
        self._buffered: dict[int, int] = {}  # seq -> size
        self.received_segments = 0
        self.duplicate_segments = 0

    def on_segment(self, packet: Packet, _now: float) -> None:
        """Feed one arriving data segment (host delivery callback)."""
        if packet.meta.get(META_CONN) != self.conn_id or packet.meta.get(
            META_IS_ACK, False
        ):
            return
        seq = packet.meta[META_SEQ]
        size = packet.payload_bytes
        self.received_segments += 1
        if seq == self.expected:
            self.expected += size
            while self.expected in self._buffered:
                self.expected += self._buffered.pop(self.expected)
        elif seq > self.expected:
            self._buffered.setdefault(seq, size)
        else:
            self.duplicate_segments += 1
        ack = self.build_packet()
        ack.payload_bytes = 0
        ack.meta[META_CONN] = self.conn_id
        ack.meta[META_IS_ACK] = True
        ack.meta[META_ACK] = self.expected
        self.send_ack(ack)


def connect_tcp(
    sim: Simulator,
    send_data: Callable[[Packet], None],
    send_ack: Callable[[Packet], None],
    build_data_packet: Callable[[], Packet],
    build_ack_packet: Callable[[], Packet],
    transfer_bytes: int,
    conn_id: int = 1,
    **sender_kwargs,
) -> tuple[TcpSender, TcpReceiver, Callable[[Packet, float], None], Callable[[Packet, float], None]]:
    """Wire a sender/receiver pair; returns them plus the two delivery
    callbacks to install at the respective hosts.

    ``data_delivery`` goes on the receiver-side host, ``ack_delivery``
    on the sender-side host.
    """
    sender = TcpSender(
        sim,
        send_data,
        build_data_packet,
        transfer_bytes,
        conn_id=conn_id,
        **sender_kwargs,
    )
    receiver = TcpReceiver(send_ack, build_ack_packet, conn_id=conn_id)

    def data_delivery(packet: Packet, now: float) -> None:
        receiver.on_segment(packet, now)

    def ack_delivery(packet: Packet, _now: float) -> None:
        if packet.meta.get(META_CONN) == conn_id and packet.meta.get(
            META_IS_ACK, False
        ):
            sender.on_ack(packet.meta[META_ACK])

    return sender, receiver, data_delivery, ack_delivery
