"""TCP impact of delay spikes and reordering (paper Section 5).

The paper's argument: during GTT's instability window, *most* packets
still arrive at the 28 ms floor, but in-order delivery means one spiked
packet holds up every later packet at the application layer — so a
latency-sensitive stream suffers far more than the mean delay suggests,
and switching to a stable path wins even when GTT's average looks fine.

Two complementary models:

* :class:`InOrderDeliveryModel` — exact head-of-line-blocking replay of a
  packet stream: application delivery time of packet *i* is the max
  arrival time over packets 0..i.  Produces application-level latency and
  stall statistics from per-packet network delays.
* :func:`mathis_throughput` — the classic Mathis/Semke/Mahdavi steady
  state bound ``MSS / (RTT * sqrt(2p/3))``: loss- and RTT-sensitive
  throughput for the comparison tables.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..validate import non_negative, positive, probability

__all__ = [
    "DeliveryStats",
    "InOrderDeliveryModel",
    "mathis_throughput",
    "stream_goodput",
]


@dataclass(frozen=True)
class DeliveryStats:
    """Application-level outcome of replaying a stream in order."""

    packets: int
    mean_network_delay_s: float
    mean_app_delay_s: float
    p99_app_delay_s: float
    max_app_delay_s: float
    stalled_packets: int
    total_stall_s: float

    @property
    def hol_blocking_penalty_s(self) -> float:
        """Extra mean latency caused purely by in-order delivery."""
        return self.mean_app_delay_s - self.mean_network_delay_s


class InOrderDeliveryModel:
    """Replays (send time, network delay) pairs through in-order delivery.

    A packet is *stalled* when it arrived but could not be delivered
    because an earlier packet was still in flight; the stall time is how
    long it waited in the reorder buffer.
    """

    def __init__(self, stall_threshold_s: float = 0.0) -> None:
        non_negative("stall_threshold_s", stall_threshold_s)
        self.stall_threshold_s = stall_threshold_s

    def replay(
        self, send_times: np.ndarray, network_delays: np.ndarray
    ) -> DeliveryStats:
        """Compute application delivery statistics for one stream.

        Args:
            send_times: per-packet transmission times, non-decreasing.
            network_delays: per-packet one-way network delays.
        """
        send_times = np.asarray(send_times, dtype=np.float64)
        network_delays = np.asarray(network_delays, dtype=np.float64)
        if send_times.shape != network_delays.shape:
            raise ValueError("send_times and network_delays must align")
        if send_times.size == 0:
            raise ValueError("cannot replay an empty stream")
        if np.any(np.diff(send_times) < 0):
            raise ValueError("send times must be non-decreasing")
        arrivals = send_times + network_delays
        delivered = np.maximum.accumulate(arrivals)
        app_delays = delivered - send_times
        stalls = delivered - arrivals
        stalled = stalls > self.stall_threshold_s
        return DeliveryStats(
            packets=int(send_times.size),
            mean_network_delay_s=float(np.mean(network_delays)),
            mean_app_delay_s=float(np.mean(app_delays)),
            p99_app_delay_s=float(np.percentile(app_delays, 99)),
            max_app_delay_s=float(np.max(app_delays)),
            stalled_packets=int(np.sum(stalled)),
            total_stall_s=float(np.sum(stalls)),
        )


def mathis_throughput(
    mss_bytes: int, rtt_s: float, loss_fraction: float
) -> float:
    """Steady-state TCP throughput bound, bytes per second.

    ``MSS / (RTT * sqrt(2p/3))``.  Returns ``inf`` for zero loss (the
    bound degenerates; callers cap by link rate) and raises for invalid
    inputs rather than silently extrapolating.
    """
    positive("mss_bytes", mss_bytes)
    positive("rtt_s", rtt_s)
    probability("loss_fraction", loss_fraction)
    if loss_fraction == 0:
        return float("inf")
    return mss_bytes / (rtt_s * math.sqrt(2.0 * loss_fraction / 3.0))


def stream_goodput(
    send_times: np.ndarray,
    network_delays: np.ndarray,
    payload_bytes: int,
    deadline_s: float,
) -> float:
    """Deadline-respecting goodput of an in-order stream, bytes/second.

    Packets whose *application* delivery latency exceeds the deadline are
    worthless to a real-time consumer (the drone-control framing of the
    paper's Section 2); goodput counts only on-time bytes over the stream
    duration.
    """
    send_times = np.asarray(send_times, dtype=np.float64)
    network_delays = np.asarray(network_delays, dtype=np.float64)
    if send_times.size == 0:
        return 0.0
    arrivals = send_times + network_delays
    delivered = np.maximum.accumulate(arrivals)
    app_delays = delivered - send_times
    on_time = int(np.sum(app_delays <= deadline_s))
    duration = float(send_times[-1] - send_times[0])
    if duration <= 0:
        return float(on_time * payload_bytes)
    return on_time * payload_bytes / duration
