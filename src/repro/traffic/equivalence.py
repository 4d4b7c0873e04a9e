"""Fluid-vs-packet equivalence: validating the aggregate model.

Runs the same single-bottleneck workload through both models:

* **packet** — deterministic-Poisson arrivals into a
  :class:`~repro.netsim.queueing.QueuedLink` (fixed-size packets, FIFO,
  drop-tail), measuring mean sojourn delay and delivered fraction;
* **fluid** — the closed-form predictions the fluid engine uses
  (:func:`~repro.traffic.fluid.fluid_wait_s` below capacity,
  :func:`~repro.traffic.fluid.fluid_overload_loss` above).

The acceptance gate (EXPERIMENTS.md E16) requires per-tunnel mean delay
within 10% and loss within 2 percentage points across the standard
utilization sweep; :func:`run_equivalence` returns structured points the
E16 benchmark checks against those tolerances.

Scaled-down capacities on purpose: at 10 Mbps a 1500-byte packet
serializes in 1.2 ms, so queueing effects are large relative to the
propagation delay and a mismatch between the models cannot hide in the
noise (at 10 Gbps the P-K term is microseconds and everything "matches"
trivially).
"""

from __future__ import annotations

import ipaddress
import math
from dataclasses import dataclass

import numpy as np

from repro.netsim.delaymodels import ConstantDelay, deterministic_uniform
from repro.netsim.events import Simulator
from repro.netsim.node import HostNode
from repro.netsim.packet import TANGO_UDP_PORT, Ipv6Header, Packet, UdpHeader
from repro.netsim.queueing import QueuedLink

from .fluid import fluid_overload_loss, fluid_wait_s

__all__ = ["EquivalencePoint", "run_equivalence"]

#: Header overhead of the test packets (IPv6 + UDP).
_HEADER_BYTES = 48


@dataclass(frozen=True)
class EquivalencePoint:
    """One utilization point of the fluid-vs-packet comparison."""

    rho: float
    packets: int
    packet_delay_s: float
    fluid_delay_s: float
    delay_rel_error: float
    packet_loss: float
    fluid_loss: float
    loss_error_pp: float


def _poisson_gaps(seed: int, n: int, rate_per_s: float) -> np.ndarray:
    """Deterministic exponential inter-arrival gaps (inverse CDF).

    Counter-based: draw i uses quantized time ``i`` of the seed's
    stream, so the schedule is a pure function of (seed, n, rate).
    """
    u = deterministic_uniform(seed, np.arange(n, dtype=np.float64))
    return -np.log(u) / rate_per_s


def _packet_run(
    rho: float,
    *,
    capacity_bps: float,
    base_delay_s: float,
    packet_bytes: int,
    packets: int,
    buffer_delay_s: float,
    seed: int,
    warmup_fraction: float = 0.1,
) -> tuple[float, float]:
    """Mean sojourn delay and loss of one packet-level QueuedLink run."""
    sim = Simulator()
    delays: list[float] = []

    def on_packet(packet: Packet, now: float) -> None:
        delays.append(now - packet.created_at)

    src = HostNode("src", sim)
    dst = HostNode("dst", sim, on_packet=on_packet)
    link = QueuedLink(
        "bottleneck",
        src,
        dst,
        delay=ConstantDelay(base_delay_s),
        bandwidth_bps=capacity_bps,
        buffer_bytes=int(capacity_bps * buffer_delay_s / 8.0),
        seed=seed,
    )

    rate_per_s = rho * capacity_bps / (packet_bytes * 8.0)
    gaps = _poisson_gaps(seed ^ 0x7A11, packets, rate_per_s)
    send_times = np.cumsum(gaps)
    payload = packet_bytes - _HEADER_BYTES

    def send(at: float) -> None:
        packet = Packet(
            headers=[
                Ipv6Header(
                    src=ipaddress.IPv6Address("2001:db8:1::1"),
                    dst=ipaddress.IPv6Address("2001:db8:2::1"),
                ),
                UdpHeader(sport=40_000, dport=TANGO_UDP_PORT),
            ],
            payload_bytes=payload,
            created_at=at,
        )
        link.transmit(sim, packet)

    for at in send_times:
        sim.schedule_at(float(at), lambda at=float(at): send(at))
    sim.run(until=float(send_times[-1]) + 5.0)

    warmup = int(len(delays) * warmup_fraction)
    steady = delays[warmup:] if len(delays) > warmup else delays
    mean_delay = float(np.mean(steady)) if steady else math.inf
    loss = 1.0 - len(delays) / packets
    return mean_delay, loss


def run_equivalence(
    utilizations: tuple[float, ...] = (0.3, 0.6, 0.8),
    overloads: tuple[float, ...] = (1.3,),
    *,
    packets: int = 40_000,
    capacity_bps: float = 10e6,
    base_delay_s: float = 0.028,
    packet_bytes: int = 1500,
    buffer_delay_s: float = 0.1,
    seed: int = 7,
) -> list[EquivalencePoint]:
    """Sweep utilizations through both models and compare.

    Below capacity the fluid prediction is ``base + service +
    fluid_wait_s(rho)`` against the packet run's mean sojourn; above it
    the loss comparison is ``fluid_overload_loss(rho)`` against the
    delivered fraction (and the delay comparison adds one full buffer
    drain, the saturated queue's wait).
    """
    points: list[EquivalencePoint] = []
    service_s = packet_bytes * 8.0 / capacity_bps
    for rho in tuple(utilizations) + tuple(overloads):
        measured_delay, measured_loss = _packet_run(
            rho,
            capacity_bps=capacity_bps,
            base_delay_s=base_delay_s,
            packet_bytes=packet_bytes,
            packets=packets,
            buffer_delay_s=buffer_delay_s,
            seed=seed,
        )
        backlog_wait = buffer_delay_s if rho > 1.0 else 0.0
        queue_wait = min(
            fluid_wait_s(rho, service_s) + backlog_wait, buffer_delay_s
        )
        fluid_delay = base_delay_s + service_s + queue_wait
        fluid_loss = fluid_overload_loss(rho)
        points.append(
            EquivalencePoint(
                rho=rho,
                packets=packets,
                packet_delay_s=measured_delay,
                fluid_delay_s=fluid_delay,
                delay_rel_error=abs(fluid_delay - measured_delay)
                / max(measured_delay, 1e-12),
                packet_loss=measured_loss,
                fluid_loss=fluid_loss,
                loss_error_pp=abs(fluid_loss - measured_loss) * 100.0,
            )
        )
    return points
