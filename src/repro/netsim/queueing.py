"""Queued links: bandwidth contention and drop-tail buffers.

The base :class:`~repro.netsim.links.Link` models delay as an exogenous
process — appropriate for wide-area paths whose congestion the paper
injects as calibrated events.  Edge uplinks are different: they are
*owned* by the edge network, and self-induced queueing there is a real
confounder Tango's border placement must not mismeasure.

:class:`QueuedLink` adds an M/D/1-style FIFO: packets serialize at
``bandwidth_bps``, wait behind earlier packets, and are dropped when the
buffered backlog would exceed ``buffer_bytes`` (drop-tail).  Everything
else (delay process, loss process, MTU, stats) behaves like the base
link, so it is a drop-in replacement in scenario builders.
"""

from __future__ import annotations

from functools import partial
from typing import TYPE_CHECKING, Optional

from ..validate import non_negative, positive
from .delaymodels import DelayModel
from .links import Link, LossModel
from .packet import Packet

if TYPE_CHECKING:  # pragma: no cover
    from .events import Simulator
    from .node import Node

__all__ = ["QueuedLink"]


class QueuedLink(Link):
    """FIFO link with finite bandwidth and a drop-tail buffer.

    Args:
        bandwidth_bps: link rate; serialization time is
            ``wire_bytes * 8 / bandwidth_bps``.  Mandatory here — a queue
            without a service rate is meaningless.
        buffer_bytes: maximum backlog excluding the packet in service;
            arrivals that would exceed it are dropped (``dropped_queue``).
    """

    def __init__(
        self,
        name: str,
        src: "Node",
        dst: "Node",
        delay: DelayModel,
        bandwidth_bps: float,
        buffer_bytes: int = 64 * 1024,
        loss: Optional[LossModel] = None,
        mtu: int = 1500,
        seed: int = 0,
    ) -> None:
        positive("bandwidth_bps", bandwidth_bps)
        non_negative("buffer_bytes", buffer_bytes)
        super().__init__(
            name=name,
            src=src,
            dst=dst,
            delay=delay,
            loss=loss,
            bandwidth_bps=None,  # serialization handled by the queue
            mtu=mtu,
            seed=seed,
        )
        self.rate_bps = bandwidth_bps
        self.buffer_bytes = buffer_bytes
        self._busy_until = 0.0
        self._backlog_bytes = 0
        self._busy_seconds = 0.0
        self.dropped_queue = 0
        self.max_backlog_bytes = 0

    def transmit(self, sim: "Simulator", packet: Packet) -> bool:
        now = sim.now
        self.stats.transmitted += 1
        if packet.wire_bytes > self.mtu:
            self.stats.dropped_mtu += 1
            return False
        if self.loss.drops(self.seed, now, self.stats.transmitted):
            self.stats.dropped_loss += 1
            return False
        if self._busy_until > now and (
            self._backlog_bytes + packet.wire_bytes > self.buffer_bytes
        ):
            self.dropped_queue += 1
            return False

        serialization = packet.wire_bytes * 8.0 / self.rate_bps
        self._busy_seconds += serialization
        start = max(now, self._busy_until)
        departure = start + serialization
        if start > now:
            self._backlog_bytes += packet.wire_bytes
            self.max_backlog_bytes = max(
                self.max_backlog_bytes, self._backlog_bytes
            )
            sim.schedule_at(start, partial(self._dequeue, packet.wire_bytes))
        self._busy_until = departure
        propagation = self.delay.delay_at(now)
        sim.schedule_at(
            departure + propagation,
            partial(self._deliver, packet, packet.wire_bytes),
        )
        return True

    def _dequeue(self, size: int) -> None:
        self._backlog_bytes -= size

    # ------------------------------------------------------------------
    # Observables (pure accounting, no behavioral effect on packet mode).
    # The fluid traffic engine and the equivalence harness read these to
    # compare aggregate predictions against the packet-level ground
    # truth; they are also useful for scenario debugging.
    # ------------------------------------------------------------------

    def utilization(self, now: float) -> float:
        """Fraction of [0, now] the link spent serializing packets.

        This is the packet-mode analogue of the fluid model's ``rho``
        (accepted-load utilization, capped at 1.0 since the link cannot
        serialize faster than its rate).
        """
        if now <= 0:
            return 0.0
        return min(self._busy_seconds / now, 1.0)
