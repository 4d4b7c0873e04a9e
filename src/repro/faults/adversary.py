"""On-path adversary stages for Byzantine-peer fault injection.

The paper's Section 6 threat: an on-path attacker who can read and edit
Tango headers can "make every path but mine look bad" and steer a victim's
routing.  These stages model that attacker as
:class:`~repro.netsim.links.PacketInterceptor` implementations installed on
a wide-area link:

* :class:`TelemetryTamper` biases the piggybacked timestamp so the path's
  measured one-way delay looks better (or worse) than reality.  The stale
  auth tag is left in place — under authentication the MAC check fails and
  the defense sees forgeries instead of believable telemetry.
* :class:`TelemetryReplay` captures passing packets and re-injects aged
  copies.  Replayed packets carry *valid* tags; only the authenticator's
  ``(timestamp, seq)`` replay window or the plausibility layer's age check
  catches them.
* :class:`GrayLoss` silently consumes a fraction of packets and rewrites
  the sequence numbers of survivors to hide the gap from the receiver's
  loss ledger — loss the victim pays for but never sees.  Rewritten
  sequence numbers invalidate the MAC, so authentication converts the
  stealth into visible forgeries.

All stages are deterministic functions of (packet, time, internal
counters) seeded from the fault plan; replays are bit-exact.
"""

from __future__ import annotations

from collections import deque
from dataclasses import replace
from typing import Callable, Optional

from ..netsim.links import Link, PacketInterceptor
from ..netsim.packet import Packet, TangoHeader
from ..resilience.channel import _uniform
from ..validate import int_in, positive, probability

__all__ = [
    "AdversaryChain",
    "TelemetryTamper",
    "TelemetryReplay",
    "GrayLoss",
]


class _Stage(PacketInterceptor):
    """Shared windowing: a stage acts only inside [start, end)."""

    def __init__(self, start: float, end: float) -> None:
        if end < start:
            raise ValueError(f"stage window end before start: ({start}, {end})")
        self.start = start
        self.end = end

    def active(self, now: float) -> bool:
        return self.start <= now < self.end


class AdversaryChain(PacketInterceptor):
    """Composes stages on one link; any stage may consume the packet.

    Stages run in installation order.  A plan with several adversarial
    events on the same wide-area link grows one chain, mirroring how
    :class:`~repro.netsim.links.OverrideLoss` wraps compose.
    """

    def __init__(self) -> None:
        self.stages: list[PacketInterceptor] = []

    def add(self, stage: PacketInterceptor) -> None:
        self.stages.append(stage)

    def process(
        self, packet: Packet, now: float, inject: Callable[[Packet], None]
    ) -> Optional[Packet]:
        current: Optional[Packet] = packet
        for stage in self.stages:
            if current is None:
                return None
            current = stage.process(current, now, inject)
        return current

    @classmethod
    def install_on(cls, link: Link) -> "AdversaryChain":
        """The link's chain, creating (and installing) one if absent."""
        chain = link.interceptor
        if not isinstance(chain, AdversaryChain):
            chain = cls()
            link.interceptor = chain
        return chain


class TelemetryTamper(_Stage):
    """Bias the Tango timestamp in flight.

    A positive ``bias_s`` moves the timestamp *forward*, so the receiver's
    ``wall_clock - timestamp`` shrinks and the path looks ``bias_s``
    better than it is — the "favor my path" attack.  Negative bias makes
    the path look worse ("make every path but mine look bad" is a set of
    negative-bias tampers).  The original auth tag is preserved verbatim:
    it no longer matches the edited fields, which is the whole point.
    """

    def __init__(self, start: float, end: float, bias_s: float) -> None:
        super().__init__(start, end)
        self.bias_ns = round(bias_s * 1e9)
        self.tampered = 0

    def process(
        self, packet: Packet, now: float, inject: Callable[[Packet], None]
    ) -> Optional[Packet]:
        if not self.active(now):
            return packet
        tango = packet.tango
        if tango is None:
            return packet
        packet.replace_header(
            packet.headers.index(tango),
            replace(tango, timestamp_ns=tango.timestamp_ns + self.bias_ns),
        )
        self.tampered += 1
        return packet


class TelemetryReplay(_Stage):
    """Capture-and-replay of authentic packets.

    Every ``every``-th passing Tango packet triggers re-injection of a
    captured copy at least ``delay_s`` old (the oldest eligible one).
    The copy is byte-identical — valid tag, stale timestamp, duplicate
    sequence number — so it sails past a MAC-only verifier and poisons
    the delay series with inflated samples.
    """

    CAPTURE_BUFFER = 512

    def __init__(self, start: float, end: float, delay_s: float, every: int) -> None:
        super().__init__(start, end)
        positive("delay_s", delay_s)
        int_in(1)("every", every)
        self.delay_s = delay_s
        self.every = every
        self.replayed = 0
        self._passed = 0
        self._captured: deque[tuple[float, Packet]] = deque(
            maxlen=self.CAPTURE_BUFFER
        )

    def process(
        self, packet: Packet, now: float, inject: Callable[[Packet], None]
    ) -> Optional[Packet]:
        if not self.active(now):
            return packet
        if packet.tango is None:
            return packet
        self._captured.append((now, packet.copy()))
        self._passed += 1
        if self._passed % self.every == 0:
            while self._captured and now - self._captured[0][0] >= self.delay_s:
                _, stale = self._captured.popleft()
                inject(stale.copy())
                self.replayed += 1
                break
        return packet


class GrayLoss(_Stage):
    """Silent partial drop that evades sequence-based loss ledgers.

    Dropped packets are consumed without a loss-ledger trace: the stage
    rewrites every surviving packet's sequence number downward by the
    number of packets dropped so far on its path, so the receiver's
    tracker sees a perfectly contiguous sequence.  Under authentication
    the rewrite invalidates the MAC and the stealth collapses into
    forgery counts.
    """

    def __init__(self, start: float, end: float, rate: float, seed: int) -> None:
        super().__init__(start, end)
        probability("rate", rate)
        self.rate = rate
        self.seed = seed
        self.dropped = 0
        self._draws = 0
        self._hidden: dict[int, int] = {}

    def process(
        self, packet: Packet, now: float, inject: Callable[[Packet], None]
    ) -> Optional[Packet]:
        tango = packet.tango
        if tango is None:
            return packet
        if self.active(now):
            self._draws += 1
            if _uniform(self.seed, self._draws) < self.rate:
                self._hidden[tango.path_id] = (
                    self._hidden.get(tango.path_id, 0) + 1
                )
                self.dropped += 1
                return None
        # The rewrite outlives the drop window: if survivors reverted to
        # their true sequence numbers when dropping stops, the hidden gap
        # would surface as one visible burst at window end.
        hidden = self._hidden.get(tango.path_id, 0)
        if hidden:
            packet.replace_header(
                packet.headers.index(tango), replace(tango, seq=tango.seq - hidden)
            )
        return packet
