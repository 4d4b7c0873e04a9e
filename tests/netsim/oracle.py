"""The event loop and probe streams as they were before one event per
probe round, kept as oracles.

:class:`Simulator` keeps :class:`Event` objects themselves in the heap,
ordered by a Python ``Event.__lt__`` over ``(time, seq)`` — about eight
comparisons, each a Python call, per event.  :class:`ProbeGenerator`
sends one factory's packets, and :func:`start_path_probes` starts one
such generator, hence one heap event per round, per tunnel.

Both stand alone, sharing only :class:`~repro.netsim.trace.PacketFactory`
with the product (the oracle keeps its own :class:`Clock`), so that
``tests/netsim/test_oracle_lockstep.py`` can drive them and the product
with the same calls and require the same firings and the same packets.
"""

import heapq
import itertools
from typing import Callable, Optional

from repro.core.policy import ApplicationSelector, StaticSelector
from repro.netsim.packet import Packet
from repro.netsim.trace import PacketFactory


class Clock:
    """Simulation time, moved only forward."""

    def __init__(self, start: float) -> None:
        self.now = float(start)

    def advance_to(self, t: float) -> None:
        if t < self.now:
            raise ValueError(f"cannot move simulation time back to {t}")
        self.now = t


class Event:
    """A scheduled, cancellable callback; the heap entry itself."""

    __slots__ = ("time", "seq", "callback", "cancelled", "_sim")

    def __init__(self, time, seq, callback, sim=None):
        self.time = time
        self.seq = seq
        self.callback = callback
        self.cancelled = False
        self._sim = sim

    def cancel(self) -> None:
        if self.cancelled:
            return
        self.cancelled = True
        if self._sim is not None:
            self._sim._note_cancelled()

    def __lt__(self, other: "Event") -> bool:
        time, other_time = self.time, other.time
        return time < other_time or (time == other_time and self.seq < other.seq)


class Simulator:
    """The heap of :class:`Event` objects ordered by ``Event.__lt__``."""

    _COMPACT_MIN_SIZE = 8

    def __init__(self, start: float = 0.0) -> None:
        self.clock = Clock(start)
        self._queue: list[Event] = []
        self._seq = itertools.count()
        self._events_processed = 0
        self._cancelled_pending = 0
        self.compactions = 0
        self.tombstones_reaped = 0

    @property
    def now(self) -> float:
        return self.clock.now

    @property
    def events_processed(self) -> int:
        return self._events_processed

    @property
    def pending(self) -> int:
        return len(self._queue)

    @property
    def live_pending(self) -> int:
        return len(self._queue) - self._cancelled_pending

    def _note_cancelled(self) -> None:
        self._cancelled_pending += 1
        if (
            len(self._queue) >= self._COMPACT_MIN_SIZE
            and self._cancelled_pending * 2 > len(self._queue)
        ):
            self._compact()

    def _compact(self) -> None:
        self.tombstones_reaped += self._cancelled_pending
        self.compactions += 1
        self._queue = [e for e in self._queue if not e.cancelled]
        heapq.heapify(self._queue)
        self._cancelled_pending = 0

    def schedule_at(self, time: float, callback: Callable[[], None]) -> Event:
        if time < self.clock.now:
            raise ValueError(
                f"cannot schedule in the past: {time} < {self.clock.now}"
            )
        event = Event(time, next(self._seq), callback, sim=self)
        heapq.heappush(self._queue, event)
        return event

    def schedule_in(self, delay: float, callback: Callable[[], None]) -> Event:
        if delay < 0:
            raise ValueError(f"delay must be non-negative, got {delay}")
        return self.schedule_at(self.clock.now + delay, callback)

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> None:
        executed = 0
        while self._queue:
            if max_events is not None and executed >= max_events:
                break
            event = self._queue[0]
            if event.cancelled:
                heapq.heappop(self._queue)
                self._cancelled_pending -= 1
                continue
            if until is not None and event.time > until:
                break
            heapq.heappop(self._queue)
            event._sim = None
            self.clock.advance_to(event.time)
            event.callback()
            self._events_processed += 1
            executed += 1
        if until is not None and self.clock.now < until:
            self.clock.advance_to(until)

    def step(self) -> bool:
        while self._queue:
            event = heapq.heappop(self._queue)
            if event.cancelled:
                self._cancelled_pending -= 1
                continue
            event._sim = None
            self.clock.advance_to(event.time)
            event.callback()
            self._events_processed += 1
            return True
        return False

    def call_every(
        self,
        interval: float,
        callback: Callable[[], None],
        *,
        start: Optional[float] = None,
        end: Optional[float] = None,
    ) -> "PeriodicTask":
        if interval <= 0:
            raise ValueError(f"interval must be positive, got {interval}")
        task = PeriodicTask(self, interval, callback, end=end)
        first = self.clock.now if start is None else start
        task._arm(first)
        return task


class PeriodicTask:
    """A repeating event: each firing arms the next one interval later."""

    def __init__(self, sim, interval, callback, end=None) -> None:
        self._sim = sim
        self._interval = interval
        self._callback = callback
        self._end = end
        self._event = None
        self._stopped = False
        self._paused = False

    def _arm(self, time: float) -> None:
        if self._stopped or self._paused:
            return
        if self._end is not None and time > self._end + 1e-9:
            return
        self._event = self._sim.schedule_at(time, self._fire)

    def _fire(self) -> None:
        if self._stopped:
            return
        self._callback()
        self._arm(self._sim.now + self._interval)

    def pause(self) -> None:
        if self._stopped or self._paused:
            return
        self._paused = True
        if self._event is not None:
            self._event.cancel()
            self._event = None

    def resume(self) -> None:
        if self._stopped or not self._paused:
            return
        self._paused = False
        self._arm(self._sim.now + self._interval)

    def stop(self) -> None:
        self._stopped = True
        if self._event is not None:
            self._event.cancel()


class ProbeGenerator:
    """One factory's constant-rate probe stream, one event per packet."""

    def __init__(self, sim, factory: PacketFactory, send, interval=0.010) -> None:
        self._sim = sim
        self._factory = factory
        self._send = send
        self._interval = interval
        self._task = None
        self.sent = 0

    def start(self) -> None:
        self._task = self._sim.call_every(self._interval, self._emit)

    def stop(self) -> None:
        if self._task is not None:
            self._task.stop()
            self._task = None

    def _emit(self) -> None:
        packet: Packet = self._factory.build()
        packet.created_at = self._sim.now
        self.sent += 1
        self._send(packet)


def start_path_probes(
    deployment, src: str, interval_s: Optional[float] = None
) -> list[ProbeGenerator]:
    """``PacketLevelDeployment.start_path_probes`` as the per-tunnel loop:
    one generator per path, started in tunnel order."""
    interval = interval_s or deployment.pairing.probe_interval_s
    gateway = deployment.gateway(src)
    dst_edge = deployment.pairing.peer_of(src)
    selector = gateway.selector
    if not isinstance(selector, ApplicationSelector):
        selector = ApplicationSelector(default=selector)
        gateway.set_selector(selector)
    generators = []
    send = deployment.sender_for(src)
    for index, tunnel in enumerate(deployment.tunnels(src)):
        flow_label = 1000 + tunnel.path_id
        selector.assign(flow_label, StaticSelector(index))
        factory = PacketFactory(
            src=str(deployment.pairing.edge(src).host_address(2)),
            dst=str(dst_edge.host_address(2)),
            sport=52000 + index,
            dport=52000,
            payload_bytes=16,
            flow_label=flow_label,
        )
        generator = ProbeGenerator(deployment.sim, factory, send, interval)
        generator.start()
        generators.append(generator)
    return generators
