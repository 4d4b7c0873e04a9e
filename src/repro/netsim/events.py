"""Discrete-event simulation core.

A small, deterministic event loop: the heap holds ``(time, sequence,
event)`` tuples, so heap order is the tuple order CPython compares in C
(sequence numbers are unique, so the event itself is never compared).
The sequence number makes ordering of same-time events deterministic
(FIFO), which keeps every experiment in the repository reproducible
bit-for-bit for a given seed.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Callable, Optional

from ..validate import finite, positive

__all__ = ["Event", "Simulator", "PeriodicTask"]


class Event:
    """A scheduled callback.

    Events are cancellable: :meth:`cancel` marks the event dead and the
    event loop skips it when popped.  This is how retransmission timers and
    probe generators are torn down.
    """

    __slots__ = ("time", "seq", "callback", "cancelled", "_sim")

    def __init__(
        self,
        time: float,
        seq: int,
        callback: Callable[[], None],
        sim: Optional["Simulator"] = None,
    ):
        self.time = time
        self.seq = seq
        self.callback = callback
        self.cancelled = False
        self._sim = sim

    def cancel(self) -> None:
        """Mark this event dead; it will be skipped by the loop."""
        if self.cancelled:
            return
        self.cancelled = True
        if self._sim is not None:
            self._sim._note_cancelled()

    def __repr__(self) -> str:
        state = "cancelled" if self.cancelled else "pending"
        return f"Event(t={self.time:.9f}, seq={self.seq}, {state})"


class Simulator:
    """Deterministic discrete-event simulator.

    Example:
        >>> sim = Simulator()
        >>> fired = []
        >>> _ = sim.schedule_at(1.5, lambda: fired.append(sim.now))
        >>> sim.run()
        >>> fired
        [1.5]
    """

    #: Queues shorter than this are never compacted: the rebuild would
    #: cost more than lazily skipping a handful of tombstones.
    _COMPACT_MIN_SIZE = 8

    def __init__(self, start: float = 0.0) -> None:
        #: Simulation time in seconds: the one time source, written only
        #: by :meth:`run`, :meth:`step` and :meth:`advance_to`.
        self.now = float(start)
        #: ``(time, seq, event)`` entries; replaced only in place, so a
        #: local alias held by :meth:`run` survives a compaction.
        self._queue: list[tuple[float, int, Event]] = []
        self._seq = itertools.count()
        self._events_processed = 0
        self._cancelled_pending = 0
        #: Work counters (cheap ints, always on).
        self.compactions = 0
        self.tombstones_reaped = 0

    @property
    def events_processed(self) -> int:
        """Number of callbacks executed so far (for diagnostics)."""
        return self._events_processed

    @property
    def pending(self) -> int:
        """Number of queued (possibly cancelled) events."""
        return len(self._queue)

    @property
    def live_pending(self) -> int:
        """Number of queued events that have not been cancelled."""
        return len(self._queue) - self._cancelled_pending

    def _note_cancelled(self) -> None:
        """A queued event was cancelled; compact once tombstones dominate.

        Without this, a repeatedly paused-and-resumed :class:`PeriodicTask`
        leaks one cancelled event per cycle until its firing time drains
        from the heap — unbounded for long intervals.
        """
        self._cancelled_pending += 1
        if (
            len(self._queue) >= self._COMPACT_MIN_SIZE
            and self._cancelled_pending * 2 > len(self._queue)
        ):
            self._compact()

    def _compact(self) -> None:
        """Rebuild the heap without tombstones.  Pop order is unaffected:
        heap order is the total order (time, seq), independent of the
        internal array layout."""
        self.tombstones_reaped += self._cancelled_pending
        self.compactions += 1
        self._queue[:] = [entry for entry in self._queue if not entry[2].cancelled]
        heapq.heapify(self._queue)
        self._cancelled_pending = 0

    def schedule_at(self, time: float, callback: Callable[[], None]) -> Event:
        """Schedule ``callback`` to run at absolute simulation time ``time``.

        Raises:
            ValueError: if ``time`` is NaN or before the current simulation
                time.
        """
        now = self.now
        # One comparison rejects both: NaN is not >= anything.
        if not time >= now:
            if time != time:
                raise ValueError(f"cannot schedule at time {time}")
            raise ValueError(f"cannot schedule in the past: {time} < {now}")
        seq = next(self._seq)
        # ``sim`` positionally: a keyword builds a kwargs dict per event.
        event = Event(time, seq, callback, self)
        heapq.heappush(self._queue, (time, seq, event))
        return event

    def schedule_in(self, delay: float, callback: Callable[[], None]) -> Event:
        """Schedule ``callback`` to run ``delay`` seconds from now."""
        if delay < 0:
            raise ValueError(f"delay must be non-negative, got {delay}")
        return self.schedule_at(self.now + delay, callback)

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> None:
        """Drain the event queue.

        Args:
            until: stop once the next event would fire after this time; the
                clock is left at ``until``.  ``None`` runs to exhaustion.
            max_events: safety valve against runaway schedules.

        Raises:
            ValueError: ``until`` is NaN (no event is ever after it, so a
                periodic task would run forever).
        """
        if until is not None and until != until:
            raise ValueError(f"cannot run until {until}")
        queue = self._queue
        pop = heapq.heappop
        executed = 0
        while queue:
            if max_events is not None and executed >= max_events:
                break
            time, _seq, event = queue[0]
            if event.cancelled:
                pop(queue)
                self._cancelled_pending -= 1
                continue
            if until is not None and time > until:
                break
            pop(queue)
            # Detach so a cancel() from inside the callback (a task
            # pausing itself) is not counted as a queued tombstone.
            event._sim = None
            if time < self.now:  # advance_to's refusal, inline
                raise ValueError(
                    f"cannot move simulation time from {self.now} to {time}"
                )
            self.now = time
            event.callback()
            self._events_processed += 1
            executed += 1
        if until is not None and self.now < until:
            self.advance_to(until)

    def advance_to(self, t: float) -> None:
        """Move simulation time forward to ``t`` without running events.
        A jump past a queued event is refused when that event is run.

        Raises:
            ValueError: ``t`` is NaN or before the current time.
        """
        if not t >= self.now:  # NaN is not >= anything
            raise ValueError(f"cannot move simulation time from {self.now} to {t}")
        self.now = t

    def step(self) -> bool:
        """Execute the single next live event.

        Returns:
            True if an event ran, False if the queue is empty.
        """
        while self._queue:
            time, _seq, event = heapq.heappop(self._queue)
            if event.cancelled:
                self._cancelled_pending -= 1
                continue
            event._sim = None
            self.advance_to(time)
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
        """Run ``callback`` every ``interval`` seconds.

        This is the workhorse behind probe generators (the paper sends one
        probe per path every 10 ms).  The returned handle can be stopped.

        Raises:
            ValueError: if ``interval`` is not a positive finite number, or
                ``start`` is not finite.
        """
        positive("interval", interval)
        if start is not None:
            finite("start", start)
        task = PeriodicTask(self, interval, callback, end=end)
        first = self.now if start is None else start
        task._arm(first)
        return task


class PeriodicTask:
    """Handle for a repeating event created by :meth:`Simulator.call_every`."""

    def __init__(
        self,
        sim: Simulator,
        interval: float,
        callback: Callable[[], None],
        end: Optional[float] = None,
    ) -> None:
        self._sim = sim
        self._interval = interval
        self._callback = callback
        self._end = end
        self._event: Optional[Event] = None
        self._stopped = False
        self._paused = False

    def _arm(self, time: float) -> None:
        if self._stopped or self._paused:
            return
        # Tolerate float accumulation: N * interval can exceed `end` by
        # an ulp, which would silently drop the final tick.
        if self._end is not None and time > self._end + 1e-9:
            return
        self._event = self._sim.schedule_at(time, self._fire)

    def _fire(self) -> None:
        if self._stopped:
            return
        self._callback()
        self._arm(self._sim.now + self._interval)

    def pause(self) -> None:
        """Suspend firing without tearing the task down.

        Unlike :meth:`stop`, a paused task can be resumed later; fault
        injection uses this to silence a telemetry mirror for a window.
        Pausing an already-paused or stopped task is a no-op.
        """
        if self._stopped or self._paused:
            return
        self._paused = True
        if self._event is not None:
            self._event.cancel()
            self._event = None

    def resume(self) -> None:
        """Resume a paused task; the next firing is one interval from now.

        Occurrences skipped while paused are *not* replayed — a silenced
        reporter loses its reports, it does not batch them.
        """
        if self._stopped or not self._paused:
            return
        self._paused = False
        self._arm(self._sim.now + self._interval)

    def stop(self) -> None:
        """Stop firing; any queued occurrence is cancelled."""
        self._stopped = True
        if self._event is not None:
            self._event.cancel()
