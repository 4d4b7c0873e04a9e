"""Batched periodic scheduling: one heap event drives N registrants.

With one :class:`~repro.netsim.events.PeriodicTask` per controller, a
simulation of a thousand edge pairs keeps a thousand recurring events in
the simulator heap — every push/pop pays O(log n) against *all* of them,
and each tick is a separate heap round-trip.  The
:class:`TickScheduler` collapses this to a single recurring event: a
time-bucketed wheel fires once per base interval and dispatches every
registrant due in that round, in **registration order** (determinism:
the callback sequence within a round is a pure function of registration
history, never of heap layout or pause/resume timing).

Registrants with coarser periods pass ``every=k`` (an integer multiple
of the base interval) and land in one bucket per k rounds, so an idle
round costs one dict lookup, not an O(registrants) scan.

Pause/resume parity with :class:`PeriodicTask`: a paused handle skips
occurrences without replaying them, and ``resume()`` schedules the next
firing one full period from *now* — quantized up to the next wheel
round, so at round-aligned times the firing sequence is identical to a
dedicated ``PeriodicTask``.
"""

from __future__ import annotations

import math
from typing import Callable

from ..validate import int_in, positive
from .events import PeriodicTask, Simulator

__all__ = ["TickScheduler", "TickHandle"]

#: Float-accumulation tolerance when mapping an absolute time onto a
#: wheel round (mirrors PeriodicTask's end-of-window tolerance).
_ROUND_EPS = 1e-9


class TickHandle:
    """One registrant of a :class:`TickScheduler`.

    Mirrors the :class:`~repro.netsim.events.PeriodicTask` control
    surface (``pause`` / ``resume`` / ``stop``) so callers
    can swap a dedicated task for a shared-wheel registration without
    touching their lifecycle code.
    """

    __slots__ = (
        "_scheduler",
        "callback",
        "every",
        "name",
        "seq",
        "_paused",
        "_stopped",
        "_armed_round",
        "_last_run_round",
    )

    def __init__(
        self,
        scheduler: "TickScheduler",
        callback: Callable[[float], None],
        every: int,
        name: str,
        seq: int,
    ) -> None:
        self._scheduler = scheduler
        self.callback = callback
        self.every = every
        self.name = name
        self.seq = seq
        self._paused = False
        self._stopped = False
        # The round this handle is currently armed for; a bucket entry
        # whose round no longer matches is stale (the handle was paused
        # and re-armed elsewhere) and is skipped.
        self._armed_round = -1
        self._last_run_round = -1

    def pause(self) -> None:
        """Suspend firing; missed rounds are not replayed (PeriodicTask
        parity).  No-op when already paused or stopped."""
        if self._stopped or self._paused:
            return
        self._paused = True
        self._armed_round = -1

    def resume(self) -> None:
        """Resume firing one full period from now (quantized to the
        wheel).  No-op when not paused or already stopped."""
        if self._stopped or not self._paused:
            return
        self._paused = False
        self._scheduler._arm_after_resume(self)

    def stop(self) -> None:
        """Permanently deregister; the scheduler forgets the handle at
        its next due round."""
        if self._stopped:
            return
        self._stopped = True
        self._armed_round = -1

    def __repr__(self) -> str:
        state = (
            "stopped" if self._stopped else "paused" if self._paused else "armed"
        )
        return f"TickHandle({self.name!r}, every={self.every}, {state})"


class TickScheduler:
    """A time-bucketed wheel multiplexing N periodic callbacks onto one
    simulator event.

    Args:
        sim: the simulator to drive.
        interval_s: base wheel period; every registrant's period is an
            integer multiple (``every``).

    Round 0 is ``sim.now``, matching ``call_every``'s immediate first
    fire.

    Callbacks take the current simulation time: ``callback(now)`` —
    the signature :class:`~repro.traffic.splitting.SplitRebalancer`
    already exposes.
    """

    def __init__(self, sim: Simulator, interval_s: float) -> None:
        positive("interval_s", interval_s)
        self.sim = sim
        self.interval_s = interval_s
        self._buckets: dict[int, list[TickHandle]] = {}
        self._seq = 0
        self._round = 0
        self._next_round_time = sim.now
        #: Always-on counters.
        self.rounds = 0
        self.callbacks_run = 0
        self._task: PeriodicTask = sim.call_every(interval_s, self._tick)

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------

    def register(
        self,
        callback: Callable[[float], None],
        *,
        every: int = 1,
        name: str = "",
    ) -> TickHandle:
        """Add a callback firing every ``every`` wheel rounds.

        The first firing is the next wheel round at or after *now* —
        for a scheduler and registrant created at the same instant this
        matches ``call_every``'s immediate first fire.
        """
        int_in(1)("every", every)
        handle = TickHandle(self, callback, every, name, self._seq)
        self._seq += 1
        self._arm(handle, self._round_at_or_after(self.sim.now))
        return handle

    def register_every_s(
        self,
        interval_s: float,
        callback: Callable[[float], None],
        *,
        name: str = "",
    ) -> TickHandle:
        """Register by period in seconds (see :meth:`every_for`)."""
        return self.register(callback, every=self.every_for(interval_s), name=name)

    def every_for(self, interval_s: float) -> int:
        """Wheel rounds per ``interval_s``, which must be an integer
        multiple of the base interval (within float tolerance)."""
        ratio = interval_s / self.interval_s
        every = int(round(ratio))
        if every < 1 or abs(ratio - every) > 1e-9 * max(1.0, abs(ratio)):
            raise ValueError(
                f"period {interval_s}s is not an integer multiple of the "
                f"wheel interval {self.interval_s}s"
            )
        return every

    def stop(self) -> None:
        """Tear down the wheel: the underlying task is cancelled and no
        registrant fires again."""
        self._task.stop()
        self._buckets.clear()

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _round_at_or_after(self, time: float) -> int:
        """Index of the first wheel round firing at or after ``time``."""
        ahead = (time - self._next_round_time - _ROUND_EPS) / self.interval_s
        if ahead <= 0:
            return self._round
        return self._round + math.ceil(ahead)

    def _arm(self, handle: TickHandle, round_index: int) -> None:
        handle._armed_round = round_index
        bucket = self._buckets.get(round_index)
        if bucket is None:
            bucket = self._buckets[round_index] = []
        bucket.append(handle)

    def _arm_after_resume(self, handle: TickHandle) -> None:
        # PeriodicTask.resume arms at now + interval; quantize that
        # target up to the wheel.  At round-aligned resume times the
        # two fire at identical instants.
        target = self.sim.now + handle.every * self.interval_s
        self._arm(handle, self._round_at_or_after(target))

    def _tick(self) -> None:
        now = self.sim.now
        current = self._round
        self._round = current + 1
        self._next_round_time = now + self.interval_s
        self.rounds += 1
        bucket = self._buckets.pop(current, None)
        if not bucket:
            return
        # Registration order within the round, regardless of the order
        # pause/resume cycles appended entries.
        bucket.sort(key=lambda h: h.seq)
        run = 0
        for handle in bucket:
            if handle._stopped or handle._paused:
                continue
            if handle._armed_round != current:
                continue  # stale entry from a pause/resume cycle
            if handle._last_run_round == current:
                continue  # duplicate bucket entry
            handle._last_run_round = current
            handle.callback(now)
            run += 1
            if not handle._stopped and not handle._paused:
                self._arm(handle, current + handle.every)
        self.callbacks_run += run
