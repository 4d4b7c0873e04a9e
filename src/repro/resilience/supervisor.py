"""Controller supervision: crash detection and warm restarts.

The :class:`~repro.core.controller.TangoController` is a single point of
failure for an edge's slow path — if it dies mid-epoch, nothing samples
loss, advances quarantine machines, or heals the estimation mode (the
data plane keeps forwarding with its last-installed state, as a real
switch would).  A :class:`Supervisor` closes that gap:

* **detection** — a heartbeat check every ``check_interval_s``: the
  controller is dead if it stopped reporting itself running or its tick
  counter stalled (a hung loop looks exactly like a dead one);
* **restart** — scheduled after a capped exponential backoff (repeated
  crashes wait longer; a stretch of healthy uptime resets the backoff);
* **warm restore** — every restart first rebuilds the controller's state
  from the controller's own journal (checkpoint + WAL replay), so
  recovery does not re-thrash tunnels that were already quarantined,
  nor forget the degraded/cooperative estimation mode.  A controller
  that keeps no journal has nothing to recover: its restart is a cold
  start.

Every detection and restart is recorded as a :class:`SupervisorEvent`
with simulation timestamps — the E14 benchmark's recovery-time source.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

from ..netsim.events import PeriodicTask, Simulator
from ..validate import check_fields, finite, positive

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.controller import TangoController

__all__ = ["SupervisorPolicy", "SupervisorEvent", "Supervisor"]


@dataclass(frozen=True)
class SupervisorPolicy:
    """Detection and restart tuning.

    Attributes:
        check_interval_s: heartbeat cadence; must exceed the supervised
            controller's tick interval, or a healthy controller looks
            stalled between checks.
        restart_delay_s: backoff before the first restart attempt.
        backoff_factor: multiplier per successive crash.
        max_restart_delay_s: backoff ceiling.
        healthy_after_s: uptime that resets the backoff to its base.
    """

    check_interval_s: float = field(default=0.5, metadata={"check": positive})
    restart_delay_s: float = field(default=0.25, metadata={"check": positive})
    backoff_factor: float = field(default=2.0, metadata={"check": finite})
    max_restart_delay_s: float = field(default=5.0, metadata={"check": finite})
    healthy_after_s: float = field(default=10.0, metadata={"check": positive})

    def __post_init__(self) -> None:
        check_fields(self)
        if self.backoff_factor < 1.0:
            raise ValueError("backoff_factor must be >= 1")
        if self.max_restart_delay_s < self.restart_delay_s:
            raise ValueError("max_restart_delay_s below restart_delay_s")


@dataclass(frozen=True)
class SupervisorEvent:
    """One supervision action (all times are simulation seconds)."""

    t: float
    action: str  # crash-detected | restart | backoff-reset
    restarts: int = 0
    delay_s: float = 0.0


class Supervisor:
    """Watches one controller; restarts it warm from the controller's own
    journal.

    Args:
        controller: the controller to supervise (already started).
        sim: simulator whose clock drives the heartbeat.
        policy: detection/backoff tuning; its heartbeat must be slower
            than the controller's tick (``ValueError`` otherwise).
    """

    def __init__(
        self,
        controller: "TangoController",
        sim: Simulator,
        policy: SupervisorPolicy = SupervisorPolicy(),
    ) -> None:
        if policy.check_interval_s <= controller.interval_s:
            raise ValueError(
                f"heartbeat every {policy.check_interval_s}s is no slower than "
                f"the controller's {controller.interval_s}s tick: a healthy "
                "controller would look stalled"
            )
        self.controller = controller
        self.sim = sim
        self.policy = policy
        self.events: list[SupervisorEvent] = []
        self.restarts = 0
        self._task: Optional[PeriodicTask] = None
        self._last_ticks = controller.ticks
        self._delay_s = policy.restart_delay_s
        self._restart_pending = False
        self._last_restart_at: Optional[float] = None

    def start(self) -> None:
        if self._task is not None:
            raise RuntimeError("supervisor already started")
        self._last_ticks = self.controller.ticks
        self._task = self.sim.call_every(
            self.policy.check_interval_s, self._check
        )

    def stop(self) -> None:
        if self._task is not None:
            self._task.stop()
            self._task = None

    # -- heartbeat -----------------------------------------------------------------

    def _check(self) -> None:
        if self._restart_pending:
            return
        now = self.sim.now
        alive = self.controller.running and self.controller.ticks > self._last_ticks
        self._last_ticks = self.controller.ticks
        if alive:
            if (
                self._last_restart_at is not None
                and self._delay_s > self.policy.restart_delay_s
                and now - self._last_restart_at >= self.policy.healthy_after_s
            ):
                self._delay_s = self.policy.restart_delay_s
                self.events.append(
                    SupervisorEvent(t=now, action="backoff-reset", restarts=self.restarts)
                )
            return
        delay = self._delay_s
        self._delay_s = min(
            delay * self.policy.backoff_factor,
            self.policy.max_restart_delay_s,
        )
        self._restart_pending = True
        self.events.append(
            SupervisorEvent(
                t=now, action="crash-detected", restarts=self.restarts, delay_s=delay
            )
        )
        self.sim.schedule_in(delay, self._restart)

    def _restart(self) -> None:
        controller = self.controller
        if controller.running and controller.ticks > self._last_ticks:
            # Raced with a manual restart: the loop is ticking again.
            self._restart_pending = False
            return
        if controller.running:
            # Hung, not dead: the flag is up but the loop is wedged.
            # Take it down so the restart below is a clean one.
            controller.stop()
        controller.restore_state(*controller.journal.recover())
        controller.start(warm=True)
        self.restarts += 1
        self._restart_pending = False
        self._last_ticks = controller.ticks
        self._last_restart_at = self.sim.now
        self.events.append(
            SupervisorEvent(
                t=self.sim.now, action="restart", restarts=self.restarts
            )
        )

    # -- metrics -------------------------------------------------------------------

    def recovery_times(self) -> list[float]:
        """Per-crash downtime: crash detection to successful restart."""
        out = []
        detected: Optional[float] = None
        for event in self.events:
            if event.action == "crash-detected":
                detected = event.t
            elif event.action == "restart" and detected is not None:
                out.append(event.t - detected)
                detected = None
        return out
