"""Per-edge Tango controller: the local control loop.

The controller is deliberately thin — Tango's whole point is that the
per-packet decision lives in the data plane.  What remains for slow-path
software:

* sampling the loss monitor on a fixed cadence (turning raw sequence
  counters into time-binned loss rates policies can read),
* recording which tunnel the data plane is choosing over time (the
  decision trace that experiment reports plot against the delay series),
* health checks: flagging tunnels that have gone quiet (no mirrored
  measurements within a staleness horizon) or lossy,
* graceful degradation: a quarantine state machine that evicts stale or
  lossy tunnels from the data-plane candidate set (with hysteresis and
  exponential-backoff re-probation) and, when *everything* is unhealthy,
  falls back to the BGP-best tunnel — never worse than the status quo.

Lifecycle contract: :meth:`TangoController.start` may be called again
after :meth:`TangoController.stop`.  A cold (re)start resets all
quarantine runtime state — quarantined tunnels are re-admitted pending
a fresh verdict — while cumulative records (``choice_trace``,
``quarantine_log``, ``mode_log``, ``ticks``) are preserved.  Calling
``start`` on a running controller remains an error.

Resilience extensions (``repro.resilience``):

* **degraded-mode estimation** — with a
  :class:`~repro.resilience.degraded.DegradedModeConfig`, a peer
  telemetry feed stale past the horizon downgrades path selection to
  local RTT-probe estimates (and a feed-level outage stops counting as
  per-path staleness for quarantine — a quiet mirror is not four dead
  tunnels); the mirror healing upgrades back, both transitions recorded
  in :attr:`TangoController.mode_log`.
* **crash safety** — with a
  :class:`~repro.resilience.journal.ControllerJournal`, every quarantine
  /fallback/mode transition and data-path choice change is written ahead
  to the WAL and the full runtime state checkpointed periodically;
  :meth:`TangoController.crash` models process death (runtime memory
  wiped, installed data-plane state retained), and
  :meth:`TangoController.restore_state` + ``start(warm=True)`` is the
  supervisor's warm-recovery path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping, Optional, Sequence

from ..netsim.events import PeriodicTask, Simulator
from ..netsim.ticks import TickHandle, TickScheduler
from ..resilience.degraded import (
    MODE_COOPERATIVE,
    MODE_DEGRADED,
    DegradedModeConfig,
    ModeTransition,
)
from ..telemetry.store import TimeSeries
from .gateway import TangoGateway
from .policy import GuardedSelector, MeasuredSelector

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..resilience.journal import ControllerJournal
    from ..srlg.frr import FastReroute
    from ..srlg.registry import SrlgRegistry
    from ..trust.policy import PeerTrustMonitor

__all__ = [
    "TunnelHealth",
    "QuarantinePolicy",
    "QuarantineEvent",
    "TangoController",
]


@dataclass(frozen=True)
class TunnelHealth:
    """Health snapshot for one tunnel."""

    path_id: int
    label: str
    fresh: bool
    last_measurement_age_s: Optional[float]
    recent_loss: float


@dataclass(frozen=True)
class QuarantinePolicy:
    """Tuning knobs of the graceful-degradation state machine.

    Attributes:
        loss_threshold: recent loss fraction above which a tunnel counts
            as unhealthy even while measurements stay fresh.
        unhealthy_ticks: consecutive unhealthy control ticks before a
            healthy tunnel is quarantined (hysteresis against one-tick
            blips).
        probation_delay_s: initial quarantine duration; once it elapses
            the tunnel re-enters the candidate set on probation.
        backoff_factor: multiplier applied to the quarantine duration on
            every (re-)quarantine — repeat offenders wait longer.
        max_probation_delay_s: backoff ceiling.
        probation_ticks: consecutive healthy ticks on probation required
            to fully restore the tunnel (and reset its backoff).
    """

    loss_threshold: float = 0.5
    unhealthy_ticks: int = 2
    probation_delay_s: float = 1.0
    backoff_factor: float = 2.0
    max_probation_delay_s: float = 30.0
    probation_ticks: int = 3

    def __post_init__(self) -> None:
        if not 0.0 <= self.loss_threshold <= 1.0:
            raise ValueError(
                f"loss_threshold must be in [0, 1], got {self.loss_threshold}"
            )
        if self.unhealthy_ticks < 1:
            raise ValueError("unhealthy_ticks must be >= 1")
        if self.probation_delay_s <= 0:
            raise ValueError("probation_delay_s must be positive")
        if self.backoff_factor < 1.0:
            raise ValueError("backoff_factor must be >= 1")
        if self.max_probation_delay_s < self.probation_delay_s:
            raise ValueError("max_probation_delay_s below probation_delay_s")
        if self.probation_ticks < 1:
            raise ValueError("probation_ticks must be >= 1")


@dataclass(frozen=True)
class QuarantineEvent:
    """One transition of the quarantine state machine — the raw material
    recovery logs and MTTR metrics are computed from."""

    t: float
    path_id: int
    label: str
    action: str  # quarantine | probation | restore | fallback-on | fallback-off
    cause: str = ""
    backoff_s: float = 0.0


@dataclass
class _QuarantineRuntime:
    """Mutable per-tunnel machine state (module-private)."""

    state: str = "healthy"  # healthy | quarantined | probation
    unhealthy_streak: int = 0
    healthy_streak: int = 0
    backoff_s: float = 0.0
    probation_at: float = 0.0


class _Observation:
    """One tick's look at the gateway (module-private).

    The tunnel table in id order, re-listed only when it grows, and per
    tunnel the age of its last outbound sample (None: never measured)
    and its last loss bin, plus the freshest age of all.  One slotted
    object rather than six controller attributes: an instance past 30
    attributes loses CPython's shared-key dict, and every ``self.x`` in
    the tick gets slower.
    """

    __slots__ = ("ids", "labels", "id_set", "ages", "losses", "freshest")

    def __init__(self) -> None:
        self.ids: list[int] = []
        self.labels: list[str] = []
        self.id_set: frozenset[int] = frozenset()
        self.ages: list[Optional[float]] = []
        self.losses: list[float] = []
        self.freshest: Optional[float] = None


class TangoController:
    """Slow-path loop for one gateway.

    Args:
        gateway: the gateway to manage.
        sim: simulator whose clock drives the loop.
        interval_s: loop cadence.
        staleness_s: a tunnel with no mirrored measurement within this
            horizon is reported unhealthy.
        quarantine: enable graceful degradation with these parameters;
            None (the default) keeps the controller report-only.
        degraded: enable RTT-probing fallback when the peer telemetry
            feed goes stale past the config's horizon; None keeps the
            PR 1 behavior (cooperative estimates only).
        journal: write-ahead-log every routing decision and checkpoint
            runtime state periodically; None disables persistence.
        trust: peer-trust monitor (see :mod:`repro.trust.policy`) polled
            every tick; while the peer feed is distrusted the controller
            forces degraded local-RTT selection regardless of staleness.
            Requires ``degraded`` — distrust demotion needs a fallback
            estimate store to route on.
        scheduler: register the control loop into this shared
            :class:`~repro.netsim.ticks.TickScheduler` instead of a
            dedicated ``PeriodicTask`` — with N controllers the
            simulator heap carries one recurring event, not N.
            ``interval_s`` must be an integer multiple of the wheel's
            base interval; the tick sequence is otherwise identical.
    """

    def __init__(
        self,
        gateway: TangoGateway,
        sim: Simulator,
        interval_s: float = 0.1,
        staleness_s: float = 2.0,
        quarantine: Optional[QuarantinePolicy] = None,
        degraded: Optional[DegradedModeConfig] = None,
        journal: Optional["ControllerJournal"] = None,
        trust: Optional["PeerTrustMonitor"] = None,
        frr: Optional["FastReroute"] = None,
        srlg_registry: Optional["SrlgRegistry"] = None,
        scheduler: Optional[TickScheduler] = None,
    ) -> None:
        if interval_s <= 0:
            raise ValueError(f"interval must be positive, got {interval_s}")
        if trust is not None and degraded is None:
            raise ValueError(
                "trust demotion needs a degraded config: a distrusted peer "
                "feed leaves nothing to route on without local RTT fallback"
            )
        self.gateway = gateway
        self.sim = sim
        self.interval_s = interval_s
        self.staleness_s = staleness_s
        self.choice_trace = TimeSeries()
        self.scheduler = scheduler
        #: The scheduled control loop, on the wheel or a dedicated task.
        self._loop: Optional[PeriodicTask | TickHandle] = None
        self.ticks = 0
        self.quarantine_policy = quarantine
        #: Path ids currently evicted from the data-plane candidate set.
        #: Shared by reference with the installed :class:`GuardedSelector`.
        self.quarantined: set[int] = set()
        #: Every state-machine transition, in tick order — the recovery log
        #: source (see ``repro.faults.recovery``).
        self.quarantine_log: list[QuarantineEvent] = []
        self._qstate: dict[int, _QuarantineRuntime] = {}
        self._guard: Optional[GuardedSelector] = None
        self._fallback_active = False
        self.degraded = degraded
        self.journal = journal
        self.trust = trust
        #: Estimation source currently in use: cooperative | degraded.
        self.mode = MODE_COOPERATIVE
        #: Every downgrade/upgrade, in tick order (cumulative trace).
        self.mode_log: list[ModeTransition] = []
        #: True between :meth:`crash` and the next (re)start.
        self.crashed = False
        self._heal_streak = 0
        self._cooperative_store = None
        self._last_logged_choice: Optional[float] = None
        #: Fast reroute over shared-risk groups, ticked with the loop.
        self.frr = frr
        #: Failure-domain state feed; quarantine probation consults it
        #: before probing a tunnel whose risk group is still down.
        #: Defaults to the FRR engine's registry when one is attached.
        self.srlg_registry = srlg_registry
        if self.srlg_registry is None and frr is not None:
            self.srlg_registry = frr.registry
        #: Paths whose probation is currently held back by a down risk
        #: group (dedupes the "probation-hold" log line per outage).
        self._probation_held: set[int] = set()
        #: A superset of the paths whose quarantine machine is not at
        #: rest (state other than healthy, or an unhealthy streak
        #: running): the only ones a tick without a cause has to visit.
        self._unsettled: set[int] = set()
        self._seen = _Observation()

    def start(self, warm: bool = False) -> None:
        """Begin (or restart) the control loop.

        Safe after :meth:`stop`: a cold start resets quarantine runtime
        state so a tunnel that was quarantined before the restart is
        re-evaluated from scratch.  Cumulative traces are kept either
        way.

        Args:
            warm: keep the current runtime state — the supervisor's
                recovery path, used right after :meth:`restore_state` so
                a restart does not re-thrash tunnels.
        """
        if self._loop is not None:
            raise RuntimeError("controller already started")
        if not warm:
            self._reset_quarantine_runtime()
        if self.quarantine_policy is not None and self._guard is None:
            self._guard = GuardedSelector(
                self.gateway.data_selector, self.quarantined
            )
            self.gateway.set_data_selector(self._guard)
        self._capture_cooperative_store()
        # Re-point the selector at the restored mode's store: after a
        # warm restore the dataplane may still hold the pre-crash one.
        self._apply_mode(self.mode)
        self.crashed = False
        if self.scheduler is not None:
            self._loop = self.scheduler.register_every_s(
                self.interval_s,
                self._scheduled_tick,
                name=self.gateway.config.name,
            )
        else:
            self._loop = self.sim.call_every(self.interval_s, self._tick)

    def stop(self) -> None:
        if self._loop is not None:
            self._loop.stop()
            self._loop = None

    def _scheduled_tick(self, now: float) -> None:
        """Shared-wheel entry point (``TickScheduler`` callback shape)."""
        self._tick()

    @property
    def running(self) -> bool:
        """True while the control loop is scheduled — the supervisor's
        liveness primitive (alongside tick-counter progress)."""
        return self._loop is not None

    def crash(self) -> None:
        """Model process death: the loop stops and runtime memory is lost.

        What survives is exactly what would survive a real crash: the
        data plane's installed state (the :class:`GuardedSelector`, its
        quarantined-set contents, whichever measurement store the
        selector was pointed at) and the experimenter's cumulative traces
        (``choice_trace``, ``quarantine_log``, ``mode_log``, ``ticks``).
        Everything the controller *knew* — quarantine machines, streaks,
        probation holds, estimation-mode bookkeeping — is wiped;
        recovery must come from the journal (see :meth:`restore_state`).
        """
        self.stop()
        self.crashed = True
        self._qstate.clear()
        self._unsettled.clear()
        self._probation_held.clear()
        self._fallback_active = False
        self.mode = MODE_COOPERATIVE
        self._heal_streak = 0
        self._cooperative_store = None
        self._last_logged_choice = None

    def _reset_quarantine_runtime(self) -> None:
        self._qstate.clear()
        self.quarantined.clear()
        self._probation_held.clear()
        self._fallback_active = False
        self._heal_streak = 0
        if self.mode != MODE_COOPERATIVE:
            self._apply_mode(MODE_COOPERATIVE)

    def _tick(self) -> None:
        self.ticks += 1
        now = self.sim.now
        self.gateway.loss_monitor.sample(now)
        choice = getattr(self.gateway.selector, "last_choice", None)
        recorded = float(-1 if choice is None else choice)
        self.choice_trace.append(now, recorded)
        if self.journal is not None and recorded != self._last_logged_choice:
            self._last_logged_choice = recorded
            self.journal.record("choice", now, path_id=int(recorded))
        if self.trust is not None:
            if self.trust.poll(now) and self.journal is not None:
                self.journal.record("trust", now, state=self.trust.state)
        if self.frr is not None:
            # Fast reroute first: a group event should repoint the data
            # plane on *this* tick, before slower health machinery runs.
            self.frr.tick(now)
        if self.quarantine_policy is not None or self.degraded is not None:
            self._observe(now)
            if self.degraded is not None:
                self._degraded_tick(now)
            if self.quarantine_policy is not None:
                self._quarantine_tick(now)
        if (
            self.journal is not None
            and self.ticks % self.journal.checkpoint_every_ticks == 0
        ):
            self.journal.checkpoint(self.snapshot_state())

    # -- per-tick observation -----------------------------------------------------

    def _observe(self, now: float) -> None:
        """Read every tunnel's outbound age and last loss bin, once.

        The one observation a tick's health checks share: degraded
        mode reads the freshest age, the quarantine machine and the
        fallback flag the per-tunnel lists, :meth:`health` all of it.
        """
        seen = self._seen
        table = self.gateway.tunnel_table
        if len(table) != len(seen.ids):
            # Tunnels are only ever added (a stitched relay may arrive
            # after the loop starts): a new count is a new table.
            tunnels = table.all_tunnels()
            seen.ids = [tunnel.path_id for tunnel in tunnels]
            seen.labels = [tunnel.label for tunnel in tunnels]
            seen.id_set = frozenset(seen.ids)
        lasts = self.gateway.outbound.last_times(seen.ids)
        seen.ages = ages = [None if last is None else now - last for last in lasts]
        last_loss = self.gateway.loss_monitor.last_loss
        seen.losses = [last_loss.get(path_id, 0.0) for path_id in seen.ids]
        measured = [age for age in ages if age is not None]
        seen.freshest = min(measured) if measured else None

    # -- degraded-mode estimation -------------------------------------------------

    def _feed_outage(self) -> bool:
        """True when every measured path is stale at once: the mirror is
        down, not the tunnels.  Only meaningful with a degraded config —
        without a fallback estimator, staleness keeps quarantining."""
        return (
            self.degraded is not None
            and self._seen.freshest is not None
            and self._seen.freshest > self.staleness_s
        )

    def _degraded_tick(self, now: float) -> None:
        config = self.degraded
        # The age of the freshest mirrored sample across paths (None when
        # nothing has ever been measured) is the feed-level health signal.
        staleness = self._seen.freshest
        if self.trust is not None and self.trust.distrusted:
            # A distrusted peer feed is worse than a stale one: force the
            # local-RTT fallback and suppress healing until the trust
            # machine readmits the peer (probation or better).
            if self.mode == MODE_COOPERATIVE:
                self._set_mode(MODE_DEGRADED, now, staleness)
            self._heal_streak = 0
            return
        if self.mode == MODE_COOPERATIVE:
            if staleness is not None and staleness > config.horizon_s:
                self._set_mode(MODE_DEGRADED, now, staleness)
        else:
            if staleness is not None and staleness <= config.horizon_s:
                self._heal_streak += 1
                if self._heal_streak >= config.heal_ticks:
                    self._set_mode(MODE_COOPERATIVE, now, staleness)
            else:
                self._heal_streak = 0

    def _set_mode(self, mode: str, now: float, staleness: Optional[float]) -> None:
        """Transition the estimation source, logging and journaling it."""
        if mode == self.mode:
            return
        self._apply_mode(mode)
        self._heal_streak = 0
        self.mode_log.append(
            ModeTransition(t=now, mode=mode, staleness_s=staleness)
        )
        if self.journal is not None:
            self.journal.record("mode", now, mode=mode)

    def _apply_mode(self, mode: str) -> None:
        """Point the measured selector at the mode's store (no logging)."""
        self.mode = mode
        selector = self._measured_selector()
        if selector is None or self.degraded is None:
            return
        if mode == MODE_DEGRADED:
            selector.store = self.degraded.estimates
        elif self._cooperative_store is not None:
            selector.store = self._cooperative_store

    def _measured_selector(self) -> Optional[MeasuredSelector]:
        """The store-reading selector deciding data traffic, if any."""
        selector = self.gateway.data_selector
        if isinstance(selector, GuardedSelector):
            selector = selector.inner
        return selector if isinstance(selector, MeasuredSelector) else None

    def _capture_cooperative_store(self) -> None:
        """Remember which store means "cooperative" for mode swaps.

        After a crash the dead controller's dataplane may still point at
        the degraded estimates; the mirrored store is then the gateway's
        outbound store by construction.
        """
        selector = self._measured_selector()
        if selector is None or self.degraded is None:
            return
        store = getattr(selector, "store", None)
        if store is None or store is self.degraded.estimates:
            if self._cooperative_store is None:
                self._cooperative_store = self.gateway.outbound
        else:
            self._cooperative_store = store

    # -- quarantine state machine -------------------------------------------------

    def _quarantine_tick(self, now: float) -> None:
        """Step the machine of every tunnel that has a cause or is not at
        rest, in table order.

        A cause is staleness — only of a measured-then-silent tunnel
        (warming-up ones are exempt), and not during a feed-level outage,
        when the degraded estimator keeps routing instead of
        quarantining the whole candidate set — or recent loss above the
        policy's threshold.
        """
        policy = self.quarantine_policy
        qstate = self._qstate
        seen = self._seen
        if not qstate.keys() >= seen.id_set:
            for path_id in seen.ids:
                if path_id not in qstate:
                    qstate[path_id] = _QuarantineRuntime(
                        backoff_s=policy.probation_delay_s
                    )
        stale_after = float("inf") if self._feed_outage() else self.staleness_s
        threshold = policy.loss_threshold
        unsettled = self._unsettled
        for path_id, label, age, loss in zip(
            seen.ids, seen.labels, seen.ages, seen.losses
        ):
            if age is not None and age > stale_after:
                cause: Optional[str] = "stale"
            elif loss > threshold:
                cause = "loss"
            elif path_id in unsettled:
                cause = None
            else:
                continue
            runtime = qstate[path_id]
            if runtime.state == "healthy":
                if cause is None:
                    runtime.unhealthy_streak = 0
                    unsettled.discard(path_id)
                else:
                    unsettled.add(path_id)
                    runtime.unhealthy_streak += 1
                    if runtime.unhealthy_streak >= policy.unhealthy_ticks:
                        self._enter_quarantine(path_id, label, runtime, now, cause)
            elif runtime.state == "quarantined":
                if now >= runtime.probation_at:
                    if self._risk_group_down(path_id):
                        # The failure domain is still down: probing the
                        # tunnel can only re-confirm the outage and burn
                        # a backoff doubling.  Hold probation (without
                        # growing backoff) until the group recovers.
                        if path_id not in self._probation_held:
                            self._probation_held.add(path_id)
                            self._log(
                                now, path_id, label, "probation-hold",
                                cause="srlg-down",
                            )
                    else:
                        self._probation_held.discard(path_id)
                        runtime.state = "probation"
                        runtime.healthy_streak = 0
                        self.quarantined.discard(path_id)
                        self._log(now, path_id, label, "probation")
            elif runtime.state == "probation":
                if cause is not None:
                    self._enter_quarantine(path_id, label, runtime, now, cause)
                else:
                    runtime.healthy_streak += 1
                    if runtime.healthy_streak >= policy.probation_ticks:
                        runtime.state = "healthy"
                        runtime.backoff_s = policy.probation_delay_s
                        runtime.unhealthy_streak = 0
                        self._log(now, path_id, label, "restore")
        self._update_fallback(now)

    def _risk_group_down(self, path_id: int) -> bool:
        """True when the tunnel's shared-risk group is known to be down."""
        if self.srlg_registry is None:
            return False
        down = self.srlg_registry.down_groups()
        if not down:
            return False
        tunnel = self.gateway.tunnel_table.by_id(path_id)
        return tunnel is not None and bool(tunnel.srlgs & down)

    def _enter_quarantine(
        self,
        path_id: int,
        label: str,
        runtime: _QuarantineRuntime,
        now: float,
        cause: str,
    ) -> None:
        policy = self.quarantine_policy
        backoff = runtime.backoff_s or policy.probation_delay_s
        runtime.state = "quarantined"
        runtime.unhealthy_streak = 0
        runtime.probation_at = now + backoff
        runtime.backoff_s = min(
            backoff * policy.backoff_factor, policy.max_probation_delay_s
        )
        self.quarantined.add(path_id)
        self._log(now, path_id, label, "quarantine", cause=cause, backoff_s=backoff)

    def _update_fallback(self, now: float) -> None:
        seen = self._seen
        active = bool(seen.ids) and seen.id_set <= self.quarantined
        if active == self._fallback_active:
            return
        self._fallback_active = active
        action = "fallback-on" if active else "fallback-off"
        self.quarantine_log.append(
            QuarantineEvent(t=now, path_id=-1, label="*", action=action)
        )
        if self.journal is not None:
            self.journal.record("fallback", now, active=active)

    def _log(
        self,
        now: float,
        path_id: int,
        label: str,
        action: str,
        cause: str = "",
        backoff_s: float = 0.0,
    ) -> None:
        self.quarantine_log.append(
            QuarantineEvent(
                t=now,
                path_id=path_id,
                label=label,
                action=action,
                cause=cause,
                backoff_s=backoff_s,
            )
        )
        if self.journal is not None:
            self.journal.record(
                action,
                now,
                path_id=path_id,
                label=label,
                cause=cause,
                backoff_s=backoff_s,
            )

    # -- crash-safe persistence ----------------------------------------------------

    def snapshot_state(self) -> dict:
        """JSON-serializable runtime state — the checkpoint payload."""
        return {
            "ticks": self.ticks,
            "mode": self.mode,
            "fallback_active": self._fallback_active,
            "quarantined": sorted(self.quarantined),
            "qstate": {
                str(pid): {
                    "state": rt.state,
                    "unhealthy_streak": rt.unhealthy_streak,
                    "healthy_streak": rt.healthy_streak,
                    "backoff_s": rt.backoff_s,
                    "probation_at": rt.probation_at,
                }
                for pid, rt in sorted(self._qstate.items())
            },
        }

    def restore_state(
        self,
        snapshot: Optional[Mapping],
        wal: Sequence[Mapping] = (),
    ) -> None:
        """Warm-restore from a checkpoint plus WAL replay.

        The snapshot rebuilds the quarantine machines, fallback flag and
        estimation mode as of the last checkpoint (keys it does not know
        are ignored); WAL entries then re-apply every decision made
        since, in order.
        Streak counters inside replayed transitions restart at zero — a
        conservative loss (hysteresis re-arms, state is exact).  Must be
        followed by ``start(warm=True)``; cumulative traces are never
        touched (they are the experimenter's record, not process state).
        """
        if self.running:
            raise RuntimeError("cannot restore a running controller")
        self._qstate.clear()
        self.quarantined.clear()
        self._probation_held.clear()
        self._fallback_active = False
        self._heal_streak = 0
        self.mode = MODE_COOPERATIVE
        if snapshot is not None:
            for pid_str, raw in snapshot.get("qstate", {}).items():
                self._qstate[int(pid_str)] = _QuarantineRuntime(
                    state=str(raw["state"]),
                    unhealthy_streak=int(raw["unhealthy_streak"]),
                    healthy_streak=int(raw["healthy_streak"]),
                    backoff_s=float(raw["backoff_s"]),
                    probation_at=float(raw["probation_at"]),
                )
            self.quarantined.update(int(p) for p in snapshot.get("quarantined", ()))
            self._fallback_active = bool(snapshot.get("fallback_active", False))
            self._apply_mode(str(snapshot.get("mode", MODE_COOPERATIVE)))
        for entry in wal:
            self._replay_wal_entry(entry)
        self._unsettled = set(self._qstate)

    def _replay_wal_entry(self, entry: Mapping) -> None:
        kind = str(entry["kind"])
        policy = self.quarantine_policy
        if kind == "quarantine" and policy is not None:
            pid = int(entry["path_id"])
            runtime = self._qstate.setdefault(pid, _QuarantineRuntime())
            backoff = float(entry["backoff_s"]) or policy.probation_delay_s
            runtime.state = "quarantined"
            runtime.unhealthy_streak = 0
            runtime.probation_at = float(entry["t"]) + backoff
            runtime.backoff_s = min(
                backoff * policy.backoff_factor, policy.max_probation_delay_s
            )
            self.quarantined.add(pid)
        elif kind == "probation":
            pid = int(entry["path_id"])
            runtime = self._qstate.setdefault(pid, _QuarantineRuntime())
            runtime.state = "probation"
            runtime.healthy_streak = 0
            self.quarantined.discard(pid)
        elif kind == "restore" and policy is not None:
            pid = int(entry["path_id"])
            runtime = self._qstate.setdefault(pid, _QuarantineRuntime())
            runtime.state = "healthy"
            runtime.backoff_s = policy.probation_delay_s
            runtime.unhealthy_streak = 0
        elif kind == "fallback":
            self._fallback_active = bool(entry["active"])
        elif kind == "mode":
            self._apply_mode(str(entry["mode"]))
        # "choice" entries are informational (the data plane re-decides).

    # -- health -----------------------------------------------------------------

    def health(self) -> list[TunnelHealth]:
        """Per-tunnel health now: the control loop's observation, with
        freshness judged against the staleness horizon."""
        self._observe(self.sim.now)
        seen, staleness = self._seen, self.staleness_s
        return [
            TunnelHealth(
                path_id=path_id,
                label=label,
                fresh=age is not None and age <= staleness,
                last_measurement_age_s=age,
                recent_loss=loss,
            )
            for path_id, label, age, loss in zip(
                seen.ids, seen.labels, seen.ages, seen.losses
            )
        ]
