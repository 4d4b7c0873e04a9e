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

:class:`TangoController` is the loop; its stages, in tick order, are
fast reroute, the :class:`ModeMachine` and the :class:`QuarantineMachine`,
each present when its collaborator is given.  The machines own all
runtime state.  A transition is one call: the journal (a ``NullJournal``
when none is kept) records the entry and the machine's ``apply`` applies
it, as it does on WAL replay.

Lifecycle contract: :meth:`TangoController.start` may be called again
after :meth:`TangoController.stop`.  A cold (re)start resets every
machine — quarantined tunnels are re-admitted pending a fresh verdict —
while cumulative records (``choice_trace``, ``quarantine_log``,
``mode_log``, ``ticks``) are preserved.  Calling ``start`` on a running
controller remains an error.

Resilience extensions (``repro.resilience``):

* **degraded-mode estimation** — with a
  :class:`~repro.resilience.degraded.DegradedModeConfig`, a peer
  telemetry feed stale past the horizon (or distrusted by the config's
  trust monitor) downgrades path selection to local RTT-probe estimates
  (and a feed-level outage stops counting as per-path staleness for
  quarantine — a quiet mirror is not four dead tunnels); the mirror
  healing upgrades back, both transitions recorded in
  :attr:`TangoController.mode_log`.
* **crash safety** — with a
  :class:`~repro.resilience.journal.ControllerJournal`, every quarantine
  /fallback/mode transition and data-path choice change is written ahead
  to the WAL and the full runtime state checkpointed periodically;
  :meth:`TangoController.crash` models process death (runtime memory
  wiped, installed data-plane state retained), and
  :meth:`TangoController.restore_state` + ``start(warm=True)`` is the
  supervisor's restart path (an empty journal restores a cold start).
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from typing import TYPE_CHECKING, Callable, Mapping, Optional, Sequence

from ..netsim.events import PeriodicTask, Simulator
from ..netsim.ticks import TickHandle, TickScheduler
from ..resilience.degraded import (
    MODE_COOPERATIVE,
    MODE_DEGRADED,
    DegradedModeConfig,
    ModeTransition,
)
from ..resilience.journal import NullJournal
from ..telemetry.store import TimeSeries
from ..validate import check_fields, finite, int_in, positive, probability
from .gateway import TangoGateway
from .policy import GuardedSelector, MeasuredSelector, QuarantineSet

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..resilience.journal import ControllerJournal
    from ..srlg.frr import FastReroute
    from ..srlg.registry import SrlgRegistry

__all__ = [
    "TunnelHealth",
    "QuarantinePolicy",
    "QuarantineEvent",
    "QuarantineMachine",
    "ModeMachine",
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

    loss_threshold: float = field(default=0.5, metadata={"check": probability})
    unhealthy_ticks: int = field(default=2, metadata={"check": int_in(1)})
    probation_delay_s: float = field(default=1.0, metadata={"check": positive})
    backoff_factor: float = field(default=2.0, metadata={"check": finite})
    max_probation_delay_s: float = field(default=30.0, metadata={"check": finite})
    probation_ticks: int = field(default=3, metadata={"check": int_in(1)})

    def __post_init__(self) -> None:
        check_fields(self)
        if self.backoff_factor < 1.0:
            raise ValueError("backoff_factor must be >= 1")
        if self.max_probation_delay_s < self.probation_delay_s:
            raise ValueError("max_probation_delay_s below probation_delay_s")


@dataclass(frozen=True)
class QuarantineEvent:
    """One transition of the quarantine state machine — the raw material
    recovery logs and MTTR metrics are computed from."""

    t: float
    path_id: int
    label: str
    action: str  # quarantine | probation[-hold] | restore | fallback-on/-off
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
    and its last loss bin, plus the freshest age of all.  ``outage``: the
    mode stage found every measured path stale past ``staleness_s``.
    """

    __slots__ = ("staleness_s", "ids", "labels", "id_set", "ages", "losses",
                 "freshest", "outage")

    def __init__(self, staleness_s: float) -> None:
        self.staleness_s = staleness_s
        self.ids: list[int] = []
        self.labels: list[str] = []
        self.id_set: frozenset[int] = frozenset()
        self.ages: list[Optional[float]] = []
        self.losses: list[float] = []
        self.freshest: Optional[float] = None
        self.outage = False


class _Reroute:
    """Fast reroute as a loop stage (module-private): not journaled, and
    a crash leaves its pin installed, so its lifecycle is empty."""

    observes = False

    def __init__(self, frr: "FastReroute") -> None:
        self.frr = frr

    def tick(self, now: float, seen: _Observation) -> None:
        self.frr.tick(now)

    def start(self, warm: bool) -> None:
        pass

    def forget(self) -> None:
        pass

    def snapshot(self) -> dict:
        return {}

    def restore(self, snapshot: Mapping, wal: Sequence[Mapping]) -> None:
        pass


class QuarantineMachine:
    """Evicts stale or lossy tunnels from the data-plane candidate set,
    re-admits them on probation after a backoff (held while their
    shared-risk group is down), restores them after enough healthy
    probation ticks, and flags the BGP-best fallback while every tunnel
    is out.
    """

    observes = True

    def __init__(
        self,
        policy: QuarantinePolicy,
        gateway: TangoGateway,
        journal: NullJournal,
        srlg_registry: Optional["SrlgRegistry"],
    ) -> None:
        self.policy = policy
        self.gateway = gateway
        self.journal = journal
        self.srlg_registry = srlg_registry
        #: Path ids evicted from the data-plane candidate set: the very
        #: set the installed :class:`GuardedSelector` reads.
        self.quarantined: set[int] = QuarantineSet()
        #: Every transition, in tick order (the recovery log source).
        self.log: list[QuarantineEvent] = []
        #: True while every tunnel is quarantined.
        self.fallback = False
        self._runtimes: dict[int, _QuarantineRuntime] = {}
        #: Paths whose probation a down risk group holds back: dedupes
        #: the "probation-hold" line per outage; not replayed, so a
        #: restarted machine logs its own hold.
        self._held: set[int] = set()
        #: A superset of the paths whose machine is not at rest (state
        #: other than healthy, or an unhealthy streak running): the only
        #: ones a tick without a cause has to visit.
        self._unsettled: set[int] = set()
        self._guarded = False

    def start(self, warm: bool) -> None:
        """Every (re)start (a cold one resets).  The first wraps the data
        selector so it skips quarantined paths, once: the wrapper is
        installed data-plane state and outlives restarts."""
        if not warm:
            self.reset()
        if not self._guarded:
            self._guarded = True
            self.gateway.set_data_selector(
                GuardedSelector(self.gateway.data_selector, self.quarantined)
            )

    def forget(self) -> None:
        """Lose the machine's memory, as a crash does (the quarantined
        set is installed data-plane state and survives)."""
        self._runtimes.clear()
        self._held.clear()
        self._unsettled.clear()
        self.fallback = False

    def reset(self) -> None:
        """Forget, and re-admit every tunnel pending a fresh verdict."""
        self.forget()
        self.quarantined.clear()

    def tick(self, now: float, seen: _Observation) -> None:
        """Step every tunnel that has a cause or is not at rest, in table
        order, then the fallback flag.  A cause is staleness of a measured
        tunnel (warming-up ones are exempt; a feed outage is none) or loss
        above the policy's threshold; ``""`` is none."""
        policy = self.policy
        stale_after = math.inf if seen.outage else seen.staleness_s
        runtimes = self._runtimes
        if not runtimes.keys() >= seen.id_set:
            for pid in seen.id_set - runtimes.keys():
                runtimes[pid] = _QuarantineRuntime(backoff_s=policy.probation_delay_s)
        threshold = policy.loss_threshold
        unsettled = self._unsettled
        for path_id, label, age, loss in zip(
            seen.ids, seen.labels, seen.ages, seen.losses
        ):
            if age is not None and age > stale_after:
                cause = "stale"
            elif loss > threshold:
                cause = "loss"
            elif path_id in unsettled:
                cause = ""
            else:
                continue
            runtime = runtimes[path_id]
            if runtime.state == "healthy":
                if not cause:
                    runtime.unhealthy_streak = 0
                    unsettled.discard(path_id)
                    continue
                unsettled.add(path_id)
                runtime.unhealthy_streak += 1
                if runtime.unhealthy_streak >= policy.unhealthy_ticks:
                    backoff = runtime.backoff_s or policy.probation_delay_s
                    self._transition(now, "quarantine", path_id, label, cause, backoff)
            elif runtime.state == "quarantined":
                if now < runtime.probation_at:
                    continue
                if not self._risk_group_down(path_id):
                    self._transition(now, "probation", path_id, label)
                elif path_id not in self._held:
                    # Probing can only re-confirm the group's outage and
                    # burn a backoff doubling: hold until it recovers.
                    self._held.add(path_id)
                    self._transition(now, "probation-hold", path_id, label, "srlg-down")
            elif runtime.state == "probation":
                if cause:
                    backoff = runtime.backoff_s or policy.probation_delay_s
                    self._transition(now, "quarantine", path_id, label, cause, backoff)
                    continue
                runtime.healthy_streak += 1
                if runtime.healthy_streak >= policy.probation_ticks:
                    self._transition(now, "restore", path_id, label)
        active = bool(seen.ids) and seen.id_set <= self.quarantined
        if active != self.fallback:
            self._transition(now, "fallback-on" if active else "fallback-off")

    def _risk_group_down(self, path_id: int) -> bool:
        """True when the tunnel's shared-risk group is known to be down."""
        if self.srlg_registry is None:
            return False
        down = self.srlg_registry.down_groups()
        return bool(down and self.gateway.tunnel_table.by_id(path_id).srlgs & down)

    def _transition(
        self,
        now: float,
        action: str,
        path_id: int = -1,
        label: str = "*",
        cause: str = "",
        backoff_s: float = 0.0,
    ) -> None:
        """One live transition: logged, journaled, then applied."""
        self.log.append(QuarantineEvent(now, path_id, label, action, cause, backoff_s))
        if path_id < 0:
            entry = self.journal.record("fallback", now, active=action == "fallback-on")
        else:
            entry = self.journal.record(
                action, now, path_id=path_id, label=label, cause=cause,
                backoff_s=backoff_s,
            )
        self.apply(entry)

    def apply(self, entry: Mapping) -> None:
        """Apply one journaled transition, live or on WAL replay (holds,
        other machines' and informational kinds change nothing)."""
        kind = entry["kind"]
        if kind == "fallback":
            self.fallback = entry["active"]
        if kind not in ("quarantine", "probation", "restore"):
            return
        path_id = entry["path_id"]
        runtime = self._runtimes.setdefault(path_id, _QuarantineRuntime())
        policy = self.policy
        if kind == "quarantine":
            backoff = entry["backoff_s"]
            runtime.state = "quarantined"
            runtime.unhealthy_streak = 0
            runtime.probation_at = entry["t"] + backoff
            runtime.backoff_s = min(
                backoff * policy.backoff_factor, policy.max_probation_delay_s
            )
            self.quarantined.add(path_id)
        elif kind == "probation":
            runtime.state = "probation"
            runtime.healthy_streak = 0
            self.quarantined.discard(path_id)
            self._held.discard(path_id)
        else:
            runtime.state = "healthy"
            runtime.backoff_s = policy.probation_delay_s
            runtime.unhealthy_streak = 0

    def snapshot(self) -> dict:
        """The machine's part of a checkpoint."""
        return {
            "fallback_active": self.fallback,
            "quarantined": sorted(self.quarantined),
            "qstate": {
                str(path_id): asdict(runtime)
                for path_id, runtime in sorted(self._runtimes.items())
            },
        }

    def restore(self, snapshot: Mapping, wal: Sequence[Mapping]) -> None:
        """Reset, load the checkpoint's part, replay the WAL.  Streak
        counters inside replayed transitions restart at zero — a
        conservative loss (hysteresis re-arms, state is exact)."""
        self.reset()
        for key, raw in snapshot.get("qstate", {}).items():
            self._runtimes[int(key)] = _QuarantineRuntime(**raw)
        self.quarantined.update(snapshot.get("quarantined", ()))
        self.fallback = snapshot.get("fallback_active", False)
        for entry in wal:
            self.apply(entry)
        self._unsettled.update(self._runtimes)


class ModeMachine:
    """The estimation source: the peer's mirrored samples (cooperative)
    or the local RTT estimates (degraded).  Downgrades when the peer feed
    goes stale past the config's horizon or its trust monitor distrusts
    the peer; upgrades after ``heal_ticks`` fresh ticks.
    """

    observes = True

    def __init__(
        self,
        config: DegradedModeConfig,
        gateway: TangoGateway,
        journal: NullJournal,
    ) -> None:
        self.config = config
        self.gateway = gateway
        self.journal = journal
        #: cooperative | degraded.
        self.mode = MODE_COOPERATIVE
        #: Every downgrade/upgrade, in tick order (cumulative trace).
        self.log: list[ModeTransition] = []
        self._heal_streak = 0
        #: The store that means "cooperative" to the measured selector.
        self._cooperative_store = None

    def forget(self) -> None:
        """Lose the machine's memory, as a crash does (the data plane
        keeps its store; :meth:`start` re-learns the cooperative one)."""
        self.mode = MODE_COOPERATIVE
        self._heal_streak = 0
        self._cooperative_store = None

    def reset(self) -> None:
        """Start over in cooperative mode."""
        self._heal_streak = 0
        if self.mode != MODE_COOPERATIVE:
            self._enter(MODE_COOPERATIVE)

    def start(self, warm: bool) -> None:
        """Every (re)start (a cold one resets): point the data plane at the
        mode's store.  After a crash it may still hold the degraded
        estimates; the mirrored store is then the gateway's outbound."""
        if not warm:
            self.reset()
        selector = self._measured_selector()
        if selector is None:
            return
        store = getattr(selector, "store", None)
        if store is None or store is self.config.estimates:
            if self._cooperative_store is None:
                self._cooperative_store = self.gateway.outbound
        else:
            self._cooperative_store = store
        self._enter(self.mode)

    def tick(self, now: float, seen: _Observation) -> None:
        """Step on the age of the freshest mirrored sample across paths
        (None: nothing measured yet), then mark a feed outage."""
        staleness = seen.freshest
        config = self.config
        trust = config.trust
        distrusted = False
        if trust is not None:
            if trust.poll(now):
                self.journal.record("trust", now, state=trust.state)
            # Distrust is worse than staleness: it forces the local-RTT
            # fallback and suppresses healing until the peer is readmitted.
            distrusted = trust.distrusted
        horizon = config.horizon_s
        if self.mode == MODE_COOPERATIVE:
            if distrusted or (staleness is not None and staleness > horizon):
                self._transition(MODE_DEGRADED, now, staleness)
        elif distrusted or staleness is None or staleness > horizon:
            self._heal_streak = 0
        else:
            self._heal_streak += 1
            if self._heal_streak >= config.heal_ticks:
                self._transition(MODE_COOPERATIVE, now, staleness)
        # Every measured path stale at once: the mirror is down, not the
        # tunnels; the degraded estimator routes, quarantine holds off.
        seen.outage = staleness is not None and staleness > seen.staleness_s

    def _transition(self, mode: str, now: float, staleness: Optional[float]) -> None:
        """One live transition: logged, journaled, then applied."""
        self.log.append(ModeTransition(t=now, mode=mode, staleness_s=staleness))
        self.apply(self.journal.record("mode", now, mode=mode))

    def apply(self, entry: Mapping) -> None:
        """Apply one journaled ``mode`` entry (others change nothing),
        live or on WAL replay."""
        if entry["kind"] == "mode":
            self._heal_streak = 0
            self._enter(entry["mode"])

    def _enter(self, mode: str) -> None:
        """Set the mode and point the measured selector at its store."""
        self.mode = mode
        selector = self._measured_selector()
        if selector is None:
            return
        if mode == MODE_DEGRADED:
            selector.store = self.config.estimates
        elif self._cooperative_store is not None:
            selector.store = self._cooperative_store

    def _measured_selector(self) -> Optional[MeasuredSelector]:
        """The store-reading selector deciding data traffic, if any."""
        selector = self.gateway.data_selector
        if isinstance(selector, GuardedSelector):
            selector = selector.inner
        return selector if isinstance(selector, MeasuredSelector) else None

    def snapshot(self) -> dict:
        """The machine's part of a checkpoint."""
        return {"mode": self.mode}

    def restore(self, snapshot: Mapping, wal: Sequence[Mapping]) -> None:
        """Reset, enter the checkpoint's mode if it differs (so an empty
        journal restores a cold start), replay the WAL."""
        self.reset()
        mode = snapshot.get("mode", MODE_COOPERATIVE)
        if mode != self.mode:
            self._enter(mode)
        for entry in wal:
            self.apply(entry)


class TangoController:
    """Slow-path loop for one gateway.

    The constructor checks the arguments against each other before
    anything is installed, then builds :attr:`stages`; each has
    ``observes``, ``tick``, ``start``, ``forget``, ``snapshot`` and
    ``restore``.

    Args:
        gateway: the gateway to manage.
        sim: simulator whose clock drives the loop.
        interval_s: loop cadence.
        staleness_s: a tunnel with no mirrored measurement within this
            horizon is reported unhealthy.
        quarantine: add the quarantine stage with these parameters; None
            (the default) keeps the controller report-only.
        degraded: add the mode stage: RTT-probing fallback when the peer
            telemetry feed goes stale past the config's horizon or its
            trust monitor distrusts the peer; None keeps cooperative
            estimates.
        journal: write-ahead-log every routing decision and checkpoint
            runtime state periodically; None keeps a ``NullJournal``.
        frr: add fast reroute over shared-risk groups as the first stage.
        srlg_registry: failure-domain state quarantine probation consults
            before probing a tunnel whose risk group is still down.
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
        frr: Optional["FastReroute"] = None,
        srlg_registry: Optional["SrlgRegistry"] = None,
        scheduler: Optional[TickScheduler] = None,
    ) -> None:
        positive("interval_s", interval_s)
        #: Schedules the loop, on the shared wheel or a dedicated task.
        self._schedule: Callable[[], PeriodicTask | TickHandle]
        if scheduler is None:
            self._schedule = lambda: sim.call_every(interval_s, self._tick)
        else:
            every = scheduler.every_for(interval_s)
            self._schedule = lambda: scheduler.register(
                self._scheduled_tick, every=every, name=gateway.config.name
            )
        self.gateway = gateway
        self.sim = sim
        self.interval_s = interval_s
        self.staleness_s = staleness_s
        self.journal = journal or NullJournal()
        self.srlg_registry = srlg_registry
        self.mode_machine = degraded and ModeMachine(degraded, gateway, self.journal)
        self.quarantine_machine = machine = quarantine and QuarantineMachine(
            quarantine, gateway, self.journal, srlg_registry
        )
        # Fast reroute first, so a group event repoints the data plane on
        # this very tick; the quarantine stage reads the mode stage's outage.
        stages = (frr and _Reroute(frr), self.mode_machine, machine)
        #: The loop's stages in tick order, one per collaborator given.
        self.stages = tuple(stage for stage in stages if stage)
        self._observes = any(stage.observes for stage in self.stages)
        self.choice_trace = TimeSeries()
        self.ticks = 0
        #: True between :meth:`crash` and the next (re)start.
        self.crashed = False
        # The machines' records, never rebound; a feature that is off
        # keeps its records, empty.
        self.quarantined = machine.quarantined if machine else set()
        self.quarantine_log = machine.log if machine else []
        self.mode_log = self.mode_machine.log if self.mode_machine else []
        #: The scheduled control loop, on the wheel or a dedicated task.
        self._loop: Optional[PeriodicTask | TickHandle] = None
        self._last_logged_choice: Optional[float] = None
        self._seen = _Observation(staleness_s)

    @property
    def mode(self) -> str:
        """Estimation source currently in use: cooperative | degraded."""
        return self.mode_machine.mode if self.mode_machine else MODE_COOPERATIVE

    def start(self, warm: bool = False) -> None:
        """Begin (or restart) the control loop.

        Safe after :meth:`stop`: a cold start resets every machine so a
        tunnel that was quarantined before the restart is re-evaluated
        from scratch.  Cumulative traces are kept either way.

        Args:
            warm: keep the current runtime state — the supervisor's
                recovery path, used right after :meth:`restore_state` so
                a restart does not re-thrash tunnels.
        """
        if self.running:
            raise RuntimeError("controller already started")
        for stage in self.stages:
            stage.start(warm)
        self.crashed = False
        self._loop = self._schedule()

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
        selector was pointed at, a fast-reroute pin) and the
        experimenter's cumulative traces (``choice_trace``,
        ``quarantine_log``, ``mode_log``, ``ticks``).  Everything the
        controller *knew* — quarantine machines, streaks, probation
        holds, estimation-mode bookkeeping — is wiped; recovery must come
        from the journal (see :meth:`restore_state`).
        """
        self.stop()
        self.crashed = True
        self._last_logged_choice = None
        for stage in self.stages:
            stage.forget()

    def _tick(self) -> None:
        self.ticks += 1
        now = self.sim.now
        self.gateway.loss_monitor.sample(now)
        choice = getattr(self.gateway.selector, "last_choice", None)
        recorded = float(-1 if choice is None else choice)
        self.choice_trace.append(now, recorded)
        if recorded != self._last_logged_choice:
            self._last_logged_choice = recorded
            self.journal.record("choice", now, path_id=int(recorded))
        seen = self._observe(now) if self._observes else self._seen
        for stage in self.stages:
            stage.tick(now, seen)
        self.journal.checkpoint_if_due(self.ticks, self.snapshot_state)

    def _observe(self, now: float) -> _Observation:
        """Read every tunnel's outbound age and last loss bin, once: the
        observation the stages and :meth:`health` share."""
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
        seen.outage = False
        return seen

    # -- crash-safe persistence ----------------------------------------------------

    def snapshot_state(self) -> dict:
        """JSON-serializable runtime state — the checkpoint payload.  Its
        keys do not depend on the stages: a machine not built is at rest."""
        state = {"ticks": self.ticks, "mode": MODE_COOPERATIVE, "qstate": {}}
        state.update(fallback_active=False, quarantined=[])
        for stage in self.stages:
            state.update(stage.snapshot())
        return state

    def restore_state(
        self,
        snapshot: Optional[Mapping],
        wal: Sequence[Mapping] = (),
    ) -> None:
        """Warm-restore from a checkpoint plus WAL replay: each stage
        resets, loads its part of the checkpoint (keys it does not know
        are ignored) and applies every WAL entry since.  Must be followed
        by ``start(warm=True)``; cumulative traces are never touched
        (they are the experimenter's record, not process state).
        """
        if self.running:
            raise RuntimeError("cannot restore a running controller")
        for stage in self.stages:
            stage.restore(snapshot or {}, wal)

    # -- health -----------------------------------------------------------------

    def health(self) -> list[TunnelHealth]:
        """Per-tunnel health now: the control loop's observation, with
        freshness judged against the staleness horizon."""
        seen, staleness = self._observe(self.sim.now), self.staleness_s
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
