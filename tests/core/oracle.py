"""The controller as it was before its machines, and the list-of-bins
loss monitor, kept as oracles.

:class:`TangoController` is one class holding every transition twice:
applied live in the tick (``_quarantine_tick``, ``_set_mode``) and again
in ``_replay_wal_entry``, with the runtime reset by three hand-kept
attribute lists (``crash``, ``_reset_quarantine_runtime``,
``restore_state``).  Its tick is the per-tunnel loop: a frozen
``TunnelHealth`` per tunnel per tick (re-listing the tunnel table and
asking the outbound store for each tunnel's last time), every tunnel
through the quarantine machine, and the list scanned again for degraded
mode and the fallback flag.  It takes the peer-trust monitor as its own
argument.  ``LossMonitor`` keeps one frozen ``LossBin`` per path per
sample and appends each loss fraction to its own series.

Both stand alone, sharing only plain records with the product, so that
``tests/core/test_observe.py`` can drive them and the product with the
same calls and require the same logs, flags, journal and series bytes.
"""

from typing import Mapping, Optional, Sequence

from repro.core.controller import (
    QuarantineEvent,
    TunnelHealth,
    _QuarantineRuntime,
)
from repro.core.policy import GuardedSelector, MeasuredSelector
from repro.resilience.degraded import (
    MODE_COOPERATIVE,
    MODE_DEGRADED,
    ModeTransition,
)
from repro.telemetry.loss import LossBin
from repro.telemetry.store import TimeSeries


class LossMonitor:
    """Periodically snapshots a tracker into per-path loss-rate series."""

    def __init__(self, tracker) -> None:
        self._tracker = tracker
        self._ids: list[int] = []
        self._last: dict[int, tuple[int, int]] = {}
        self.series: dict[int, TimeSeries] = {}
        self.bins: dict[int, list[LossBin]] = {}

    def sample(self, now: float) -> dict[int, LossBin]:
        """Snapshot all paths; returns the new bin per path."""
        states = self._tracker.states()
        if len(self._ids) != len(states):
            self._ids = sorted(states)
        out: dict[int, LossBin] = {}
        for path_id in self._ids:
            stats = states[path_id].stats
            prev_received, prev_lost = self._last.get(path_id, (0, 0))
            bin_ = LossBin(
                t=now,
                received=stats.received - prev_received,
                presumed_lost=stats.presumed_lost - prev_lost,
            )
            self._last[path_id] = (stats.received, stats.presumed_lost)
            series = self.series.get(path_id)
            if series is None:
                series = self.series[path_id] = TimeSeries()
            series.append(now, bin_.loss_fraction)
            self.bins.setdefault(path_id, []).append(bin_)
            out[path_id] = bin_
        return out

    def recent_loss(self, path_id: int, bins: int = 1) -> float:
        """Mean loss fraction over the last ``bins`` samples (0 if none)."""
        if bins < 1:
            raise ValueError(f"bins must be positive, got {bins}")
        history = self.bins.get(path_id, [])
        if not history:
            return 0.0
        tail = history[-bins:]
        received = sum(b.received for b in tail)
        lost = sum(b.presumed_lost for b in tail)
        total = received + lost
        return lost / total if total else 0.0


class TangoController:
    """Slow-path loop for one gateway: one class, every transition twice."""

    def __init__(
        self,
        gateway,
        sim,
        interval_s: float = 0.1,
        staleness_s: float = 2.0,
        quarantine=None,
        degraded=None,
        journal=None,
        trust=None,
        frr=None,
        srlg_registry=None,
        scheduler=None,
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
        self._loop = None
        self.ticks = 0
        self.quarantine_policy = quarantine
        self.quarantined: set[int] = set()
        self.quarantine_log: list[QuarantineEvent] = []
        self._qstate: dict[int, _QuarantineRuntime] = {}
        self._guard: Optional[GuardedSelector] = None
        self._fallback_active = False
        self.degraded = degraded
        self.journal = journal
        self.trust = trust
        self.mode = MODE_COOPERATIVE
        self.mode_log: list[ModeTransition] = []
        self.crashed = False
        self._heal_streak = 0
        self._cooperative_store = None
        self._last_logged_choice: Optional[float] = None
        self.frr = frr
        self.srlg_registry = srlg_registry
        if self.srlg_registry is None and frr is not None:
            self.srlg_registry = frr.registry
        self._probation_held: set[int] = set()

    def start(self, warm: bool = False) -> None:
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
        self._apply_mode(self.mode)
        self.crashed = False
        if self.scheduler is not None:
            self._loop = self.scheduler.register_every_s(
                self.interval_s,
                lambda now: self._tick(),
                name=self.gateway.config.name,
            )
        else:
            self._loop = self.sim.call_every(self.interval_s, self._tick)

    def stop(self) -> None:
        if self._loop is not None:
            self._loop.stop()
            self._loop = None

    @property
    def running(self) -> bool:
        return self._loop is not None

    def crash(self) -> None:
        self.stop()
        self.crashed = True
        self._qstate.clear()
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
            self.frr.tick(now)
        if self.quarantine_policy is not None or self.degraded is not None:
            healths = self.health()
            if self.degraded is not None:
                self._degraded_tick(healths, now)
            if self.quarantine_policy is not None:
                self._quarantine_tick(healths, now)
        if (
            self.journal is not None
            and self.ticks % self.journal.checkpoint_every_ticks == 0
        ):
            self.journal.checkpoint(self.snapshot_state())

    # -- degraded-mode estimation -------------------------------------------------

    @staticmethod
    def _peer_staleness(healths: list[TunnelHealth]) -> Optional[float]:
        ages = [
            h.last_measurement_age_s
            for h in healths
            if h.last_measurement_age_s is not None
        ]
        return min(ages) if ages else None

    def _feed_outage(self, healths: list[TunnelHealth]) -> bool:
        if self.degraded is None:
            return False
        measured = [h for h in healths if h.last_measurement_age_s is not None]
        return bool(measured) and all(not h.fresh for h in measured)

    def _degraded_tick(self, healths: list[TunnelHealth], now: float) -> None:
        config = self.degraded
        staleness = self._peer_staleness(healths)
        if self.trust is not None and self.trust.distrusted:
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
        self.mode = mode
        selector = self._measured_selector()
        if selector is None or self.degraded is None:
            return
        if mode == MODE_DEGRADED:
            selector.store = self.degraded.estimates
        elif self._cooperative_store is not None:
            selector.store = self._cooperative_store

    def _measured_selector(self) -> Optional[MeasuredSelector]:
        selector = self.gateway.data_selector
        if isinstance(selector, GuardedSelector):
            selector = selector.inner
        return selector if isinstance(selector, MeasuredSelector) else None

    def _capture_cooperative_store(self) -> None:
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

    def _unhealthy_cause(
        self, health: TunnelHealth, suppress_stale: bool = False
    ) -> Optional[str]:
        if health.last_measurement_age_s is not None and not health.fresh:
            if not suppress_stale:
                return "stale"
        if health.recent_loss > self.quarantine_policy.loss_threshold:
            return "loss"
        return None

    def _quarantine_tick(self, healths: list[TunnelHealth], now: float) -> None:
        policy = self.quarantine_policy
        suppress_stale = self._feed_outage(healths)
        for health in healths:
            runtime = self._qstate.setdefault(
                health.path_id, _QuarantineRuntime(backoff_s=policy.probation_delay_s)
            )
            cause = self._unhealthy_cause(health, suppress_stale)
            if runtime.state == "healthy":
                if cause is None:
                    runtime.unhealthy_streak = 0
                else:
                    runtime.unhealthy_streak += 1
                    if runtime.unhealthy_streak >= policy.unhealthy_ticks:
                        self._enter_quarantine(health, runtime, now, cause)
            elif runtime.state == "quarantined":
                if now >= runtime.probation_at:
                    if self._risk_group_down(health.path_id):
                        if health.path_id not in self._probation_held:
                            self._probation_held.add(health.path_id)
                            self._log(
                                now, health, "probation-hold", cause="srlg-down"
                            )
                    else:
                        self._probation_held.discard(health.path_id)
                        runtime.state = "probation"
                        runtime.healthy_streak = 0
                        self.quarantined.discard(health.path_id)
                        self._log(now, health, "probation")
            elif runtime.state == "probation":
                if cause is not None:
                    self._enter_quarantine(health, runtime, now, cause)
                else:
                    runtime.healthy_streak += 1
                    if runtime.healthy_streak >= policy.probation_ticks:
                        runtime.state = "healthy"
                        runtime.backoff_s = policy.probation_delay_s
                        runtime.unhealthy_streak = 0
                        self._log(now, health, "restore")
        self._update_fallback(healths, now)

    def _risk_group_down(self, path_id: int) -> bool:
        if self.srlg_registry is None:
            return False
        down = self.srlg_registry.down_groups()
        if not down:
            return False
        tunnel = self.gateway.tunnel_table.by_id(path_id)
        return tunnel is not None and bool(tunnel.srlgs & down)

    def _enter_quarantine(
        self,
        health: TunnelHealth,
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
        self.quarantined.add(health.path_id)
        self._log(now, health, "quarantine", cause=cause, backoff_s=backoff)

    def _update_fallback(self, healths: list[TunnelHealth], now: float) -> None:
        all_ids = {h.path_id for h in healths}
        active = bool(all_ids) and all_ids <= self.quarantined
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
        health: TunnelHealth,
        action: str,
        cause: str = "",
        backoff_s: float = 0.0,
    ) -> None:
        self.quarantine_log.append(
            QuarantineEvent(
                t=now,
                path_id=health.path_id,
                label=health.label,
                action=action,
                cause=cause,
                backoff_s=backoff_s,
            )
        )
        if self.journal is not None:
            self.journal.record(
                action,
                now,
                path_id=health.path_id,
                label=health.label,
                cause=cause,
                backoff_s=backoff_s,
            )

    # -- crash-safe persistence ----------------------------------------------------

    def snapshot_state(self) -> dict:
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

    # -- health -----------------------------------------------------------------

    def health(self) -> list[TunnelHealth]:
        now = self.sim.now
        out = []
        for tunnel in self.gateway.tunnel_table.all_tunnels():
            last = self.gateway.outbound.last_time(tunnel.path_id)
            age = None if last is None else now - last
            fresh = age is not None and age <= self.staleness_s
            out.append(
                TunnelHealth(
                    path_id=tunnel.path_id,
                    label=tunnel.label,
                    fresh=fresh,
                    last_measurement_age_s=age,
                    recent_loss=self.gateway.loss_monitor.recent_loss(
                        tunnel.path_id
                    ),
                )
            )
        return out
