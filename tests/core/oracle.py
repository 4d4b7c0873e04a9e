"""The per-tunnel observe loop and list-of-bins loss monitor, kept as oracles.

These were once the product's: ``TangoController`` built a frozen
``TunnelHealth`` per tunnel per tick (re-listing the tunnel table and
asking the outbound store for each tunnel's last time), ran every
tunnel through the quarantine machine, and scanned the list again for
degraded mode and the fallback flag; ``LossMonitor`` kept one frozen
``LossBin`` per path per sample and appended each loss fraction to its
own series.  They live here, unchanged in behaviour, so that
``tests/core/test_observe.py`` can drive them and the product with the
same calls and require the same logs, flags and series bytes.

:class:`TangoController` subclasses the product's and replaces only the
per-tick observation and what reads it; start/stop, crash, journal
replay and mode swaps are the product's own on both sides.
"""

from typing import Optional

from repro.core.controller import (
    QuarantineEvent,
    TunnelHealth,
    _QuarantineRuntime,
)
from repro.core.controller import TangoController as ProductController
from repro.resilience.degraded import MODE_COOPERATIVE, MODE_DEGRADED
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


class TangoController(ProductController):
    """The product controller with the per-tunnel ``TunnelHealth`` loop."""

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
