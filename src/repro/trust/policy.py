"""Peer-trust state machine: rate the feed, not just the tunnels.

Quarantine (PR 2) evicts individual *tunnels*; this module rates the
*peer relationship* itself.  Anomaly evidence — MAC rejections, replay
hits, plausibility rejections — accumulates per control tick, and the
state machine walks ``trusted → suspect → distrusted`` with the same
hysteresis-plus-probation discipline as
:class:`~repro.core.controller.QuarantinePolicy`: demotions need
sustained evidence, re-trust is earned through a clean probation, and
repeat offenders face exponentially longer distrust periods.  While
distrusted, the controller demotes selection to degraded local-RTT mode
(the measurement status quo needs no peer honesty); healing restores the
cooperative feed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping

from ..validate import check_fields, finite, int_in, positive

__all__ = [
    "TRUST_TRUSTED",
    "TRUST_SUSPECT",
    "TRUST_DISTRUSTED",
    "TRUST_PROBATION",
    "PeerTrustPolicy",
    "TrustEvent",
    "PeerTrustMonitor",
]

TRUST_TRUSTED = "trusted"
TRUST_SUSPECT = "suspect"
TRUST_DISTRUSTED = "distrusted"
TRUST_PROBATION = "probation"


@dataclass(frozen=True)
class PeerTrustPolicy:
    """Tuning knobs of the peer-trust state machine.

    Attributes:
        suspect_anomalies: anomalies within a single poll that move a
            trusted peer to suspect (a lone bit-flip stays trusted).
        distrust_anomalies: cumulative anomalies while suspect that
            demote to distrusted.
        clean_polls: consecutive anomaly-free polls for a suspect peer
            to be re-trusted without ever being demoted.
        probation_delay_s: initial distrust duration before probation.
        backoff_factor: distrust-duration multiplier per re-demotion.
        max_probation_delay_s: distrust-duration ceiling.
        probation_polls: consecutive clean polls on probation required
            to restore full trust (and reset the backoff).
    """

    suspect_anomalies: int = field(default=3, metadata={"check": int_in(1)})
    distrust_anomalies: int = field(default=12, metadata={"check": int_in(1)})
    clean_polls: int = field(default=5, metadata={"check": int_in(1)})
    probation_delay_s: float = field(default=3.0, metadata={"check": positive})
    backoff_factor: float = field(default=2.0, metadata={"check": finite})
    max_probation_delay_s: float = field(default=60.0, metadata={"check": finite})
    probation_polls: int = field(default=3, metadata={"check": int_in(1)})

    def __post_init__(self) -> None:
        check_fields(self)
        if self.distrust_anomalies < self.suspect_anomalies:
            raise ValueError("distrust_anomalies below suspect_anomalies")
        if self.backoff_factor < 1.0:
            raise ValueError("backoff_factor must be >= 1")
        if self.max_probation_delay_s < self.probation_delay_s:
            raise ValueError("max_probation_delay_s below probation_delay_s")


@dataclass(frozen=True)
class TrustEvent:
    """One transition of the trust state machine."""

    t: float
    state: str
    anomalies: int  # cumulative anomaly count at transition time
    cause: str = ""


class PeerTrustMonitor:
    """Polls anomaly sources and walks the trust state machine.

    Args:
        policy: state-machine tuning.
        sources: name -> zero-argument callable returning a *cumulative*
            anomaly count (e.g. an authenticator's rejected+replayed, a
            plausibility filter's rejected).  Deltas between polls are
            the evidence stream.
        name: label used in diagnostics.
    """

    def __init__(
        self,
        policy: PeerTrustPolicy,
        sources: Mapping[str, Callable[[], int]],
        name: str = "peer",
    ) -> None:
        if not sources:
            raise ValueError("need at least one anomaly source")
        self.policy = policy
        self.sources = dict(sources)
        self.name = name
        self.state = TRUST_TRUSTED
        self.events: list[TrustEvent] = []
        self.anomalies_total = 0
        self._last_counts = {key: 0 for key in self.sources}
        self._suspect_accum = 0
        self._clean_streak = 0
        self._backoff_s = policy.probation_delay_s
        self._probation_at = 0.0

    @property
    def distrusted(self) -> bool:
        """True while the controller must not route on the peer feed."""
        return self.state == TRUST_DISTRUSTED

    def poll(self, now: float) -> bool:
        """Advance the machine one control tick.  Returns True when the
        state changed (the controller's journaling trigger)."""
        delta = 0
        for key, source in self.sources.items():
            count = int(source())
            delta += max(0, count - self._last_counts[key])
            self._last_counts[key] = count
        self.anomalies_total += delta
        before = self.state
        handler = getattr(self, f"_poll_{self.state}")
        handler(now, delta)
        return self.state != before

    # -- per-state steps -----------------------------------------------------------

    def _poll_trusted(self, now: float, delta: int) -> None:
        if delta >= self.policy.suspect_anomalies:
            self._suspect_accum = delta
            self._clean_streak = 0
            self._transition(TRUST_SUSPECT, now, "anomaly-burst")
            if self._suspect_accum >= self.policy.distrust_anomalies:
                # One overwhelming burst: no reason to wait a poll.
                self._demote(now)

    def _poll_suspect(self, now: float, delta: int) -> None:
        self._suspect_accum += delta
        if self._suspect_accum >= self.policy.distrust_anomalies:
            self._demote(now)
        elif delta == 0:
            self._clean_streak += 1
            if self._clean_streak >= self.policy.clean_polls:
                self._suspect_accum = 0
                self._transition(TRUST_TRUSTED, now, "cleared")
        else:
            self._clean_streak = 0

    def _poll_distrusted(self, now: float, delta: int) -> None:
        if now >= self._probation_at:
            self._clean_streak = 0
            self._transition(TRUST_PROBATION, now, "probation")

    def _poll_probation(self, now: float, delta: int) -> None:
        if delta > 0:
            self._demote(now)
            return
        self._clean_streak += 1
        if self._clean_streak >= self.policy.probation_polls:
            self._backoff_s = self.policy.probation_delay_s
            self._suspect_accum = 0
            self._transition(TRUST_TRUSTED, now, "healed")

    def _demote(self, now: float) -> None:
        backoff = self._backoff_s
        self._probation_at = now + backoff
        self._backoff_s = min(
            backoff * self.policy.backoff_factor,
            self.policy.max_probation_delay_s,
        )
        self._transition(TRUST_DISTRUSTED, now, "evidence")

    def _transition(self, state: str, now: float, cause: str) -> None:
        self.state = state
        self.events.append(
            TrustEvent(
                t=now, state=state, anomalies=self.anomalies_total, cause=cause
            )
        )

    def __repr__(self) -> str:
        return (
            f"PeerTrustMonitor({self.name}, state={self.state}, "
            f"anomalies={self.anomalies_total})"
        )
