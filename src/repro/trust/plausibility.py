"""Plausibility gating of peer-reported one-way delays.

Authentication proves a sample came from the peer; it does not prove the
sample is *sane* — a compromised peer, a replayed frame that beat the MAC
window, or a corrupted store can still report nonsense.  The filter
cross-checks every mirrored sample against knowledge the local edge owns
outright:

* **continuity** — per-path sample times must advance; a duplicate or
  rewound timestamp is a replay artifact, not a measurement;
* **freshness** — a sample older than ``max_age_s`` at delivery carries
  no routing information (and is the signature of a replay attack);
* **envelope** — the measured OWD, minus the expected clock-offset
  residual, must land within a tolerance band around the local RTT/2
  estimate for the same path (the
  :class:`~repro.resilience.degraded.RttFallbackEstimator` the degraded
  mode already maintains).

The expected residual comes from a
:class:`~repro.trust.clock.ClockIntegrityMonitor` when one is attached —
drift and steps are then re-estimated away instead of poisoning the
verdicts.  Without a monitor the filter freezes the offset it saw during
calibration, which is exactly the drift-fragile behaviour the E17
ablation demonstrates.
"""

from __future__ import annotations

import math
import statistics
from typing import Optional

from ..telemetry.store import MeasurementStore
from ..validate import int_in, non_negative, positive
from .clock import ClockIntegrityMonitor

__all__ = ["PlausibilityFilter"]


class PlausibilityFilter:
    """Admit-or-reject gate for one peer direction's mirrored samples.

    Args:
        envelope: local RTT/2 estimate store (per path) — the bound
            reality check no peer can forge.
        monitor: clock-integrity tracker; None freezes the first
            calibrated offset forever (drift-fragile, for ablations).
        abs_slack_s: absolute tolerance around the predicted value.
        rel_slack: additional tolerance as a fraction of the local
            estimate (wide-area jitter scales with path length).
        max_age_s: sample age at delivery beyond which it is rejected.
        calibration_samples: residuals collected before the frozen-offset
            fallback starts judging (ignored when a monitor is attached).
    """

    def __init__(
        self,
        envelope: MeasurementStore,
        monitor: Optional[ClockIntegrityMonitor] = None,
        abs_slack_s: float = 2e-3,
        rel_slack: float = 0.35,
        max_age_s: float = 2.0,
        calibration_samples: int = 12,
    ) -> None:
        positive("abs_slack_s", abs_slack_s)
        non_negative("rel_slack", rel_slack)
        positive("max_age_s", max_age_s)
        int_in(2)("calibration_samples", calibration_samples)
        self.envelope = envelope
        self.monitor = monitor
        self.abs_slack_s = abs_slack_s
        self.rel_slack = rel_slack
        self.max_age_s = max_age_s
        self.calibration_samples = calibration_samples
        self.admitted = 0
        self.rejected_stale = 0
        self.rejected_discontinuity = 0
        self.rejected_envelope = 0
        self._last_t: dict[int, float] = {}
        self._calibration: list[float] = []
        self._frozen_offset: Optional[float] = None

    @property
    def rejected(self) -> int:
        """Total rejections — the trust policy's anomaly source."""
        return (
            self.rejected_stale
            + self.rejected_discontinuity
            + self.rejected_envelope
        )

    def admit(self, path_id: int, t: float, value: float, now: float) -> bool:
        """Judge one mirrored sample ``(path_id, t, value)`` at delivery
        time ``now``.  Only admitted samples advance the per-path
        continuity horizon — rejected ones must not be able to push it.
        A non-finite ``t`` is a discontinuity and a non-finite ``value``
        is outside any envelope: a NaN compares False both ways, so it
        would pass both checks, and an admitted NaN time would switch the
        continuity check off for that path.  A non-finite ``now`` gives
        no age, so the sample is stale: a NaN or ``-inf`` age would pass
        the age check at any ``t``."""
        last = self._last_t.get(path_id)
        if not math.isfinite(t) or (last is not None and t <= last):
            self.rejected_discontinuity += 1
            return False
        if not math.isfinite(now) or now - t > self.max_age_s:
            self.rejected_stale += 1
            return False
        if not math.isfinite(value):
            self.rejected_envelope += 1
            return False
        local = self.envelope.last_value(path_id)
        if local is None:
            # No envelope yet for this path: admit, learn nothing.
            self._last_t[path_id] = t
            self.admitted += 1
            return True
        residual = value - local
        predicted = self._predicted_residual(path_id, t, residual)
        if predicted is not None:
            tolerance = self.abs_slack_s + self.rel_slack * local
            if abs(residual - predicted) > tolerance:
                self.rejected_envelope += 1
                return False
        self._last_t[path_id] = t
        self.admitted += 1
        return True

    def _predicted_residual(
        self, path_id: int, t: float, residual: float
    ) -> Optional[float]:
        """Expected offset residual at ``t`` — monitor-tracked when one is
        attached, otherwise frozen at the calibration-window median.

        The monitor observes *every* sample, judged or not: the robust
        fit is the consensus that must keep following a drifting clock
        even while individual samples are being rejected.
        """
        if self.monitor is not None:
            predicted = self.monitor.predicted_residual(t)
            self.monitor.observe(path_id, t, residual)
            return predicted
        if self._frozen_offset is None:
            self._calibration.append(residual)
            if len(self._calibration) >= self.calibration_samples:
                self._frozen_offset = statistics.median(self._calibration)
            return None
        return self._frozen_offset

    def __repr__(self) -> str:
        return (
            f"PlausibilityFilter(admitted={self.admitted}, "
            f"stale={self.rejected_stale}, "
            f"discontinuity={self.rejected_discontinuity}, "
            f"envelope={self.rejected_envelope})"
        )
