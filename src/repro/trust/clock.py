"""Clock-integrity monitoring: track the offset instead of trusting it.

Tango's soundness argument assumes the offset between the two edges'
free-running clocks is constant.  Real oscillators drift (tens of ppm)
and get slammed by NTP steps; either breaks any *absolute* check on
peer-reported one-way delays — which is exactly what the plausibility
layer performs.  Without compensation, a drifting peer clock makes every
honest sample look implausible and an honest peer look Byzantine.

:class:`ClockIntegrityMonitor` closes the loop: it observes the residual
``measured_owd - local_rtt_half`` (which equals clock offset plus path
asymmetry plus noise), fits a robust line through a rolling window —
Theil–Sen split-pair slopes and a median intercept, so a minority of
tampered samples cannot steer the fit — and exposes the *predicted*
residual for any time.  The plausibility filter subtracts the prediction
before judging a sample, so drift is re-estimated away rather than
misread as an attack; genuine steps are detected by per-path consensus
(the median path deviation jumps) and the window is rebased.
"""

from __future__ import annotations

import statistics
from collections import deque
from dataclasses import dataclass
from typing import Optional

from ..validate import int_in, non_negative, positive

__all__ = ["ClockEvent", "ClockIntegrityMonitor"]


@dataclass(frozen=True)
class ClockEvent:
    """One detected clock anomaly.

    Attributes:
        t: simulation time of detection.
        kind: ``drift`` (slope beyond threshold) or ``step`` (level jump).
        magnitude: slope in ppm for drift; for step, the consensus
            deviation (s) at detection — a conservative estimate that is
            at least the threshold and at most the full jump.
    """

    t: float
    kind: str
    magnitude: float


class ClockIntegrityMonitor:
    """Robust residual tracker for one peer direction.

    Samples from *all* paths of the direction are pooled: a clock problem
    shifts every path's residual identically, while an attacker tampering
    with one tunnel only contributes a minority of outliers that the
    median-based fit ignores.

    Args:
        window: rolling buffer size (samples kept for the fit).
        min_samples: observations required before predictions are made.
        step_threshold_s: median per-path deviation that counts as a step.
        drift_threshold_ppm: fitted slope (ppm) that raises a drift event.
        min_span_s: seconds of observation required before a drift event
            may be reported — early slopes are noise amplified (the
            prediction is unaffected; only event reporting waits).
    """

    #: Largest drift the re-estimation loop can track before honest
    #: samples drift out of the plausibility envelope faster than the
    #: rolling fit converges.  TNG105 rejects ``clock_drift`` plans past
    #: this bound — such a plan tests nothing but the filter's slack.
    MAX_TRACKABLE_PPM = 500.0

    #: Consecutive above-threshold fit evaluations required before a
    #: drift event is reported — one noisy slope estimate is not drift.
    DRIFT_CONFIRM = 12

    def __init__(
        self,
        window: int = 128,
        min_samples: int = 12,
        step_threshold_s: float = 2.5e-3,
        drift_threshold_ppm: float = 50.0,
        min_span_s: float = 3.0,
    ) -> None:
        int_in(8)("window", window)
        int_in(2, window)("min_samples", min_samples)
        positive("step_threshold_s", step_threshold_s)
        positive("drift_threshold_ppm", drift_threshold_ppm)
        non_negative("min_span_s", min_span_s)
        self.window = window
        self.min_samples = min_samples
        self.step_threshold_s = step_threshold_s
        self.drift_threshold_ppm = drift_threshold_ppm
        self.min_span_s = min_span_s
        self.samples = 0
        self.events: list[ClockEvent] = []
        self._buffer: deque[tuple[float, float]] = deque(maxlen=window)
        self._path_dev: dict[int, float] = {}
        self._paths_seen: set[int] = set()
        self._first_t: Optional[float] = None
        self._fit: Optional[tuple[float, float]] = None  # (slope, intercept)
        self._fit_dirty = True
        self._drift_flagged = False
        self._drift_streak = 0

    # -- observation ---------------------------------------------------------------

    def observe(self, path_id: int, t: float, residual_s: float) -> None:
        """Fold in one residual sample (admitted or not — the fit is the
        robust consensus, and it must see drift even while the envelope
        rejects everything)."""
        self.samples += 1
        if self._first_t is None:
            self._first_t = t
        self._paths_seen.add(path_id)
        prediction = self.predicted_residual(t)
        self._buffer.append((t, residual_s))
        self._fit_dirty = True
        if prediction is None:
            return
        self._path_dev[path_id] = residual_s - prediction
        self._maybe_step(t)
        self._maybe_drift(t)

    def _maybe_step(self, t: float) -> None:
        """Step = every path's residual jumped together (median consensus);
        a single tampered tunnel cannot move the median of 4 paths."""
        # Wait until every known path has a recorded deviation: with a
        # partial sweep, one tampered tunnel is not yet a minority.
        if len(self._path_dev) < max(2, len(self._paths_seen)):
            return
        consensus = statistics.median(self._path_dev.values())
        if abs(consensus) <= self.step_threshold_s:
            return
        self.events.append(ClockEvent(t=t, kind="step", magnitude=consensus))
        # Rebase: the pre-step window is history from a different clock
        # era; keep only the most recent few samples so the fit converges
        # on the post-step level immediately.
        keep = list(self._buffer)[-self.min_samples :]
        self._buffer.clear()
        self._buffer.extend(keep)
        self._path_dev.clear()
        self._fit_dirty = True

    def _maybe_drift(self, t: float) -> None:
        ppm = self.drift_ppm()
        if ppm is None:
            return
        if self._first_t is None or t - self._first_t < self.min_span_s:
            return
        if abs(ppm) > self.drift_threshold_ppm:
            self._drift_streak += 1
            if self._drift_streak >= self.DRIFT_CONFIRM:
                if not self._drift_flagged:
                    self._drift_flagged = True
                    self.events.append(
                        ClockEvent(t=t, kind="drift", magnitude=ppm)
                    )
        else:
            self._drift_streak = 0
            if abs(ppm) < self.drift_threshold_ppm / 2.0:
                self._drift_flagged = False  # re-arm once the clock settles

    # -- estimation ----------------------------------------------------------------

    def _fit_line(self) -> Optional[tuple[float, float]]:
        if not self._fit_dirty:
            return self._fit
        self._fit_dirty = False
        n = len(self._buffer)
        if n < self.min_samples:
            self._fit = None
            return None
        points = list(self._buffer)
        half = n // 2
        slopes = []
        for i in range(half):
            t0, r0 = points[i]
            t1, r1 = points[i + half]
            if t1 > t0:
                slopes.append((r1 - r0) / (t1 - t0))
        slope = statistics.median(slopes) if slopes else 0.0
        intercept = statistics.median(r - slope * t for t, r in points)
        self._fit = (slope, intercept)
        return self._fit

    def predicted_residual(self, t: float) -> Optional[float]:
        """Expected residual at time ``t`` (None while calibrating)."""
        fit = self._fit_line()
        if fit is None:
            return None
        slope, intercept = fit
        return intercept + slope * t

    def drift_ppm(self) -> Optional[float]:
        """Current fitted slope in parts-per-million (None while calibrating)."""
        fit = self._fit_line()
        if fit is None:
            return None
        return fit[0] * 1e6

    def __repr__(self) -> str:
        ppm = self.drift_ppm()
        return (
            f"ClockIntegrityMonitor(samples={self.samples}, "
            f"drift_ppm={'?' if ppm is None else f'{ppm:.1f}'}, "
            f"events={len(self.events)})"
        )
