"""Summary statistics and comparisons for measurement campaigns."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..telemetry.jitter import rolling_window_std
from ..telemetry.store import MeasurementStore

__all__ = [
    "PathStats",
    "campaign_table",
    "default_vs_best",
    "DefaultVsBest",
    "detect_excursions",
    "Excursion",
]


@dataclass(frozen=True)
class PathStats:
    """One path's campaign statistics (all delays in seconds)."""

    path_id: int
    label: str
    samples: int
    mean: float
    minimum: float
    maximum: float
    p50: float
    p95: float
    p99: float
    stddev: float
    jitter_1s: float

    def as_row(self) -> dict:
        """Milliseconds view for tables."""
        return {
            "path": self.label,
            "samples": self.samples,
            "mean_ms": self.mean * 1e3,
            "min_ms": self.minimum * 1e3,
            "p50_ms": self.p50 * 1e3,
            "p95_ms": self.p95 * 1e3,
            "p99_ms": self.p99 * 1e3,
            "max_ms": self.maximum * 1e3,
            "std_ms": self.stddev * 1e3,
            "jitter_1s_ms": self.jitter_1s * 1e3,
        }


def campaign_table(
    store: MeasurementStore,
    labels: dict[int, str],
    t0: Optional[float] = None,
    t1: Optional[float] = None,
) -> list[PathStats]:
    """Per-path statistics over a window (whole campaign by default)."""
    rows = []
    for path_id in store.path_ids():
        series = store.series(path_id)
        if t0 is None and t1 is None:
            times, values = series.times, series.values
        else:
            times, values = series.window(
                t0 if t0 is not None else float("-inf"),
                t1 if t1 is not None else float("inf"),
            )
        if values.size == 0:
            continue
        rows.append(
            PathStats(
                path_id=path_id,
                label=labels.get(path_id, str(path_id)),
                samples=int(values.size),
                mean=float(np.mean(values)),
                minimum=float(np.min(values)),
                maximum=float(np.max(values)),
                p50=float(np.percentile(values, 50)),
                p95=float(np.percentile(values, 95)),
                p99=float(np.percentile(values, 99)),
                stddev=float(np.std(values)),
                jitter_1s=rolling_window_std(times, values, 1.0),
            )
        )
    return rows


@dataclass(frozen=True)
class DefaultVsBest:
    """The paper's headline comparison for one direction."""

    default_label: str
    best_label: str
    default_mean: float
    best_mean: float

    @property
    def penalty_fraction(self) -> float:
        """How much worse the BGP default is than the best path.

        The difference of measured means is clock-offset-free; the
        denominator uses the best path's mean, so with a small (or
        corrected) offset this is the paper's "30% worse" number.
        """
        if self.best_mean <= 0:
            return float("nan")
        return (self.default_mean - self.best_mean) / self.best_mean


def default_vs_best(
    store: MeasurementStore,
    labels: dict[int, str],
    default_path_id: int,
) -> DefaultVsBest:
    """Compare the BGP-default path's mean against the best path's.

    Args:
        store: delays to compare (a clock-offset constant shifts both
            means and so distorts the penalty *fraction*: pass true ones).
        labels: path id -> label.
        default_path_id: the BGP default (discovery index 0).
    """
    means = {path_id: store.series(path_id).mean() for path_id in store.path_ids()}
    if default_path_id not in means:
        raise KeyError(f"default path {default_path_id} has no samples")
    best_id = min(means, key=lambda p: means[p])
    return DefaultVsBest(
        default_label=labels.get(default_path_id, str(default_path_id)),
        best_label=labels.get(best_id, str(best_id)),
        default_mean=means[default_path_id],
        best_mean=means[best_id],
    )


@dataclass(frozen=True)
class Excursion:
    """A contiguous period where a series exceeded a threshold."""

    start: float
    end: float
    peak: float

    @property
    def duration(self) -> float:
        return self.end - self.start


def detect_excursions(
    times: np.ndarray,
    values: np.ndarray,
    threshold: float,
    merge_gap_s: float = 1.0,
) -> list[Excursion]:
    """Find threshold excursions — how reports locate the Fig. 4 events.

    Consecutive above-threshold samples separated by gaps shorter than
    ``merge_gap_s`` merge into one excursion.
    """
    times = np.asarray(times, dtype=np.float64)
    values = np.asarray(values, dtype=np.float64)
    if times.shape != values.shape:
        raise ValueError("times and values must align")
    above = values > threshold
    excursions: list[Excursion] = []
    start: Optional[float] = None
    last_above: Optional[float] = None
    peak = float("-inf")
    for t, v, flag in zip(times, values, above):
        if flag:
            if start is None:
                start, peak = float(t), float(v)
            elif last_above is not None and t - last_above > merge_gap_s:
                excursions.append(Excursion(start, last_above, peak))
                start, peak = float(t), float(v)
            peak = max(peak, float(v))
            last_above = float(t)
    if start is not None and last_above is not None:
        excursions.append(Excursion(start, last_above, peak))
    return excursions
