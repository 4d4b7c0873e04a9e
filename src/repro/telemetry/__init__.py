"""Measurement engine: one-way delay, jitter, loss, reordering,
authenticated telemetry, online anomaly detection, streaming quantiles."""

from .anomaly import AnomalyEvent, CusumDetector, SpikeClusterDetector
from .auth import ForgeryStats, TelemetryAuthenticator
from .jitter import jitter_report, rolling_window_std, tumbling_window_std
from .loss import LossBin, LossMonitor
from .oneway import (
    DirectionalStore,
    Ewma,
    PathSummary,
    estimate_clock_offset,
    rank_paths,
    relative_delays,
    summarize_path,
)
from .quantiles import P2Quantile
from .reorder import ReorderingReport, reordering_extent, reordering_from_arrivals
from .store import MeasurementStore, StoreCursor, TimeSeries

__all__ = [
    "AnomalyEvent",
    "CusumDetector",
    "DirectionalStore",
    "Ewma",
    "ForgeryStats",
    "LossBin",
    "LossMonitor",
    "MeasurementStore",
    "P2Quantile",
    "PathSummary",
    "ReorderingReport",
    "SpikeClusterDetector",
    "StoreCursor",
    "TelemetryAuthenticator",
    "TimeSeries",
    "estimate_clock_offset",
    "jitter_report",
    "rank_paths",
    "relative_delays",
    "reordering_extent",
    "reordering_from_arrivals",
    "rolling_window_std",
    "summarize_path",
    "tumbling_window_std",
]
