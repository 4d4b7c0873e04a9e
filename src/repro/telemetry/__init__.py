"""Measurement engine: one-way delay, jitter, loss, reordering,
authenticated telemetry, streaming quantiles."""

from .auth import ForgeryStats, TelemetryAuthenticator
from .jitter import jitter_report, rolling_window_std
from .loss import LossBin, LossMonitor
from .quantiles import P2Quantile
from .reorder import ReorderingReport, reordering_from_arrivals
from .store import MeasurementStore, StoreCursor, TimeSeries

__all__ = [
    "ForgeryStats",
    "LossBin",
    "LossMonitor",
    "MeasurementStore",
    "P2Quantile",
    "ReorderingReport",
    "StoreCursor",
    "TelemetryAuthenticator",
    "TimeSeries",
    "jitter_report",
    "reordering_from_arrivals",
    "rolling_window_std",
]
