"""A non-finite mirrored sample does not pass the plausibility filter.

Every comparison with NaN is false, so a NaN value was never outside the
envelope once the filter had calibrated, and a NaN time was never behind
the path's last one.  An admitted NaN time became the continuity horizon,
and every older sample after it passed the continuity check too.  Now a
non-finite time is a discontinuity and a non-finite value an envelope
rejection, and neither reaches calibration or the clock monitor; a
non-finite delivery time gives no age, so its sample is stale.
"""

import math

import pytest

from repro.telemetry.store import MeasurementStore
from repro.trust import ClockIntegrityMonitor, PlausibilityFilter

NAN, INF = math.nan, math.inf
LOCAL = 0.03


def calibrated() -> PlausibilityFilter:
    """A frozen-offset filter that has calibrated on path 0's samples."""
    envelope = MeasurementStore()
    envelope.record(0, 0.0, LOCAL)
    flt = PlausibilityFilter(envelope)
    for k in range(flt.calibration_samples):
        assert flt.admit(0, t=0.1 * (k + 1), value=LOCAL, now=0.1 * (k + 1))
    return flt


@pytest.mark.parametrize("value", [NAN, INF, -INF])
def test_a_non_finite_value_is_outside_the_envelope(value):
    flt = calibrated()
    assert not flt.admit(0, t=2.0, value=value, now=2.0)
    assert flt.rejected_envelope == 1
    assert flt.admit(0, t=2.0, value=LOCAL, now=2.0)  # the horizon held


@pytest.mark.parametrize("t", [NAN, INF, -INF])
def test_a_non_finite_time_is_a_discontinuity(t):
    flt = calibrated()
    assert flt.admit(0, t=2.1, value=LOCAL, now=2.1)
    assert not flt.admit(0, t=t, value=LOCAL, now=2.1)
    assert flt.rejected_discontinuity == 1
    # The horizon is still 2.1: an older sample is refused.
    assert not flt.admit(0, t=0.5, value=LOCAL, now=2.1)
    assert flt.rejected_discontinuity == 2


def test_a_non_finite_sample_is_refused_without_an_envelope():
    flt = PlausibilityFilter(MeasurementStore())  # no local estimate yet
    assert not flt.admit(0, t=NAN, value=LOCAL, now=1.0)
    assert not flt.admit(0, t=1.0, value=NAN, now=1.0)
    assert flt.admitted == 0 and flt.rejected == 2


def test_calibration_never_sees_a_nan_value():
    envelope = MeasurementStore()
    envelope.record(0, 0.0, LOCAL)
    flt = PlausibilityFilter(envelope)
    assert not flt.admit(0, t=0.1, value=NAN, now=0.1)
    for k in range(flt.calibration_samples):
        flt.admit(0, t=0.2 + 0.1 * k, value=LOCAL, now=0.2 + 0.1 * k)
    # The frozen offset is a number, so a wild sample is judged and refused.
    assert not flt.admit(0, t=5.0, value=LOCAL + 1.0, now=5.0)
    assert flt.rejected_envelope == 2


def test_the_monitor_never_observes_a_nan_value():
    envelope = MeasurementStore()
    envelope.record(0, 0.0, LOCAL)
    monitor = ClockIntegrityMonitor()
    flt = PlausibilityFilter(envelope, monitor=monitor)
    assert flt.admit(0, t=0.1, value=LOCAL, now=0.1)
    assert not flt.admit(0, t=0.2, value=NAN, now=0.2)
    assert monitor.samples == 1


@pytest.mark.parametrize("now", [NAN, INF, -INF])
def test_a_non_finite_delivery_time_is_stale(now):
    """``now - t > max_age_s`` is False for a NaN or ``-inf`` ``now``, so
    a sample of any age was admitted and became the path's horizon."""
    flt = calibrated()  # path 0's horizon is 1.2
    assert not flt.admit(0, t=1.5, value=LOCAL, now=now)
    assert not flt.admit(1, t=-1e9, value=LOCAL, now=now)  # no horizon yet
    assert flt.rejected_stale == 2
    # Neither horizon moved: samples behind 1.5 and -1e9 are admitted.
    assert flt.admit(0, t=1.3, value=LOCAL, now=1.3)
    assert flt.admit(1, t=-1e9 - 1.0, value=LOCAL, now=-1e9)
