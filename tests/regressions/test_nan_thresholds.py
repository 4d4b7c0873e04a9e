"""A NaN threshold does not fail: it switches its detector off.

Every comparison with NaN is false, so a NaN ``max_age_s`` never finds a
claim stale, a NaN ``drift_threshold_ppm`` never finds a clock drifting
and a NaN ``capacity`` never evicts.  Each effect test forces the value
past construction to show what it did, then shows the constructor
refusing it by name.  Integer knobs refuse fractions and bools too: a
``>=`` comparison would round them silently.
"""

import math

import pytest

from repro.bgp.network import BgpNetwork
from repro.bgp.router import BgpRouter
from repro.bgp.snapshot import SnapshotCache
from repro.core.controller import QuarantinePolicy
from repro.core.slicing import TokenBucket
from repro.dataplane.flowlet import FlowletSelector
from repro.netsim.links import ConstantLoss, OverrideLoss
from repro.resilience.supervisor import SupervisorPolicy
from repro.telemetry.store import MeasurementStore
from repro.traffic.demand import FlowClass
from repro.trust import ClockIntegrityMonitor, PeerTrustPolicy, PlausibilityFilter

NAN, INF = math.nan, math.inf


def test_nan_max_age_admitted_a_stale_claim_and_is_now_refused():
    blind = PlausibilityFilter(MeasurementStore())
    blind.max_age_s = NAN
    assert blind.admit(0, t=0.0, value=0.03, now=100.0)  # 100 s old, admitted
    sighted = PlausibilityFilter(MeasurementStore(), max_age_s=2.0)
    assert not sighted.admit(0, t=0.0, value=0.03, now=100.0)
    with pytest.raises(ValueError, match="^max_age_s must be finite"):
        PlausibilityFilter(MeasurementStore(), max_age_s=NAN)


def _drift_events(monitor: ClockIntegrityMonitor) -> list:
    for k in range(400):  # 20 s of a clock running 200 ppm fast
        t = k * 0.05
        monitor.observe(0, t, 200e-6 * t)
    return [e for e in monitor.events if e.kind == "drift"]


def test_nan_drift_threshold_never_raised_drift_and_is_now_refused():
    blind = ClockIntegrityMonitor()
    blind.drift_threshold_ppm = NAN
    assert _drift_events(blind) == []
    assert len(_drift_events(ClockIntegrityMonitor())) == 1
    with pytest.raises(ValueError, match="^drift_threshold_ppm must be finite"):
        ClockIntegrityMonitor(drift_threshold_ppm=NAN)


def _network(asn: int) -> BgpNetwork:
    network = BgpNetwork()
    network.add_router(BgpRouter("r", asn))
    return network


def test_nan_capacity_never_evicted_and_is_now_refused():
    blind = SnapshotCache(capacity=1)
    blind.capacity = NAN
    for asn in (64512, 64513, 64514):
        blind.converge(_network(asn))
    assert len(blind) == 3  # grew past its capacity
    sighted = SnapshotCache(capacity=1)
    for asn in (64512, 64513, 64514):
        sighted.converge(_network(asn))
    assert len(sighted) == 1
    for bad in (NAN, 2.5, True):
        with pytest.raises(ValueError, match="^capacity must be an int >= 1"):
            SnapshotCache(capacity=bad)


def test_nan_flap_bound_gave_a_flap_with_no_windows_and_is_now_refused():
    with pytest.raises(ValueError, match="^flap end must be finite"):
        OverrideLoss.flapping(ConstantLoss(), 0.0, NAN, period=1.0)
    with pytest.raises(ValueError, match=r"^window end before start: \(nan"):
        OverrideLoss(ConstantLoss(), windows=((NAN, 1.0),))


@pytest.mark.parametrize(
    "build, field",
    [
        (lambda v: PeerTrustPolicy(probation_delay_s=v), "probation_delay_s"),
        (lambda v: PeerTrustPolicy(backoff_factor=v), "backoff_factor"),
        (
            lambda v: PlausibilityFilter(MeasurementStore(), abs_slack_s=v),
            "abs_slack_s",
        ),
        (lambda v: ClockIntegrityMonitor(step_threshold_s=v), "step_threshold_s"),
        (lambda v: SupervisorPolicy(check_interval_s=v), "check_interval_s"),
        (lambda v: SupervisorPolicy(backoff_factor=v), "backoff_factor"),
        (lambda v: SupervisorPolicy(max_restart_delay_s=v), "max_restart_delay_s"),
        (lambda v: SupervisorPolicy(healthy_after_s=v), "healthy_after_s"),
        (lambda v: TokenBucket(rate_bps=v, burst_bytes=1500), "rate_bps"),
        (lambda v: TokenBucket(rate_bps=1e6, burst_bytes=v), "burst_bytes"),
        (lambda v: FlowletSelector(gap_s=v), "gap_s"),
        (
            lambda v: FlowClass("web", 1, v, mean_size_bytes=1e4, rate_bps=1e5),
            "arrival_rate_per_s",
        ),
        (
            lambda v: FlowClass("web", 1, 10.0, mean_size_bytes=v, rate_bps=1e5),
            "mean_size_bytes",
        ),
        (
            lambda v: FlowClass("web", 1, 10.0, 1e4, rate_bps=1e5, diurnal_phase_s=v),
            "diurnal_phase_s",
        ),
    ],
)
@pytest.mark.parametrize("value", [NAN, INF, -INF])
def test_non_finite_threshold_is_refused_by_name(build, field, value):
    with pytest.raises(ValueError, match=f"^{field} must be finite"):
        build(value)


@pytest.mark.parametrize(
    "build, field",
    [
        (lambda v: QuarantinePolicy(unhealthy_ticks=v), "unhealthy_ticks"),
        (lambda v: QuarantinePolicy(probation_ticks=v), "probation_ticks"),
        (lambda v: PeerTrustPolicy(clean_polls=v), "clean_polls"),
        (lambda v: PeerTrustPolicy(probation_polls=v), "probation_polls"),
        (lambda v: SnapshotCache(capacity=v), "capacity"),
    ],
)
@pytest.mark.parametrize("value", [1.5, True, NAN])
def test_integer_knob_refuses_fractions_and_bools(build, field, value):
    with pytest.raises(ValueError, match=f"^{field} must be an int >= 1, got"):
        build(value)
