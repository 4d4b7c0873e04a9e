"""Tests for declarative fault plans."""

import json
import math

import pytest

from repro.faults import FAULT_KINDS, FaultEvent, FaultPlan


def blackhole(at=5.0, duration=2.0, src="ny", path="GTT"):
    return FaultEvent(
        "link_blackhole", at=at, duration=duration, params={"src": src, "path": path}
    )


class TestFaultEvent:
    def test_known_kinds(self):
        assert "link_blackhole" in FAULT_KINDS
        assert "clock_step" in FAULT_KINDS
        assert "telemetry_loss" in FAULT_KINDS
        assert "controller_crash" in FAULT_KINDS
        assert "demand_surge" in FAULT_KINDS
        assert "telemetry_tamper" in FAULT_KINDS
        assert "telemetry_replay" in FAULT_KINDS
        assert "gray_loss" in FAULT_KINDS
        assert "clock_drift" in FAULT_KINDS
        assert "srlg_failure" in FAULT_KINDS
        assert "regional_outage" in FAULT_KINDS
        assert "maintenance_window" in FAULT_KINDS
        assert "relay_outage" in FAULT_KINDS
        assert len(FAULT_KINDS) == 19

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultEvent("gamma_ray", at=1.0, duration=1.0)

    def test_negative_onset_rejected(self):
        with pytest.raises(ValueError, match="onset"):
            blackhole(at=-1.0)

    def test_negative_duration_rejected(self):
        with pytest.raises(ValueError, match="duration"):
            blackhole(duration=-1.0)

    def test_zero_duration_blackhole_rejected(self):
        with pytest.raises(ValueError, match="positive duration"):
            blackhole(duration=0.0)

    def test_permanent_clock_step_allowed(self):
        event = FaultEvent(
            "clock_step", at=1.0, params={"edge": "ny", "step_ms": 5.0}
        )
        assert event.duration == 0.0
        assert event.end == 1.0

    def test_missing_params_rejected(self):
        with pytest.raises(ValueError, match="missing parameter"):
            FaultEvent("link_blackhole", at=1.0, duration=1.0, params={"src": "ny"})

    def test_end(self):
        assert blackhole(at=5.0, duration=2.0).end == 7.0

    def test_target_strings(self):
        assert blackhole().target == "ny:GTT"
        assert (
            FaultEvent(
                "bgp_session_down", at=0.0, duration=1.0, params={"a": "x", "b": "y"}
            ).target
            == "x~y"
        )
        assert (
            FaultEvent(
                "prefix_withdraw",
                at=0.0,
                duration=1.0,
                params={"edge": "la", "prefix_index": 2},
            ).target
            == "la:route[2]"
        )
        assert (
            FaultEvent(
                "telemetry_drop", at=0.0, duration=1.0, params={"edge": "ny"}
            ).target
            == "ny"
        )

    def test_params_copied(self):
        params = {"src": "ny", "path": "GTT"}
        event = blackhole()
        params["path"] = "Telia"
        assert event.params["path"] == "GTT"


class TestFaultPlan:
    def test_requires_name(self):
        with pytest.raises(ValueError, match="name"):
            FaultPlan(name="", events=())

    def test_timeline_sorted_by_onset(self):
        late, early = blackhole(at=9.0), blackhole(at=1.0)
        plan = FaultPlan(name="p", events=(late, early))
        assert plan.timeline == (early, late)
        assert plan.events == (late, early)  # authoring order preserved

    def test_timeline_ties_keep_authoring_order(self):
        a, b = blackhole(at=3.0, path="GTT"), blackhole(at=3.0, path="Telia")
        plan = FaultPlan(name="p", events=(a, b))
        assert plan.timeline == (a, b)

    def test_horizon(self):
        plan = FaultPlan(
            name="p", events=(blackhole(at=1.0, duration=2.0), blackhole(at=4.0))
        )
        assert plan.horizon == 6.0
        assert FaultPlan(name="empty", events=()).horizon == 0.0

    def test_json_roundtrip(self):
        plan = FaultPlan(
            name="demo",
            seed=42,
            events=(
                blackhole(),
                FaultEvent(
                    "loss_burst",
                    at=8.0,
                    duration=1.5,
                    params={"src": "la", "path": "Telia", "rate": 0.4},
                ),
            ),
        )
        again = FaultPlan.from_json(plan.to_json())
        assert again == plan

    def test_to_json_is_stable(self):
        plan = FaultPlan(name="demo", seed=1, events=(blackhole(),))
        assert plan.to_json() == plan.to_json()
        assert "\n" not in plan.to_json()

    def test_from_json_rejects_garbage(self):
        with pytest.raises(ValueError, match="not valid JSON"):
            FaultPlan.from_json("{nope")
        with pytest.raises(ValueError, match="JSON object"):
            FaultPlan.from_json("[1, 2]")
        with pytest.raises(ValueError, match="'events' must be a list"):
            FaultPlan.from_json('{"name": "x", "events": 3}')
        with pytest.raises(ValueError, match="missing field"):
            FaultPlan.from_json('{"name": "x", "events": [{"at": 1.0}]}')

    def test_from_file(self, tmp_path):
        plan = FaultPlan(name="demo", seed=9, events=(blackhole(),))
        path = tmp_path / "plan.json"
        path.write_text(plan.to_json())
        assert FaultPlan.from_file(str(path)) == plan


NAN = float("nan")

#: One event per scenario-independent parameter check, its bad value in
#: its last field.  Each must be refused by FaultEvent (naming the kind
#: and that field), by TNG105 lint, and on the way to arm().
BAD_EVENTS = {
    "loss-burst-rate-above-1": ("loss_burst", {"src": "ny", "path": "GTT", "rate": 3}),
    "telemetry-loss-rate-below-0": ("telemetry_loss", {"edge": "ny", "rate": -0.5}),
    "gray-loss-rate-above-1": ("gray_loss", {"src": "ny", "path": "GTT", "rate": 1.5}),
    "surge-factor-zero": ("demand_surge", {"edge": "ny", "factor": 0}),
    "surge-factor-not-a-number": (
        "demand_surge",
        {"edge": "ny", "factor": "huge"},
    ),
    "surge-flow-label-not-an-int": (
        "demand_surge",
        {"edge": "ny", "factor": 2.0, "flow_label": "2"},
    ),
    "tamper-bias-zero": (
        "telemetry_tamper",
        {"src": "ny", "path": "NTT", "bias_ms": 0},
    ),
    "replay-delay-zero": (
        "telemetry_replay",
        {"src": "ny", "path": "GTT", "delay_s": 0},
    ),
    "drain-not-inside-window": (
        "maintenance_window",
        {"group": "socal-conduit", "drain_s": 2.0},
    ),
    "flap-period-not-a-number": (
        "link_flap",
        {"src": "ny", "path": "GTT", "period": "fast"},
    ),
    # A NaN onset never compares due, so the blackhole would never fire.
    "blackhole-at-nan": ("link_blackhole", {"src": "ny", "path": "GTT", "at": NAN}),
    # An endless flap materialises windows forever at arm time.
    "flap-duration-inf": (
        "link_flap",
        {"src": "ny", "path": "GTT", "period": 1.0, "duration": math.inf},
    ),
    "surge-factor-nan": ("demand_surge", {"edge": "ny", "factor": NAN}),
    "spike-extra-ms-nan": (
        "delay_spike",
        {"src": "ny", "path": "GTT", "extra_ms": NAN},
    ),
    "clock-step-nan": ("clock_step", {"edge": "ny", "step_ms": NAN}),
    # abs(nan) > bound is False: the drift bound alone would pass it.
    "drift-ppm-nan": ("clock_drift", {"edge": "la", "ppm": NAN}),
    "prefix-index-not-integral": (
        "prefix_withdraw",
        {"edge": "la", "prefix_index": 1.5},
    ),
    "flap-period-zero": ("link_flap", {"src": "ny", "path": "GTT", "period": 0}),
    "flap-duty-above-1": (
        "link_flap",
        {"src": "ny", "path": "GTT", "period": 1.0, "duty": 3},
    ),
    "replay-every-zero": (
        "telemetry_replay",
        {"src": "ny", "path": "GTT", "delay_s": 1.0, "every": 0},
    ),
}


@pytest.fixture(scope="module")
def vultr():
    from repro.scenarios.vultr import VultrDeployment

    deployment = VultrDeployment(include_events=False)
    deployment.establish()
    return deployment


@pytest.mark.parametrize("name", sorted(BAD_EVENTS))
def test_bad_parameters_rejected_by_every_consumer(name, vultr, tmp_path):
    from repro.faults import FaultInjector
    from repro.lint import check_plan_files

    kind, params = BAD_EVENTS[name]
    bad_field = list(params)[-1]  # each row's bad value is its last field
    fields = {"at": 1.0, "duration": 2.0, **params}
    with pytest.raises(ValueError, match=f"^{kind} {bad_field} "):
        at, duration = fields.pop("at"), fields.pop("duration")
        FaultEvent(kind, at=at, duration=duration, params=fields)

    path = tmp_path / "plan.json"
    event = {"kind": kind, "at": 1.0, "duration": 2.0, **params}
    path.write_text(json.dumps({"name": "bad", "seed": 1, "events": [event]}))
    findings = check_plan_files([str(path)])
    assert [f.code for f in findings] == ["TNG105"], findings

    with pytest.raises(ValueError):
        FaultInjector(vultr, FaultPlan.from_file(str(path))).arm()
