"""Fault-plan target validation (TNG105) against scenario specs."""

import json
from pathlib import Path

from repro.faults.plan import FaultEvent, FaultPlan
from repro.lint import check_fault_plan, check_plan_files, vultr_spec

REPO_ROOT = Path(__file__).resolve().parents[2]


def plan_of(*events: FaultEvent) -> FaultPlan:
    return FaultPlan(name="test-plan", seed=1, events=events)


def lint_plan_file(tmp_path, spec, kind, at, duration, **params) -> list:
    """Lint a one-event plan *file*: an event :class:`FaultEvent` refuses
    to build reaches the linter only this way, as a TNG105 finding."""
    path = tmp_path / "plan.json"
    event = {"kind": kind, "at": at, "duration": duration, **params}
    path.write_text(json.dumps({"name": "test-plan", "seed": 1, "events": [event]}))
    return check_plan_files([str(path)], spec=spec)


class TestCheckFaultPlan:
    def setup_method(self):
        self.spec = vultr_spec()

    def test_valid_plan_clean(self):
        plan = plan_of(
            FaultEvent(
                "link_blackhole",
                at=5.0,
                duration=5.0,
                params={"src": "ny", "path": "GTT"},
            ),
            FaultEvent(
                "prefix_withdraw",
                at=10.0,
                duration=5.0,
                params={"edge": "la", "prefix_index": 0},
            ),
            FaultEvent(
                "bgp_session_down",
                at=20.0,
                duration=5.0,
                params={"a": "vultr-ny", "b": "cogent"},
            ),
        )
        assert check_fault_plan(plan, self.spec) == []

    def test_unknown_edge(self):
        plan = plan_of(
            FaultEvent(
                "link_blackhole",
                at=1.0,
                duration=1.0,
                params={"src": "tokyo", "path": "GTT"},
            )
        )
        findings = check_fault_plan(plan, self.spec, path="plan.json")
        assert [f.code for f in findings] == ["TNG105"]
        assert "unknown edge 'tokyo'" in findings[0].message
        assert findings[0].path == "plan.json"

    def test_unknown_path_label(self):
        plan = plan_of(
            FaultEvent(
                "link_blackhole",
                at=1.0,
                duration=1.0,
                params={"src": "ny", "path": "Sprint"},
            )
        )
        findings = check_fault_plan(plan, self.spec)
        assert len(findings) == 1
        assert "no wide-area path 'Sprint'" in findings[0].message

    def test_prefix_index_out_of_range(self):
        plan = plan_of(
            FaultEvent(
                "prefix_withdraw",
                at=1.0,
                duration=1.0,
                params={"edge": "ny", "prefix_index": 99},
            )
        )
        findings = check_fault_plan(plan, self.spec)
        assert len(findings) == 1
        assert "prefix_index 99 out of range" in findings[0].message

    def test_unknown_router_in_session_down(self):
        plan = plan_of(
            FaultEvent(
                "bgp_session_down",
                at=1.0,
                duration=1.0,
                params={"a": "vultr-ny", "b": "sprint"},
            )
        )
        findings = check_fault_plan(plan, self.spec)
        assert len(findings) == 1
        assert "unknown router 'sprint'" in findings[0].message

    def test_no_session_between_known_routers(self):
        # Both routers exist, but level3 is an LA-side provider only.
        plan = plan_of(
            FaultEvent(
                "bgp_session_down",
                at=1.0,
                duration=1.0,
                params={"a": "vultr-ny", "b": "level3"},
            )
        )
        findings = check_fault_plan(plan, self.spec)
        assert len(findings) == 1
        assert "no BGP session" in findings[0].message

    def test_every_finding_names_the_event(self):
        plan = plan_of(
            FaultEvent(
                "telemetry_drop",
                at=1.0,
                duration=1.0,
                params={"edge": "mars"},
            )
        )
        findings = check_fault_plan(plan, self.spec)
        assert "plan 'test-plan' event #0" in findings[0].message


class TestAdversarialKinds:
    """TNG105 fixtures for the Byzantine-peer fault kinds."""

    def setup_method(self):
        self.spec = vultr_spec()

    def adversarial_params(self, kind, **params) -> dict:
        defaults = {
            "telemetry_tamper": {"src": "ny", "path": "NTT", "bias_ms": 12.0},
            "telemetry_replay": {"src": "ny", "path": "GTT", "delay_s": 1.0},
            "gray_loss": {"src": "ny", "path": "GTT", "rate": 0.3},
            "clock_drift": {"edge": "la", "ppm": 200.0},
        }[kind]
        duration = 0.0 if kind == "clock_drift" else 4.0
        return {"at": 3.0, "duration": duration, **defaults, **params}

    def adversarial(self, kind, **params):
        event = self.adversarial_params(kind, **params)
        at, duration = event.pop("at"), event.pop("duration")
        return plan_of(FaultEvent(kind, at=at, duration=duration, params=event))

    def lint_adversarial(self, tmp_path, kind, **params):
        return lint_plan_file(
            tmp_path, self.spec, kind, **self.adversarial_params(kind, **params)
        )

    def test_valid_fixtures_clean(self):
        for kind in (
            "telemetry_tamper",
            "telemetry_replay",
            "gray_loss",
            "clock_drift",
        ):
            assert check_fault_plan(self.adversarial(kind), self.spec) == []

    def test_tamper_bias_must_be_a_nonzero_number(self, tmp_path):
        findings = self.lint_adversarial(
            tmp_path, "telemetry_tamper", bias_ms=0.0
        )
        assert len(findings) == 1
        assert "bias_ms must be nonzero" in findings[0].message
        findings = self.lint_adversarial(
            tmp_path, "telemetry_tamper", bias_ms="big"
        )
        assert "is not a number" in findings[0].message

    def test_replay_delay_must_be_positive(self, tmp_path):
        findings = self.lint_adversarial(
            tmp_path, "telemetry_replay", delay_s=-1.0
        )
        assert len(findings) == 1
        assert "delay_s must be > 0" in findings[0].message

    def test_gray_loss_rate_must_be_a_probability(self, tmp_path):
        # The range GrayLoss itself enforces: [0, 1], ends included.
        for rate in (-0.1, 1.5):
            findings = self.lint_adversarial(tmp_path, "gray_loss", rate=rate)
            assert len(findings) == 1
            assert "rate must be in [0, 1]" in findings[0].message
        for rate in (0.0, 1.0):
            plan = self.adversarial("gray_loss", rate=rate)
            assert check_fault_plan(plan, self.spec) == []

    def test_adversarial_kinds_check_their_targets_too(self):
        findings = check_fault_plan(
            self.adversarial("telemetry_tamper", path="Sprint"), self.spec
        )
        assert any("no wide-area path 'Sprint'" in f.message for f in findings)

    def test_clock_drift_beyond_monitor_bound_rejected(self):
        """A drift the monitor cannot re-estimate away tests nothing but
        the plausibility filter's slack — the lint refuses the plan."""
        from repro.trust.clock import ClockIntegrityMonitor

        bound = ClockIntegrityMonitor.MAX_TRACKABLE_PPM
        findings = check_fault_plan(
            self.adversarial("clock_drift", ppm=bound + 1), self.spec
        )
        assert len(findings) == 1
        assert "re-estimation bound" in findings[0].message
        assert check_fault_plan(
            self.adversarial("clock_drift", ppm=-bound), self.spec
        ) == []


class TestCorrelatedKinds:
    def setup_method(self):
        self.spec = vultr_spec()

    def check(self, event):
        return check_fault_plan(plan_of(event), self.spec)

    def test_valid_correlated_events_clean(self):
        plan = plan_of(
            FaultEvent(
                "srlg_failure",
                at=1.0,
                duration=2.0,
                params={"group": "socal-conduit"},
            ),
            FaultEvent(
                "regional_outage",
                at=1.0,
                duration=2.0,
                params={"region": "socal"},
            ),
            FaultEvent(
                "maintenance_window",
                at=1.0,
                duration=2.0,
                params={"group": "ntt-backbone", "drain_s": 0.5},
            ),
        )
        assert check_fault_plan(plan, self.spec) == []

    def test_unknown_group_rejected(self):
        findings = self.check(
            FaultEvent(
                "srlg_failure", at=1.0, duration=2.0,
                params={"group": "atlantis-cable"},
            )
        )
        assert len(findings) == 1
        assert "unknown risk group 'atlantis-cable'" in findings[0].message

    def test_maintenance_group_also_checked(self):
        findings = self.check(
            FaultEvent(
                "maintenance_window", at=1.0, duration=2.0,
                params={"group": "nope"},
            )
        )
        assert len(findings) == 1
        assert "unknown risk group" in findings[0].message

    def test_unknown_region_rejected(self):
        findings = self.check(
            FaultEvent(
                "regional_outage", at=1.0, duration=2.0,
                params={"region": "mars"},
            )
        )
        assert len(findings) == 1
        assert "unknown region 'mars'" in findings[0].message

    def test_drain_must_be_numeric_and_inside_window(self, tmp_path):
        for drain, problem in (("soon", "not a number"), (2.0, "drain_s")):
            findings = lint_plan_file(
                tmp_path, self.spec, "maintenance_window", at=1.0,
                duration=2.0, group="ntt-backbone", drain_s=drain,
            )
            assert any(problem in f.message for f in findings)

    def test_transit_tags_are_valid_groups(self):
        findings = self.check(
            FaultEvent(
                "srlg_failure", at=1.0, duration=2.0,
                params={"group": "transit:NTT"},
            )
        )
        assert findings == []


class TestRelayOutage:
    """TNG105 fixtures for the federation relay-outage fault kind: the
    member must be a declared mesh member of the scenario."""

    def setup_method(self):
        from repro.lint import mesh_spec

        self.spec = mesh_spec(4)

    def check(self, member):
        plan = plan_of(
            FaultEvent(
                "relay_outage",
                at=2.0,
                duration=2.0,
                params={"member": member},
            )
        )
        return check_fault_plan(plan, self.spec)

    def test_declared_member_accepted(self):
        assert self.check("edge2") == []

    def test_unknown_member_rejected(self):
        findings = self.check("edge9")
        assert [f.code for f in findings] == ["TNG105"]
        assert "unknown federation member 'edge9'" in findings[0].message
        assert "edge0" in findings[0].message  # names the valid members

    def test_two_party_scenario_has_no_members(self):
        findings = check_fault_plan(
            plan_of(
                FaultEvent(
                    "relay_outage",
                    at=2.0,
                    duration=2.0,
                    params={"member": "ny"},
                )
            ),
            vultr_spec(),
        )
        # 'ny' is a vultr edge, so it passes the static member check;
        # arming against a two-party deployment still fails at runtime
        # (no member_links).  A name outside the edge set is caught.
        assert findings == []
        findings = check_fault_plan(
            plan_of(
                FaultEvent(
                    "relay_outage",
                    at=2.0,
                    duration=2.0,
                    params={"member": "tokyo"},
                )
            ),
            vultr_spec(),
        )
        assert len(findings) == 1

    def test_zero_duration_rejected_at_authoring(self):
        import pytest

        with pytest.raises(ValueError, match="positive duration"):
            FaultEvent(
                "relay_outage", at=2.0, duration=0.0, params={"member": "edge2"}
            )


class TestCheckPlanFiles:
    def test_shipped_example_plans_validate_clean(self):
        plans = sorted(str(p) for p in (REPO_ROOT / "examples").glob("*.json"))
        assert plans  # the repo ships at least faults_blackhole.json
        assert check_plan_files(plans) == []

    def test_unreadable_file_becomes_finding(self):
        findings = check_plan_files(["/no/such/plan.json"])
        assert [f.code for f in findings] == ["TNG105"]
        assert "cannot read fault plan" in findings[0].message

    def test_malformed_json_becomes_finding(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        findings = check_plan_files([str(bad)])
        assert [f.code for f in findings] == ["TNG105"]
        assert "invalid fault plan" in findings[0].message

    def test_bad_target_in_file_reports_file_path(self, tmp_path):
        plan = tmp_path / "plan.json"
        plan.write_text(
            '{"name": "x", "seed": 1, "events": [{"kind": "link_blackhole",'
            ' "at": 1.0, "duration": 1.0, "src": "ny", "path": "Sprint"}]}'
        )
        findings = check_plan_files([str(plan)])
        assert len(findings) == 1
        assert findings[0].path == str(plan)
