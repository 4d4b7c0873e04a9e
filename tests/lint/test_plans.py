"""Fault-plan target validation: FaultPlan.check against deployment
shapes, and TNG105 over plan files."""

import json
from pathlib import Path

import pytest

from repro.faults.plan import FaultEvent, FaultPlan
from repro.lint import check_plan_files
from tests.faults.shapes import federation_shape, vultr_shape

REPO_ROOT = Path(__file__).resolve().parents[2]
REGRESSIONS = REPO_ROOT / "tests" / "regressions" / "faults"


def plan_of(*events: FaultEvent) -> FaultPlan:
    return FaultPlan(name="test-plan", seed=1, events=events)


def lint_plan_file(tmp_path, kind, at, duration, **params) -> list:
    """Lint a one-event plan *file*: an event :class:`FaultEvent` refuses
    to build reaches the linter only this way, as a TNG105 finding."""
    path = tmp_path / "plan.json"
    event = {"kind": kind, "at": at, "duration": duration, **params}
    path.write_text(json.dumps({"name": "test-plan", "seed": 1, "events": [event]}))
    return check_plan_files([str(path)])


class TestCheckFaultPlan:
    def setup_method(self):
        self.shape = vultr_shape()

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
        assert plan.check(self.shape) == []

    def test_unknown_edge(self):
        plan = plan_of(
            FaultEvent(
                "link_blackhole",
                at=1.0,
                duration=1.0,
                params={"src": "tokyo", "path": "GTT"},
            )
        )
        problems = plan.check(self.shape)
        assert len(problems) == 1
        assert "unknown edge 'tokyo'" in problems[0]

    def test_unknown_path_label(self):
        plan = plan_of(
            FaultEvent(
                "link_blackhole",
                at=1.0,
                duration=1.0,
                params={"src": "ny", "path": "Sprint"},
            )
        )
        problems = plan.check(self.shape)
        assert len(problems) == 1
        assert "no wide-area path 'Sprint'" in problems[0]

    def test_prefix_index_out_of_range(self):
        plan = plan_of(
            FaultEvent(
                "prefix_withdraw",
                at=1.0,
                duration=1.0,
                params={"edge": "ny", "prefix_index": 99},
            )
        )
        problems = plan.check(self.shape)
        assert len(problems) == 1
        assert "prefix_index 99 out of range" in problems[0]

    def test_unknown_router_in_session_down(self):
        plan = plan_of(
            FaultEvent(
                "bgp_session_down",
                at=1.0,
                duration=1.0,
                params={"a": "vultr-ny", "b": "sprint"},
            )
        )
        problems = plan.check(self.shape)
        assert len(problems) == 1
        assert "unknown router 'sprint'" in problems[0]

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
        problems = plan.check(self.shape)
        assert len(problems) == 1
        assert "no BGP session" in problems[0]

    def test_every_finding_names_the_event(self):
        plan = plan_of(
            FaultEvent(
                "telemetry_drop",
                at=1.0,
                duration=1.0,
                params={"edge": "mars"},
            )
        )
        assert plan.check(self.shape)[0].startswith("event #0: unknown edge")


class TestAdversarialKinds:
    """TNG105 fixtures for the Byzantine-peer fault kinds."""

    def setup_method(self):
        self.shape = vultr_shape()

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
            tmp_path, kind, **self.adversarial_params(kind, **params)
        )

    def test_valid_fixtures_clean(self):
        for kind in (
            "telemetry_tamper",
            "telemetry_replay",
            "gray_loss",
            "clock_drift",
        ):
            assert self.adversarial(kind).check(self.shape) == []

    def test_tamper_bias_must_be_a_nonzero_number(self, tmp_path):
        findings = self.lint_adversarial(
            tmp_path, "telemetry_tamper", bias_ms=0.0
        )
        assert len(findings) == 1
        assert "bias_ms must be nonzero" in findings[0].message
        findings = self.lint_adversarial(
            tmp_path, "telemetry_tamper", bias_ms="big"
        )
        assert "bias_ms must be finite, got 'big'" in findings[0].message

    def test_replay_delay_must_be_positive(self, tmp_path):
        findings = self.lint_adversarial(
            tmp_path, "telemetry_replay", delay_s=-1.0
        )
        assert len(findings) == 1
        assert "delay_s must be finite and positive" in findings[0].message

    def test_gray_loss_rate_must_be_a_probability(self, tmp_path):
        # The range GrayLoss itself enforces: [0, 1], ends included.
        for rate in (-0.1, 1.5):
            findings = self.lint_adversarial(tmp_path, "gray_loss", rate=rate)
            assert len(findings) == 1
            assert "rate must be a probability in [0, 1]" in findings[0].message
        for rate in (0.0, 1.0):
            plan = self.adversarial("gray_loss", rate=rate)
            assert plan.check(self.shape) == []

    def test_adversarial_kinds_check_their_targets_too(self):
        problems = self.adversarial("telemetry_tamper", path="Sprint").check(
            self.shape
        )
        assert any("no wide-area path 'Sprint'" in p for p in problems)

    def test_clock_drift_beyond_monitor_bound_rejected(self):
        """A drift the monitor cannot re-estimate away tests nothing but
        the plausibility filter's slack — the lint refuses the plan."""
        from repro.trust.clock import ClockIntegrityMonitor

        bound = ClockIntegrityMonitor.MAX_TRACKABLE_PPM
        problems = self.adversarial("clock_drift", ppm=bound + 1).check(self.shape)
        assert len(problems) == 1
        assert "re-estimation bound" in problems[0]
        assert self.adversarial("clock_drift", ppm=-bound).check(self.shape) == []


class TestCorrelatedKinds:
    def setup_method(self):
        self.shape = vultr_shape()

    def check(self, event):
        return plan_of(event).check(self.shape)

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
        assert plan.check(self.shape) == []

    def test_unknown_group_rejected(self):
        problems = self.check(
            FaultEvent(
                "srlg_failure", at=1.0, duration=2.0,
                params={"group": "atlantis-cable"},
            )
        )
        assert len(problems) == 1
        assert "unknown risk group 'atlantis-cable'" in problems[0]

    def test_maintenance_group_also_checked(self):
        problems = self.check(
            FaultEvent(
                "maintenance_window", at=1.0, duration=2.0,
                params={"group": "nope"},
            )
        )
        assert len(problems) == 1
        assert "unknown risk group" in problems[0]

    def test_unknown_region_rejected(self):
        problems = self.check(
            FaultEvent(
                "regional_outage", at=1.0, duration=2.0,
                params={"region": "mars"},
            )
        )
        assert len(problems) == 1
        assert "unknown region 'mars'" in problems[0]

    def test_drain_must_be_numeric_and_inside_window(self, tmp_path):
        for drain, problem in (("soon", "drain_s must be finite"), (2.0, "drain_s")):
            findings = lint_plan_file(
                tmp_path, "maintenance_window", at=1.0,
                duration=2.0, group="ntt-backbone", drain_s=drain,
            )
            assert any(problem in f.message for f in findings)

    def test_transit_tags_are_valid_groups(self):
        problems = self.check(
            FaultEvent(
                "srlg_failure", at=1.0, duration=2.0,
                params={"group": "transit:NTT"},
            )
        )
        assert problems == []


class TestRelayOutage:
    """The federation relay-outage kind: the member must be one of the
    live federation's members, and a two-party deployment has none."""

    def setup_method(self):
        self.shape = federation_shape(4)

    def check(self, member, shape=None):
        plan = plan_of(
            FaultEvent(
                "relay_outage",
                at=2.0,
                duration=2.0,
                params={"member": member},
            )
        )
        return plan.check(shape or self.shape)

    def test_declared_member_accepted(self):
        assert self.check("edge2") == []

    def test_unknown_member_rejected(self):
        problems = self.check("edge9")
        assert len(problems) == 1
        assert "unknown federation member 'edge9'" in problems[0]
        assert "edge0" in problems[0]  # names the valid members

    def test_two_party_scenario_has_no_members(self):
        # 'ny' is a Vultr edge, but a two-party deployment arms no
        # relay_outage at all: the kind is refused by name.
        for member in ("ny", "tokyo"):
            problems = self.check(member, vultr_shape())
            assert len(problems) == 1
            assert "'vultr' takes no relay_outage faults" in problems[0]

    def test_federation_refuses_two_party_kinds(self):
        plan = plan_of(
            FaultEvent(
                "link_blackhole",
                at=1.0,
                duration=1.0,
                params={"src": "edge0", "path": "NTT"},
            )
        )
        problems = plan.check(self.shape)
        assert len(problems) == 1
        assert "'federation-4' takes no link_blackhole faults" in problems[0]

    def test_zero_duration_rejected_at_authoring(self):
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
        assert findings[0].message.startswith("plan 'x' event #0: edge 'ny'")

    @pytest.mark.parametrize("seed", [42, 7])
    def test_bench_plans_check_clean(self, seed):
        """The benchmark's plans fit the deployments it arms them on."""
        from bench.workloads.chaos_replay import ChaosReplay
        from bench.workloads.federation import FederationLive

        for smoke in (True, False):
            chaos = ChaosReplay().plan(seed, smoke).fault_plan
            assert chaos.check(vultr_shape()) == []
            live = FederationLive().plan(seed, smoke)
            assert live.fault_plan.check(federation_shape(live.n_edges)) == []

    def test_plan_fitting_the_federation_is_clean(self, tmp_path):
        plan = tmp_path / "plan.json"
        plan.write_text(
            '{"name": "x", "events": [{"kind": "relay_outage", "at": 1.0,'
            ' "duration": 1.0, "member": "edge2"}]}'
        )
        assert check_plan_files([str(plan)]) == []


@pytest.mark.parametrize(
    "plan", sorted(REGRESSIONS.glob("*.json")), ids=lambda p: p.stem
)
def test_regression_plan_is_one_finding(plan):
    """Each regression plan is wrong in one way, reported as one TNG105
    — a mistyped field included, which once escaped as a TypeError."""
    findings = check_plan_files([str(plan)])
    assert [f.code for f in findings] == ["TNG105"], findings
