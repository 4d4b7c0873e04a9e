"""Tests for the demand_surge fault kind (fluid traffic engine)."""

import json

import pytest

from repro.core.policy import StaticSelector
from repro.faults import FaultEvent, FaultInjector, FaultPlan
from repro.lint import check_plan_files
from repro.scenarios.vultr import VultrDeployment
from repro.traffic.demand import DemandModel, FlowClass
from repro.traffic.vector import VectorFluidEngine
from tests.faults.shapes import vultr_shape


def surge_event(at=1.0, duration=2.0, factor=3.0, **extra):
    params = {"edge": "ny", "factor": factor, **extra}
    return FaultEvent("demand_surge", at=at, duration=duration, params=params)


def plan_of(*events, seed=0):
    return FaultPlan(name="surge-test", events=tuple(events), seed=seed)


def fluid_deployment(offered_bps=1e9):
    deployment = VultrDeployment(include_events=False)
    deployment.establish()
    deployment.set_data_policy("ny", StaticSelector(0))
    demand = DemandModel(
        classes=(
            FlowClass(
                name="bulk",
                flow_label=1,
                arrival_rate_per_s=offered_bps / 1e6,
                mean_size_bytes=125_000.0,
                rate_bps=1e6,
            ),
        ),
        seed=5,
    )
    engine = VectorFluidEngine(deployment, "ny", demand)
    return deployment, engine


class TestPlanValidation:
    def test_params_required(self):
        with pytest.raises(ValueError, match="factor"):
            FaultEvent(
                "demand_surge", at=1.0, duration=1.0, params={"edge": "ny"}
            )
        with pytest.raises(ValueError, match="edge"):
            FaultEvent(
                "demand_surge", at=1.0, duration=1.0, params={"factor": 2.0}
            )

    def test_duration_required(self):
        with pytest.raises(ValueError, match="duration"):
            FaultEvent(
                "demand_surge",
                at=1.0,
                params={"edge": "ny", "factor": 2.0},
            )

    def test_json_round_trip(self):
        plan = plan_of(surge_event(factor=2.5, flow_label=1))
        replayed = FaultPlan.from_json(plan.to_json())
        assert replayed.events[0].params["factor"] == 2.5
        assert replayed.events[0].params["flow_label"] == 1


def lint_surge_file(tmp_path, **params):
    """Lint a plan *file*: a surge FaultEvent refuses to build reaches
    the linter only this way, as a TNG105 finding."""
    path = tmp_path / "plan.json"
    event = {"kind": "demand_surge", "at": 1.0, "duration": 2.0, "edge": "ny"}
    path.write_text(
        json.dumps({"name": "surge-test", "events": [{**event, **params}]})
    )
    return check_plan_files([str(path)])


class TestLint:
    def test_valid_plan_is_clean(self):
        assert plan_of(surge_event()).check(vultr_shape()) == []

    def test_unknown_edge_flagged(self):
        plan = plan_of(surge_event(edge="sf"))
        problems = plan.check(vultr_shape())
        assert any("unknown edge" in p for p in problems)

    def test_nonpositive_factor_flagged(self, tmp_path):
        findings = lint_surge_file(tmp_path, factor=0.0)
        assert any("factor must be finite and positive" in f.message for f in findings)

    def test_non_numeric_factor_flagged(self, tmp_path):
        findings = lint_surge_file(tmp_path, factor="huge")
        assert any("factor must be finite, got 'huge'" in f.message for f in findings)

    @pytest.mark.parametrize("label", ["2", 2.0, True])
    def test_non_int_flow_label_flagged(self, tmp_path, label):
        findings = lint_surge_file(tmp_path, factor=3.0, flow_label=label)
        assert [f.code for f in findings] == ["TNG105"]
        assert f"flow_label {label!r} is not an int" in findings[0].message

    def test_int_flow_label_is_clean(self):
        plan = plan_of(surge_event(flow_label=2))
        assert plan.check(vultr_shape()) == []


class TestInjection:
    def test_arm_requires_attached_engine(self):
        deployment = VultrDeployment(include_events=False)
        deployment.establish()
        injector = FaultInjector(deployment, plan_of(surge_event()))
        with pytest.raises(ValueError, match="no traffic engine"):
            injector.arm()

    def test_arm_rejects_nonpositive_factor(self):
        deployment, _engine = fluid_deployment()
        with pytest.raises(ValueError, match="factor must be finite and positive"):
            FaultInjector(deployment, plan_of(surge_event(factor=-1.0))).arm()

    def test_surge_on_a_missing_class_refuses_to_arm(self):
        # The edge's demand has one class, label 1: a surge aimed at
        # label 7 would multiply nothing, so it must not arm.
        deployment, engine = fluid_deployment()
        injector = FaultInjector(deployment, plan_of(surge_event(flow_label=7)))
        with pytest.raises(ValueError, match=r"flow_label 7 .*known labels: \[1\]"):
            injector.arm()
        assert engine.demand.surges == []

    def test_surge_window_installed_on_demand_model(self):
        deployment, engine = fluid_deployment()
        FaultInjector(
            deployment, plan_of(surge_event(at=1.0, duration=2.0, factor=3.0))
        ).arm()
        assert engine.demand.surge_factor(1, 0.5) == 1.0
        assert engine.demand.surge_factor(1, 1.5) == 3.0
        assert engine.demand.surge_factor(1, 3.0) == 1.0

    def test_surge_raises_offered_load_within_window(self):
        deployment, engine = fluid_deployment(offered_bps=1e9)
        FaultInjector(
            deployment, plan_of(surge_event(at=1.0, duration=1.0, factor=3.0))
        ).arm()
        engine.start()
        sim = deployment.sim

        sim.run(until=1.0)
        base = engine.last_loads[0].offered_bps
        sim.run(until=1.6)
        surged = engine.last_loads[0].offered_bps
        sim.run(until=3.5)
        settled = engine.last_loads[0].offered_bps

        # The surge scales the instantaneous rate, so load responds
        # within a step, then settles back once the window closes.
        assert surged > 2.0 * base
        assert settled < 1.6 * base

    def test_label_targeted_surge_leaves_other_classes_alone(self):
        deployment = VultrDeployment(include_events=False)
        deployment.establish()
        deployment.set_data_policy("ny", StaticSelector(0))
        demand = DemandModel(
            classes=(
                FlowClass(
                    name="a",
                    flow_label=1,
                    arrival_rate_per_s=100.0,
                    mean_size_bytes=125_000.0,
                    rate_bps=1e6,
                ),
                FlowClass(
                    name="b",
                    flow_label=2,
                    arrival_rate_per_s=100.0,
                    mean_size_bytes=125_000.0,
                    rate_bps=1e6,
                ),
            ),
            seed=5,
        )
        VectorFluidEngine(deployment, "ny", demand)
        FaultInjector(
            deployment, plan_of(surge_event(factor=4.0, flow_label=2))
        ).arm()
        assert demand.surge_factor(1, 1.5) == 1.0
        assert demand.surge_factor(2, 1.5) == 4.0

    def test_replay_determinism(self):
        def run():
            deployment, engine = fluid_deployment(offered_bps=9.6e9)
            FaultInjector(
                deployment, plan_of(surge_event(at=1.0, duration=1.0, factor=2.0))
            ).arm()
            engine.start()
            deployment.sim.run(until=3.0)
            return engine.split_trace, engine.concurrency_trace

        assert run() == run()
