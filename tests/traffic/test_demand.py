"""Tests for demand generation: flow classes, arrivals, surges."""

import pytest

from repro.traffic.demand import (
    DemandModel,
    FlowClass,
    SurgeWindow,
    standard_flow_classes,
)


def web_class(**overrides):
    base = dict(
        name="web",
        flow_label=1,
        arrival_rate_per_s=100.0,
        mean_size_bytes=125_000.0,  # 1 Mbit
        rate_bps=1e6,  # -> 1 s mean duration
    )
    base.update(overrides)
    return FlowClass(**base)


class TestFlowClass:
    def test_littles_law(self):
        cls = web_class()
        assert cls.mean_duration_s == pytest.approx(1.0)
        assert cls.equilibrium_flows == pytest.approx(100.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            web_class(rate_bps=0.0)
        with pytest.raises(ValueError):
            web_class(mean_size_bytes=-1.0)
        with pytest.raises(ValueError):
            web_class(diurnal_fraction=1.0)

    def test_diurnal_factor_cycles(self):
        cls = web_class(diurnal_fraction=0.5)
        assert cls.diurnal_factor(0.0) == pytest.approx(1.0)
        assert cls.diurnal_factor(86_400 / 4) == pytest.approx(1.5)
        assert cls.diurnal_factor(3 * 86_400 / 4) == pytest.approx(0.5)
        assert web_class().diurnal_factor(12_345.0) == 1.0


class TestSurges:
    def test_window_validation(self):
        with pytest.raises(ValueError):
            SurgeWindow(start=2.0, end=1.0, factor=2.0)
        with pytest.raises(ValueError):
            SurgeWindow(start=0.0, end=1.0, factor=0.0)

    def test_surges_stack_multiplicatively(self):
        model = DemandModel(classes=(web_class(),))
        model.add_surge(1.0, 5.0, 2.0)
        model.add_surge(2.0, 3.0, 3.0)
        assert model.surge_factor(1, 0.5) == 1.0
        assert model.surge_factor(1, 1.5) == 2.0
        assert model.surge_factor(1, 2.5) == 6.0
        assert model.surge_factor(1, 5.0) == 1.0  # end-exclusive

    def test_surge_targets_one_class(self):
        video = web_class(name="video", flow_label=2)
        model = DemandModel(classes=(web_class(), video))
        model.add_surge(0.0, 10.0, 4.0, flow_label=2)
        assert model.surge_factor(1, 5.0) == 1.0
        assert model.surge_factor(2, 5.0) == 4.0
        assert model.arrival_rate(video, 5.0) == pytest.approx(400.0)


class TestDemandModel:
    def test_duplicate_labels_rejected(self):
        with pytest.raises(ValueError):
            DemandModel(classes=(web_class(), web_class()))
        with pytest.raises(ValueError):
            DemandModel(classes=())

    def test_arrivals_deterministic_and_near_rate(self):
        model = DemandModel(classes=(web_class(),), seed=5)
        replay = DemandModel(classes=(web_class(),), seed=5)
        cls = model.classes[0]
        totals = []
        for i in range(200):
            a = model.arrivals_between(cls, i * 0.1, (i + 1) * 0.1)
            assert a == replay.arrivals_between(cls, i * 0.1, (i + 1) * 0.1)
            assert a >= 0.0
            totals.append(a)
        # 200 intervals x 10 arrivals: the Poisson-scale noise averages out.
        assert sum(totals) == pytest.approx(2000.0, rel=0.15)

    def test_different_seed_changes_arrivals(self):
        cls = web_class()
        a = DemandModel(classes=(cls,), seed=1).arrivals_between(cls, 0.0, 0.1)
        b = DemandModel(classes=(cls,), seed=2).arrivals_between(cls, 0.0, 0.1)
        assert a != b

    def test_equilibrium_totals(self):
        model = DemandModel(classes=standard_flow_classes(1_050_000))
        assert model.total_equilibrium_flows(0.0) >= 1_000_000
        # Offered load must fit under the Vultr aggregate (~36 Gbps).
        assert model.offered_bps(0.0) < 36e9

    def test_standard_classes_scale(self):
        small = DemandModel(classes=standard_flow_classes(10_000))
        assert small.total_equilibrium_flows(0.0) == pytest.approx(
            10_000, rel=0.35
        )
        with pytest.raises(ValueError):
            standard_flow_classes(0)
