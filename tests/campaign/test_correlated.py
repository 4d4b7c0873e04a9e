"""E18 correlated campaign: plan purity, determinism, gates, retries."""

import json
import os
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool

import pytest

import repro.campaign.runner as runner_module
from repro.campaign.plans import CORRELATED_ARCHETYPES, generate_correlated_plans
from repro.campaign.runner import (
    CorrelatedConfig,
    _apply_correlated_gates,
    run_correlated_campaign,
)


class TestPlanGeneration:
    def test_plans_are_pure_functions_of_seed_and_index(self):
        short = generate_correlated_plans(4, 2026)
        long = generate_correlated_plans(8, 2026)
        assert [p.plan.to_json() for p in short] == [
            p.plan.to_json() for p in long[:4]
        ]

    def test_archetypes_cycle(self):
        plans = generate_correlated_plans(8, 7)
        assert [p.archetype for p in plans[:4]] == list(CORRELATED_ARCHETYPES)
        assert plans[4].archetype == CORRELATED_ARCHETYPES[0]

    def test_names_encode_index_and_archetype(self):
        plans = generate_correlated_plans(2, 7)
        assert plans[0].plan.name == "corr-000-shared_srlg"
        assert plans[1].plan.name == "corr-001-two_group"

    def test_decorrelated_from_e17_namespace(self):
        from repro.campaign.plans import generate_adversarial_plans

        corr = generate_correlated_plans(1, 2026)[0]
        adv = generate_adversarial_plans(1, 2026)[0]
        assert corr.plan.seed != adv.plan.seed

    def test_two_group_events_overlap(self):
        plans = generate_correlated_plans(16, 11)
        for adv in plans:
            if adv.archetype != "two_group":
                continue
            first, second = adv.plan.events
            assert first.at < second.at < first.end

    def test_population_lints_clean_against_vultr(self):
        from tests.faults.shapes import vultr_shape

        shape = vultr_shape()
        for adv in generate_correlated_plans(8, 2026):
            assert adv.plan.check(shape) == []

    def test_count_validated(self):
        with pytest.raises(ValueError):
            generate_correlated_plans(0, 1)


class TestGates:
    BASELINE = {"median_ms": 0.1}

    def row(self, **overrides):
        defended = {
            "median_ms": 0.0,
            "availability": 0.99,
            "switchover_s": 0.1,
            "failed_srlg_ticks": 0,
            "frr_switchovers": 1,
        }
        undefended = {"failed_srlg_ticks": 5}
        for key, value in overrides.items():
            side, _, field = key.partition("__")
            (defended if side == "defended" else undefended)[field] = value
        return {
            "name": "corr-000-shared_srlg",
            "archetype": "shared_srlg",
            "defended": defended,
            "undefended": undefended,
        }

    def test_clean_row_passes(self):
        gates, failures = _apply_correlated_gates(
            [self.row()], self.BASELINE, CorrelatedConfig()
        )
        assert failures == []
        assert gates["switchover_budget_s"] == pytest.approx(1.0)

    def test_slow_switchover_fails(self):
        _, failures = _apply_correlated_gates(
            [self.row(defended__switchover_s=2.5)],
            self.BASELINE,
            CorrelatedConfig(),
        )
        assert any("switchover" in f for f in failures)

    def test_traffic_on_failed_group_fails(self):
        _, failures = _apply_correlated_gates(
            [self.row(defended__failed_srlg_ticks=3)],
            self.BASELINE,
            CorrelatedConfig(),
        )
        assert any("failed risk group" in f for f in failures)

    def test_two_group_rows_use_stricter_slo(self):
        row = self.row(defended__availability=0.91)
        row["archetype"] = "two_group"
        _, failures = _apply_correlated_gates(
            [row], self.BASELINE, CorrelatedConfig()
        )
        assert failures == []  # 0.91 >= the 0.9 two-group SLO
        row = self.row(defended__availability=0.85)
        row["archetype"] = "two_group"
        _, failures = _apply_correlated_gates(
            [row], self.BASELINE, CorrelatedConfig()
        )
        assert any("availability" in f for f in failures)

    def test_undemonstrated_fault_fails(self):
        _, failures = _apply_correlated_gates(
            [self.row(undefended__failed_srlg_ticks=0)],
            self.BASELINE,
            CorrelatedConfig(),
        )
        assert any("not demonstrated" in f for f in failures)


class TestEndToEnd:
    """One small real E18 campaign, sharded two ways."""

    @pytest.fixture(scope="class")
    def reports(self):
        one = run_correlated_campaign(2, master_seed=2026, workers=1)
        two = run_correlated_campaign(2, master_seed=2026, workers=2)
        return one, two

    def test_gates_pass(self, reports):
        one, _ = reports
        assert one.failures == []
        assert one.passed

    def test_shard_merge_byte_identical(self, reports):
        one, two = reports
        assert one.to_json() == two.to_json()

    def test_report_shape(self, reports):
        one, _ = reports
        payload = json.loads(one.to_json())
        assert payload["experiment"] == "E18"
        assert payload["shard_retries"] == 0
        assert [row["index"] for row in payload["results"]] == [0, 1]

    def test_defended_rows_show_the_defense_working(self, reports):
        one, _ = reports
        for row in one.results:
            assert row["defended"]["failed_srlg_ticks"] == 0
            assert row["defended"]["switchover_s"] <= 1.0
            assert row["defended"]["fate_filtered"] > 0
            assert row["undefended"]["failed_srlg_ticks"] > 0


class TestShardRetry:
    def test_dead_worker_shard_retried_in_process(self, monkeypatch):
        parent = os.getpid()

        def crash(index):
            # Only kill forked workers, never the test process itself.
            if index == 0 and os.getpid() != parent:
                os._exit(1)

        monkeypatch.setattr(runner_module, "_shard_crash_hook", crash)
        crashed = run_correlated_campaign(2, master_seed=2026, workers=2)
        monkeypatch.setattr(runner_module, "_shard_crash_hook", None)
        clean = run_correlated_campaign(2, master_seed=2026, workers=2)

        assert crashed.shard_retries >= 1
        # The retried shard reproduced the dead worker's rows exactly.
        assert crashed.results == clean.results
        assert crashed.gates == clean.gates
        assert crashed.passed

    def test_a_pool_broken_while_shards_are_handed_out_retries_them(
        self, monkeypatch
    ):
        """A worker can die before the last shard is submitted; ``submit``
        then raises instead of returning a poisoned future."""
        clean = run_correlated_campaign(2, master_seed=2026, workers=2)
        submit = ProcessPoolExecutor.submit

        def submit_once(pool, fn, *args):
            if getattr(pool, "_handed_out", False):
                raise BrokenProcessPool("a worker died")
            pool._handed_out = True
            return submit(pool, fn, *args)

        monkeypatch.setattr(ProcessPoolExecutor, "submit", submit_once)
        broken = run_correlated_campaign(2, master_seed=2026, workers=2)
        assert broken.shard_retries >= 1
        assert broken.results == clean.results
        assert broken.gates == clean.gates

    def test_single_worker_path_never_retries(self):
        report = run_correlated_campaign(1, master_seed=2026, workers=1)
        assert report.shard_retries == 0
