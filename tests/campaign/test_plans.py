"""Unit tests: adversarial plan generation determinism and validity."""

import pytest

from repro.campaign.plans import (
    ARCHETYPES,
    AdversarialPlan,
    _BASE_MS,
    generate_adversarial_plans,
)
from repro.faults.plan import FAULT_KINDS
from tests.faults.shapes import vultr_shape


class TestDeterminism:
    def test_same_seed_same_population(self):
        a = generate_adversarial_plans(10, master_seed=99)
        b = generate_adversarial_plans(10, master_seed=99)
        assert [p.plan.to_json() for p in a] == [p.plan.to_json() for p in b]

    def test_plan_i_is_independent_of_count(self):
        """Plan i is a pure function of (master_seed, i): growing the
        population must not reshuffle the prefix."""
        small = generate_adversarial_plans(5, master_seed=7)
        large = generate_adversarial_plans(15, master_seed=7)
        assert [p.plan.to_json() for p in small] == [
            p.plan.to_json() for p in large[:5]
        ]

    def test_different_seeds_differ(self):
        a = generate_adversarial_plans(5, master_seed=1)
        b = generate_adversarial_plans(5, master_seed=2)
        assert [p.plan.to_json() for p in a] != [p.plan.to_json() for p in b]


class TestPopulationShape:
    def test_archetypes_interleave(self):
        plans = generate_adversarial_plans(10, master_seed=3)
        assert tuple(p.archetype for p in plans[:5]) == ARCHETYPES
        assert tuple(p.archetype for p in plans[5:]) == ARCHETYPES

    def test_count_validated(self):
        with pytest.raises(ValueError):
            generate_adversarial_plans(0, master_seed=1)

    def test_all_plans_use_known_kinds(self):
        for adv in generate_adversarial_plans(20, master_seed=5):
            for event in adv.plan.events:
                assert event.kind in FAULT_KINDS

    def test_all_plans_pass_tng105(self):
        """Every generated plan must validate clean against the Vultr
        scenario — the campaign must never arm an invalid plan."""
        shape = vultr_shape()
        for adv in generate_adversarial_plans(20, master_seed=8):
            assert adv.plan.check(shape) == []

    def test_tamper_bias_exceeds_gap_to_best(self):
        """A favored tamper must make its path *appear* best, so the
        bias must exceed the true gap to the best path."""
        for adv in generate_adversarial_plans(20, master_seed=11):
            if adv.archetype != "favored_tamper":
                continue
            event = adv.plan.events[0]
            assert adv.favored == event.params["path"]
            gap = _BASE_MS[adv.favored] - _BASE_MS["GTT"]
            assert event.params["bias_ms"] > gap

    def test_base_delays_match_vultr_calibration(self):
        """The generator's embedded base-delay table must track the
        scenario it attacks."""
        from repro.scenarios.vultr import NY_TO_LA_PATHS

        for label, base_ms in _BASE_MS.items():
            assert NY_TO_LA_PATHS[label].base_ms == base_ms


class TestPayloadRoundTrip:
    def test_to_from_payload(self):
        adv = generate_adversarial_plans(5, master_seed=13)[0]
        back = AdversarialPlan.from_payload(adv.to_payload())
        assert back.index == adv.index
        assert back.archetype == adv.archetype
        assert back.favored == adv.favored
        assert back.plan.to_json() == adv.plan.to_json()
