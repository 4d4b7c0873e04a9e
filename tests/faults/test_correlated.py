"""Correlated fault kinds: SRLG failures, regional outages, maintenance."""

import pytest

from repro.faults import FaultEvent, FaultInjector, FaultPlan, RecoveryLog
from repro.faults.plan import maintenance_drain_s
from repro.scenarios.vultr import VultrDeployment


def deployment():
    d = VultrDeployment(include_events=False)
    d.establish()
    return d


def plan_of(*events, seed=0):
    return FaultPlan(name="test", events=tuple(events), seed=seed)


def srlg_failure(at=2.0, duration=2.0, group="socal-conduit"):
    return FaultEvent(
        "srlg_failure", at=at, duration=duration, params={"group": group}
    )


class TestSrlgFailure:
    def test_all_member_links_fail_together(self):
        d = deployment()
        members = d.srlg.link_members("socal-conduit")
        # Both directions of both conduit paths are members.
        assert len(members) == 4
        links = [d.net.links[name] for name in members]
        baselines = [link.loss for link in links]
        FaultInjector(d, plan_of(srlg_failure(at=2.0, duration=2.0))).arm()
        for link, baseline in zip(links, baselines):
            assert link.loss.loss_probability(2.5) == 1.0
            assert link.loss.loss_probability(1.9) == baseline.loss_probability(1.9)
            assert link.loss.loss_probability(4.1) == baseline.loss_probability(4.1)

    def test_registry_marked_down_for_the_window(self):
        d = deployment()
        FaultInjector(d, plan_of(srlg_failure(at=2.0, duration=2.0))).arm()
        assert d.srlg.state("socal-conduit") == "up"
        d.net.run(until=2.5)
        assert d.srlg.state("socal-conduit") == "down"
        d.net.run(until=4.5)
        assert d.srlg.state("socal-conduit") == "up"

    def test_unknown_group_rejected_at_arm(self):
        d = deployment()
        event = srlg_failure(group="atlantis-cable")
        with pytest.raises(ValueError, match="atlantis-cable"):
            FaultInjector(d, plan_of(event)).arm()

    def test_target_names_the_group(self):
        assert srlg_failure().target == "group:socal-conduit"


class TestRegionalOutage:
    def event(self, at=2.0, duration=2.0, region="socal"):
        return FaultEvent(
            "regional_outage", at=at, duration=duration, params={"region": region}
        )

    def test_links_and_sessions_fail_together(self):
        d = deployment()
        region = d.srlg.region("socal")
        member = d.srlg.link_members(region.groups[0])[0]
        link = d.net.links[member]
        router = region.routers[0]
        neighbor = sorted(d.bgp.router(router).neighbors)[0]
        FaultInjector(d, plan_of(self.event(at=2.0, duration=2.0))).arm()

        d.net.run(until=2.5)
        assert link.loss.loss_probability(2.5) == 1.0
        with pytest.raises(KeyError):
            d.bgp.session_config(router, neighbor)
        assert d.srlg.state(region.groups[0]) == "down"

        d.net.run(until=5.0)
        assert d.bgp.session_config(router, neighbor) is not None
        assert d.srlg.state(region.groups[0]) == "up"

    def test_unknown_region_rejected_at_arm(self):
        d = deployment()
        with pytest.raises(ValueError, match="unknown region 'mars'"):
            FaultInjector(d, plan_of(self.event(region="mars"))).arm()


class TestMaintenanceWindow:
    def event(self, at=2.0, duration=2.0, drain_s=0.5, group="socal-conduit"):
        return FaultEvent(
            "maintenance_window",
            at=at,
            duration=duration,
            params={"group": group, "drain_s": drain_s},
        )

    def test_drain_then_fail(self):
        d = deployment()
        member = d.srlg.link_members("socal-conduit")[0]
        link = d.net.links[member]
        FaultInjector(d, plan_of(self.event(at=2.0, duration=2.0, drain_s=0.5))).arm()

        d.net.run(until=2.2)  # inside the drain: advertised, not failed
        assert d.srlg.state("socal-conduit") == "draining"
        assert link.loss.loss_probability(2.2) != 1.0

        d.net.run(until=3.0)  # drain elapsed: hard down
        assert d.srlg.state("socal-conduit") == "down"
        assert link.loss.loss_probability(3.0) == 1.0

        d.net.run(until=4.5)
        assert d.srlg.state("socal-conduit") == "up"

    def test_default_drain_derived_from_duration(self):
        short = FaultEvent(
            "maintenance_window", at=1.0, duration=0.6,
            params={"group": "g"},
        )
        assert maintenance_drain_s(short) == pytest.approx(0.3)
        long = FaultEvent(
            "maintenance_window", at=1.0, duration=4.0,
            params={"group": "g"},
        )
        assert maintenance_drain_s(long) == pytest.approx(0.5)

    def test_drain_must_fit_inside_the_window(self):
        d = deployment()
        with pytest.raises(ValueError, match="drain"):
            FaultInjector(
                d, plan_of(self.event(duration=1.0, drain_s=1.5))
            ).arm()


class TestGroupRecovery:
    def test_group_records_attribute_per_affected_tunnel(self):
        from repro.core.controller import QuarantinePolicy

        d = deployment()
        d.start_path_probes("ny", interval_s=0.05)
        controller = d.start_controller(
            "ny",
            d.gateway("ny").data_selector,
            interval_s=0.1,
            staleness_s=0.5,
            quarantine=QuarantinePolicy(),
        )
        plan = plan_of(srlg_failure(at=2.0, duration=3.0))
        FaultInjector(d, plan).arm()
        d.net.run(until=8.0)

        log = RecoveryLog.build(plan, {"ny": controller})
        targets = sorted(r.target for r in log.records)
        # Telia and GTT share the conduit; one attributed record each.
        assert targets == [
            "group:socal-conduit/ny:GTT",
            "group:socal-conduit/ny:Telia",
        ]
        assert all(r.detected_at is not None for r in log.records)
        assert log.path_fault_count == 2
        # Replaying the identical plan renders identical bytes.
        assert log.format() == RecoveryLog.build(plan, {"ny": controller}).format()

    def test_untagged_controllers_fall_back_to_untimed_record(self):
        plan = plan_of(srlg_failure())
        log = RecoveryLog.build(plan, {})
        assert len(log.records) == 1
        assert log.records[0].target == "group:socal-conduit"
        assert log.records[0].detected_at is None
