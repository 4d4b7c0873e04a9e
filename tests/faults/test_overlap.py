"""Overlapping fault windows on one target must not double-revert.

Control-plane faults save-and-restore live state, so two windows
covering the same target used to race: the first window to end restored
the saved state while the second was still supposed to hold it down.
The injector now refcounts holds per target — state is saved once when
the first window opens and restored once when the *last* window closes.
"""

import pytest

from repro.faults import FaultEvent, FaultInjector, FaultPlan
from repro.scenarios.vultr import VultrDeployment


def deployment():
    d = VultrDeployment(include_events=False)
    d.establish()
    return d


def plan_of(*events, seed=0):
    return FaultPlan(name="overlap", events=tuple(events), seed=seed)


class TestBgpSessionOverlap:
    def session_down(self, at, duration, a, b):
        return FaultEvent(
            "bgp_session_down", at=at, duration=duration, params={"a": a, "b": b}
        )

    def test_session_restored_only_after_last_window(self):
        d = deployment()
        tenant = d.pairing.edge("la").tenant_router
        provider = d.pairing.edge("la").provider_router
        config = d.bgp.session_config(tenant, provider)
        FaultInjector(
            d,
            plan_of(
                self.session_down(1.0, 3.0, tenant, provider),
                self.session_down(2.0, 1.0, tenant, provider),
            ),
        ).arm()

        # Inner window ended at 3.0, but the outer one holds until 4.0.
        d.net.run(until=3.5)
        with pytest.raises(KeyError):
            d.bgp.session_config(tenant, provider)

        d.net.run(until=4.5)
        assert d.bgp.session_config(tenant, provider) == config

    def test_overlap_is_order_independent(self):
        d = deployment()
        tenant = d.pairing.edge("la").tenant_router
        provider = d.pairing.edge("la").provider_router
        config = d.bgp.session_config(tenant, provider)
        # Same windows, listed inner-first.
        FaultInjector(
            d,
            plan_of(
                self.session_down(2.0, 1.0, tenant, provider),
                self.session_down(1.0, 3.0, tenant, provider),
            ),
        ).arm()
        d.net.run(until=3.5)
        with pytest.raises(KeyError):
            d.bgp.session_config(tenant, provider)
        d.net.run(until=4.5)
        assert d.bgp.session_config(tenant, provider) == config


class TestTelemetryDropOverlap:
    def drop(self, at, duration):
        return FaultEvent(
            "telemetry_drop", at=at, duration=duration, params={"edge": "la"}
        )

    def test_mirror_resumes_only_after_last_window(self):
        d = deployment()
        d.start_path_probes("la")
        FaultInjector(d, plan_of(self.drop(1.0, 3.0), self.drop(2.0, 1.0))).arm()
        series = d.gateway("la").outbound.series(d.tunnels("la")[0].path_id)

        d.net.run(until=3.5)  # inner window over, outer still holding
        held = len(series)
        d.net.run(until=3.9)
        assert len(series) == held > 0
        d.net.run(until=4.5)
        assert len(series) > held


class TestPrefixWithdrawOverlap:
    def withdraw(self, at, duration, index=0):
        return FaultEvent(
            "prefix_withdraw",
            at=at,
            duration=duration,
            params={"edge": "la", "prefix_index": index},
        )

    def test_reannounced_only_after_last_window(self):
        d = deployment()
        prefix = list(d.pairing.edge("la").route_prefixes)[0]
        tenant = d.pairing.edge("ny").tenant_router
        FaultInjector(
            d, plan_of(self.withdraw(1.0, 3.0), self.withdraw(2.0, 1.0))
        ).arm()

        d.net.run(until=3.5)
        assert not d.bgp.reachable(tenant, str(prefix))
        d.net.run(until=4.5)
        assert d.bgp.reachable(tenant, str(prefix))


class TestSrlgOverlap:
    def test_group_stays_down_until_last_window_clears(self):
        d = deployment()
        FaultInjector(
            d,
            plan_of(
                FaultEvent(
                    "srlg_failure", at=1.0, duration=3.0,
                    params={"group": "socal-conduit"},
                ),
                FaultEvent(
                    "srlg_failure", at=2.0, duration=1.0,
                    params={"group": "socal-conduit"},
                ),
            ),
        ).arm()
        d.net.run(until=3.5)
        assert d.srlg.state("socal-conduit") == "down"
        d.net.run(until=4.5)
        assert d.srlg.state("socal-conduit") == "up"
