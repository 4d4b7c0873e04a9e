"""Quarantine probation under correlated failures.

Two contracts: (1) back-to-back failures keep growing the probation
backoff (no reset until a genuine restore), and (2) a tunnel whose
shared-risk group is still marked down has its probation *held* — no
probe, no backoff doubling — until the group recovers.
"""

import ipaddress

import pytest

from repro.core.config import EdgeConfig
from repro.core.controller import QuarantinePolicy, TangoController
from repro.core.gateway import TangoGateway
from repro.core.tunnels import TangoTunnel
from repro.netsim.topology import Network
from repro.srlg import SrlgRegistry


def make_setup(groups=()):
    net = Network()
    switch = net.add_switch("gw")
    config = EdgeConfig(
        name="ny",
        tenant_router="tango-ny",
        tenant_asn=64512,
        provider_router="vultr-ny",
        provider_asn=20473,
        host_prefix=ipaddress.IPv6Network("2001:db8:20::/48"),
        route_prefixes=(ipaddress.IPv6Network("2001:db8:b0::/48"),),
    )
    gateway = TangoGateway(switch, config)
    gateway.install_tunnels(
        ipaddress.IPv6Network("2001:db8:30::/48"),
        [
            TangoTunnel(
                path_id=0,
                label="NTT",
                local_endpoint=ipaddress.IPv6Address("2001:db8:b0::1"),
                remote_endpoint=ipaddress.IPv6Address("2001:db8:c0::1"),
                remote_prefix=ipaddress.IPv6Network("2001:db8:c0::/48"),
                srlgs=frozenset(groups),
            )
        ],
    )
    return net, gateway


class TestBackToBackBackoff:
    def test_backoff_keeps_growing_without_restore(self):
        net, gateway = make_setup()
        controller = TangoController(
            gateway,
            net.sim,
            interval_s=0.1,
            staleness_s=0.5,
            quarantine=QuarantinePolicy(),
        )
        # One measurement, then silence: every probation re-confirms the
        # fault and the backoff must double each cycle, not reset.
        gateway.outbound.record(0, 0.0, 0.030)
        controller.start()
        net.run(until=9.0)
        backoffs = [
            q.backoff_s
            for q in controller.quarantine_log
            if q.action == "quarantine" and q.path_id == 0
        ]
        assert len(backoffs) >= 3
        assert backoffs[0] == pytest.approx(1.0)
        assert backoffs[1] == pytest.approx(2.0)
        assert backoffs[2] == pytest.approx(4.0)

    def test_backoff_caps_at_policy_maximum(self):
        net, gateway = make_setup()
        controller = TangoController(
            gateway,
            net.sim,
            interval_s=0.1,
            staleness_s=0.5,
            quarantine=QuarantinePolicy(max_probation_delay_s=2.0),
        )
        gateway.outbound.record(0, 0.0, 0.030)
        controller.start()
        net.run(until=12.0)
        backoffs = [
            q.backoff_s
            for q in controller.quarantine_log
            if q.action == "quarantine" and q.path_id == 0
        ]
        assert len(backoffs) >= 3
        assert max(backoffs) == pytest.approx(2.0)


class TestProbationHold:
    def make_controller(self, net, gateway, registry):
        return TangoController(
            gateway,
            net.sim,
            interval_s=0.1,
            staleness_s=0.5,
            quarantine=QuarantinePolicy(),
            srlg_registry=registry,
        )

    def test_probation_held_while_group_down(self):
        net, gateway = make_setup(groups=("conduit",))
        registry = SrlgRegistry()
        registry.tag_link("wan", "conduit")
        controller = self.make_controller(net, gateway, registry)
        gateway.outbound.record(0, 0.0, 0.030)
        registry.mark_down("conduit")
        controller.start()
        net.run(until=5.0)

        actions = [q.action for q in controller.quarantine_log if q.path_id == 0]
        assert "probation" not in actions
        # Held once, not re-logged every tick.
        assert actions.count("probation-hold") == 1
        assert controller.quarantined == {0}

    def test_hold_does_not_burn_backoff_doublings(self):
        net, gateway = make_setup(groups=("conduit",))
        registry = SrlgRegistry()
        registry.tag_link("wan", "conduit")
        controller = self.make_controller(net, gateway, registry)
        gateway.outbound.record(0, 0.0, 0.030)
        registry.mark_down("conduit")
        controller.start()
        # Long outage: without the hold this would cycle
        # quarantine/probation ~4 times and reach an 8 s backoff.
        net.run(until=5.0)
        registry.clear_down("conduit")
        net.run(until=8.0)

        log = [q for q in controller.quarantine_log if q.path_id == 0]
        probations = [q for q in log if q.action == "probation"]
        assert probations  # released once the group recovered
        backoffs = [q.backoff_s for q in log if q.action == "quarantine"]
        # First quarantine at 1.0 s; the post-recovery re-quarantine uses
        # the single doubling — the held window burned nothing.
        assert backoffs[0] == pytest.approx(1.0)
        assert backoffs[1] == pytest.approx(2.0)

    @pytest.mark.parametrize("restart", ["cold", "crash"])
    def test_hold_is_logged_again_after_a_restart(self, restart):
        """The once-per-outage dedupe is runtime state: a restarted
        controller that re-quarantines the path during the same outage
        logs its own hold (the set used to survive stop() and crash())."""
        net, gateway = make_setup(groups=("conduit",))
        registry = SrlgRegistry()
        registry.tag_link("wan", "conduit")
        controller = self.make_controller(net, gateway, registry)
        gateway.outbound.record(0, 0.0, 0.030)
        registry.mark_down("conduit")
        controller.start()
        net.run(until=5.0)
        if restart == "cold":
            controller.stop()
            controller.start()
        else:
            controller.crash()
            controller.restore_state(None)
            controller.start(warm=True)
        net.run(until=8.0)

        holds = [
            q.t for q in controller.quarantine_log if q.action == "probation-hold"
        ]
        # Re-quarantined at 5.1 (two unhealthy ticks), probation due at
        # 6.1: the first tick at or past it on the restarted grid is 6.2.
        assert holds == pytest.approx([1.7, 6.2])

    def test_untagged_tunnel_unaffected_by_down_groups(self):
        net, gateway = make_setup()  # no srlg tags on the tunnel
        registry = SrlgRegistry()
        registry.tag_link("wan", "conduit")
        controller = self.make_controller(net, gateway, registry)
        gateway.outbound.record(0, 0.0, 0.030)
        registry.mark_down("conduit")
        controller.start()
        net.run(until=3.0)
        actions = [q.action for q in controller.quarantine_log if q.path_id == 0]
        assert "probation" in actions
        assert "probation-hold" not in actions
