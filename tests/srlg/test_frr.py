"""FastReroute: precomputed backups, make-before-break pin, release."""

import ipaddress

from repro.core.tunnels import TangoTunnel
from repro.srlg import FastReroute, FateAwareSelector, SrlgRegistry


def tun(path_id, *groups):
    return TangoTunnel(
        path_id=path_id,
        label=f"path-{path_id}",
        local_endpoint=ipaddress.IPv6Address("2001:db8::1"),
        remote_endpoint=ipaddress.IPv6Address(f"2001:db8::{path_id + 2:x}"),
        remote_prefix=ipaddress.IPv6Network("2001:db8:100::/48"),
        short_label=f"P{path_id}",
        srlgs=frozenset(groups),
    )


class FakeTable:
    def __init__(self, tunnels):
        self._tunnels = tunnels

    def all_tunnels(self):
        return list(self._tunnels)


class FakeGateway:
    def __init__(self, tunnels):
        self.tunnel_table = FakeTable(tunnels)


class FirstSelector:
    def __init__(self):
        self.store = None

    def select(self, tunnels, packet, now):
        return tunnels[0]


def make_frr(tunnels):
    registry = SrlgRegistry()
    for tunnel in tunnels:
        for group in tunnel.srlgs:
            registry.tag_link(f"wan:{tunnel.short_label}", group)
    selector = FateAwareSelector(FirstSelector(), registry)
    frr = FastReroute(FakeGateway(tunnels), registry, selector)
    return registry, selector, frr


class TestBackupTable:
    def test_precomputed_at_init(self):
        tunnels = [tun(0, "conduit"), tun(1, "conduit"), tun(2, "backbone")]
        _, _, frr = make_frr(tunnels)
        # Both conduit tunnels back up onto the disjoint backbone path.
        assert frr.backup_for[0] == 2
        assert frr.backup_for[1] == 2
        assert frr.backup_for[2] == 0  # tie among conduit pair -> lowest id

    def test_loss_of_disjointness_repairs_table(self):
        tunnels = [tun(0, "conduit"), tun(1, "backbone"), tun(2, "grid")]
        registry, _, frr = make_frr(tunnels)
        assert frr.backup_for[0] == 1
        registry.mark_down("backbone")
        frr.tick(1.0)
        # The precomputed backup's group failed: repair to the grid path.
        assert frr.backup_for[0] == 2


class TestSwitchover:
    def test_make_before_break_pins_backup(self):
        tunnels = [tun(0, "conduit"), tun(1, "conduit"), tun(2, "backbone")]
        registry, selector, frr = make_frr(tunnels)
        selector.select(tunnels, None, 0.5)  # riding path 0
        registry.mark_down("conduit")
        frr.tick(1.0)
        assert selector.pinned == 2
        assert frr.switchovers == 1
        actions = [e.action for e in frr.log]
        assert "switchover" in actions
        assert selector.select(tunnels, None, 1.1).path_id == 2

    def test_quiet_epoch_is_noop(self):
        tunnels = [tun(0, "conduit"), tun(1, "backbone")]
        registry, selector, frr = make_frr(tunnels)
        selector.select(tunnels, None, 0.5)
        frr.tick(1.0)
        log_len = len(frr.log)
        frr.tick(2.0)  # epoch unchanged -> nothing appended
        assert len(frr.log) == log_len

    def test_no_switchover_when_current_unaffected(self):
        tunnels = [tun(0, "conduit"), tun(1, "backbone")]
        registry, selector, frr = make_frr(tunnels)
        selector.select(tunnels, None, 0.5)  # riding path 0
        registry.mark_down("backbone")
        frr.tick(1.0)
        assert selector.pinned is None
        assert frr.switchovers == 0

    def test_release_when_primary_group_recovers(self):
        tunnels = [tun(0, "conduit"), tun(1, "conduit"), tun(2, "backbone")]
        registry, selector, frr = make_frr(tunnels)
        selector.select(tunnels, None, 0.5)
        registry.mark_down("conduit")
        frr.tick(1.0)
        assert selector.pinned == 2
        registry.clear_down("conduit")
        frr.tick(5.0)
        assert selector.pinned is None
        assert frr.log[-1].action == "release"

    def test_draining_triggers_early_switch(self):
        # Maintenance semantics: draining counts as unavailable, so the
        # pin lands while the primary still forwards (zero-loss switch).
        tunnels = [tun(0, "conduit"), tun(1, "backbone")]
        registry, selector, frr = make_frr(tunnels)
        selector.select(tunnels, None, 0.5)
        registry.mark_draining("conduit")
        frr.tick(1.0)
        assert selector.pinned == 1
        assert frr.switchovers == 1
