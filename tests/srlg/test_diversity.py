"""Diversity scoring, disjoint-backup choice, and the fate-aware wrapper."""

import ipaddress

from repro.core.tunnels import TangoTunnel
from repro.srlg import (
    FateAwareSelector,
    SrlgRegistry,
    max_disjoint_backup,
    shared_risk,
)


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


class TestScoring:
    def test_shared_risk(self):
        assert shared_risk(tun(0, "a", "b"), tun(1, "b", "c")) == frozenset({"b"})
        assert shared_risk(tun(0, "a"), tun(1, "c")) == frozenset()


class TestBackup:
    def test_prefers_fewest_shared_groups(self):
        primary = tun(0, "conduit", "transit:X")
        sharing = tun(1, "conduit")
        disjoint = tun(2, "other")
        assert max_disjoint_backup(primary, [primary, sharing, disjoint]) is disjoint

    def test_ties_break_on_lowest_path_id(self):
        primary = tun(5, "conduit")
        assert max_disjoint_backup(primary, [tun(2), tun(1), primary]).path_id == 1

    def test_no_candidates_returns_none(self):
        primary = tun(0, "g")
        assert max_disjoint_backup(primary, [primary]) is None
        assert max_disjoint_backup(primary, []) is None


class FirstSelector:
    """Deterministic stand-in for the inner measurement policy."""

    def __init__(self):
        self.store = "inner-store"
        self.calls = 0

    def select(self, tunnels, packet, now):
        self.calls += 1
        return tunnels[0]


class TestFateAwareSelector:
    def setup_method(self):
        self.registry = SrlgRegistry()
        self.registry.tag_link("l", "conduit")
        self.inner = FirstSelector()
        self.selector = FateAwareSelector(self.inner, self.registry)
        self.tunnels = [tun(0, "conduit"), tun(1, "backbone"), tun(2, "conduit")]

    def test_passthrough_when_all_groups_up(self):
        chosen = self.selector.select(self.tunnels, None, 1.0)
        assert chosen.path_id == 0
        assert self.selector.filtered == 0
        assert self.selector.last_choice == 0

    def test_filters_unavailable_groups(self):
        self.registry.mark_down("conduit")
        chosen = self.selector.select(self.tunnels, None, 1.0)
        assert chosen.path_id == 1
        assert self.selector.filtered == 1

    def test_draining_also_filtered(self):
        self.registry.mark_draining("conduit")
        assert self.selector.select(self.tunnels, None, 1.0).path_id == 1

    def test_full_set_passes_through_when_filter_would_empty(self):
        self.registry.mark_down("conduit")
        self.registry.tag_link("l2", "backbone")
        self.registry.mark_down("backbone")
        chosen = self.selector.select(self.tunnels, None, 1.0)
        assert chosen.path_id == 0  # inner policy over the full set
        assert self.selector.filtered == 0

    def test_pin_wins_over_inner_policy(self):
        self.selector.pin(2)
        chosen = self.selector.select(self.tunnels, None, 1.0)
        assert chosen.path_id == 2
        assert self.selector.pin_hits == 1
        assert self.inner.calls == 0
        self.selector.release()
        assert self.selector.select(self.tunnels, None, 1.0).path_id == 0

    def test_pinned_tunnel_must_survive_the_filter(self):
        self.selector.pin(2)  # pinned tunnel shares the dead conduit
        self.registry.mark_down("conduit")
        chosen = self.selector.select(self.tunnels, None, 1.0)
        assert chosen.path_id == 1
        assert self.selector.pin_hits == 0

    def test_store_delegates_to_inner(self):
        assert self.selector.store == "inner-store"
        self.selector.store = "swapped"
        assert self.inner.store == "swapped"
