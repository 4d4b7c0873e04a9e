"""Tests for provider traffic-control community semantics."""

from repro.bgp.attributes import LargeCommunity, RouteAttributes
from repro.bgp.communities import (
    ACTION_NO_EXPORT_ALL,
    ACTION_PREPEND_TO,
    TrafficControlInterpreter,
    no_export_to,
)

VULTR = 20473
NTT = 2914
TELIA = 1299


def attrs(*large):
    return RouteAttributes().add_communities(large=large)


def prepend(target, count):
    return LargeCommunity(VULTR, ACTION_PREPEND_TO + count, target)


class TestConstructors:
    def test_no_export_to_encoding(self):
        community = no_export_to(VULTR, NTT)
        assert (community.global_admin, community.data1, community.data2) == (
            VULTR,
            6000,
            NTT,
        )


class TestInterpretation:
    def setup_method(self):
        self.interp = TrafficControlInterpreter(VULTR)

    def test_no_communities_allows_everything(self):
        action = self.interp.evaluate(attrs(), NTT)
        assert action.allow and action.prepend == 0

    def test_no_export_to_suppresses_only_target(self):
        route = attrs(no_export_to(VULTR, NTT))
        assert not self.interp.evaluate(route, NTT).allow
        assert self.interp.evaluate(route, TELIA).allow

    def test_multiple_suppressions_accumulate(self):
        route = attrs(no_export_to(VULTR, NTT), no_export_to(VULTR, TELIA))
        assert not self.interp.evaluate(route, NTT).allow
        assert not self.interp.evaluate(route, TELIA).allow
        assert self.interp.evaluate(route, 3257).allow

    def test_other_admins_communities_ignored(self):
        """Another provider's communities are transitive baggage."""
        route = attrs(no_export_to(3356, NTT))
        assert self.interp.evaluate(route, NTT).allow

    def test_no_export_all_blocks_transit_not_customers(self):
        route = attrs(LargeCommunity(VULTR, ACTION_NO_EXPORT_ALL, 0))
        assert not self.interp.evaluate(route, NTT).allow
        assert self.interp.evaluate(route, 64512, target_is_customer=True).allow

    def test_prepend_to_target_only(self):
        route = attrs(prepend(NTT, 3))
        assert self.interp.evaluate(route, NTT).prepend == 3
        assert self.interp.evaluate(route, TELIA).prepend == 0

    def test_largest_prepend_wins(self):
        route = attrs(prepend(NTT, 1), prepend(NTT, 3))
        assert self.interp.evaluate(route, NTT).prepend == 3

    def test_suppress_and_prepend_compose(self):
        route = attrs(no_export_to(VULTR, NTT), prepend(TELIA, 2))
        assert not self.interp.evaluate(route, NTT).allow
        action = self.interp.evaluate(route, TELIA)
        assert action.allow and action.prepend == 2
