"""Tests for the BGP speaker: import, decision process, export."""

import ipaddress

import pytest

from repro.bgp.attributes import AsPath, LargeCommunity, Origin, RouteAttributes
from repro.bgp.communities import ACTION_PREPEND_TO, no_export_to
from repro.bgp.messages import Announcement, Withdrawal
from repro.bgp.policy import Relationship
from repro.bgp.router import BgpRouter

P1 = ipaddress.ip_network("2001:db8:1::/48")


def announce(path, **kwargs):
    return Announcement(
        prefix=P1,
        attributes=RouteAttributes(as_path=AsPath(tuple(path)), **kwargs),
    )


def make_router(**kwargs):
    router = BgpRouter("r", 100, **kwargs)
    router.add_neighbor("cust", 200, Relationship.CUSTOMER)
    router.add_neighbor("peer", 300, Relationship.PEER)
    router.add_neighbor("prov", 400, Relationship.PROVIDER)
    return router


class TestAsn:
    @pytest.mark.parametrize(
        "asn", [-5, 0, 2**32, 1.5, True, False, "100", None], ids=repr
    )
    def test_refused_naming_asn(self, asn):
        with pytest.raises(ValueError, match="^r: asn must be an int in 1..4294967295"):
            BgpRouter("r", asn)

    @pytest.mark.parametrize("asn", [1, 65000, 2**32 - 1])
    def test_four_byte_range_accepted(self, asn):
        assert BgpRouter("r", asn).asn == asn


class TestSessions:
    def test_duplicate_neighbor_rejected(self):
        router = make_router()
        with pytest.raises(ValueError, match="duplicate"):
            router.add_neighbor("cust", 201, Relationship.CUSTOMER)

    def test_unknown_sender_rejected(self):
        router = make_router()
        with pytest.raises(KeyError, match="no session"):
            router.receive_announcement("stranger", announce([1]))

    def test_remove_neighbor_flushes_routes(self):
        router = make_router()
        router.receive_announcement("cust", announce([200]))
        assert router.best_route(P1) is not None
        router.remove_neighbor("cust")
        assert router.best_route(P1) is None


class TestImport:
    def test_loop_detection_rejects_own_asn(self):
        router = make_router()
        changed = router.receive_announcement("prov", announce([400, 100, 5]))
        assert not changed
        assert router.best_route(P1) is None

    def test_allowas_in_accepts_own_asn(self):
        router = BgpRouter("r", 100, allowas_in=True)
        router.add_neighbor("prov", 400, Relationship.PROVIDER)
        router.receive_announcement("prov", announce([400, 100, 5]))
        assert router.best_route(P1) is not None

    def test_local_pref_assigned_by_relationship(self):
        router = make_router()
        router.receive_announcement("prov", announce([400]))
        assert router.best_route(P1).attributes.local_pref == 100
        router.receive_announcement("cust", announce([200]))
        assert router.best_route(P1).attributes.local_pref == 300

    def test_import_policy_can_reject(self):
        router = make_router()
        router.import_policies.append(lambda n, p, a: False)
        router.receive_announcement("cust", announce([200]))
        assert router.best_route(P1) is None

    def test_updated_announcement_replaces_old(self):
        router = make_router()
        router.receive_announcement("cust", announce([200, 5]))
        router.receive_announcement("cust", announce([200, 9]))
        assert router.best_path(P1).asns == (200, 9)


class TestDecisionProcess:
    def test_customer_beats_shorter_provider_path(self):
        """Highest LOCAL_PREF wins before path length."""
        router = make_router()
        router.receive_announcement("prov", announce([400]))
        router.receive_announcement("cust", announce([200, 7, 8]))
        assert router.best_route(P1).neighbor == "cust"

    def test_shorter_path_wins_within_tier(self):
        router = make_router()
        router.add_neighbor("prov2", 500, Relationship.PROVIDER)
        router.receive_announcement("prov", announce([400, 1, 2]))
        router.receive_announcement("prov2", announce([500, 1]))
        assert router.best_route(P1).neighbor == "prov2"

    def test_prepending_lengthens_and_loses(self):
        router = make_router()
        router.add_neighbor("prov2", 500, Relationship.PROVIDER)
        router.receive_announcement("prov", announce([400, 400, 400, 1]))
        router.receive_announcement("prov2", announce([500, 2, 3]))
        assert router.best_route(P1).neighbor == "prov2"

    def test_origin_breaks_length_tie(self):
        router = make_router()
        router.add_neighbor("prov2", 500, Relationship.PROVIDER)
        router.receive_announcement(
            "prov", announce([400], origin=Origin.INCOMPLETE)
        )
        router.receive_announcement("prov2", announce([500], origin=Origin.IGP))
        assert router.best_route(P1).neighbor == "prov2"

    def test_operator_preference_breaks_remaining_tie(self):
        """The Vultr behaviour: NTT preferred over Telia over GTT."""
        router = BgpRouter("r", 100)
        router.add_neighbor("ntt", 2914, Relationship.PROVIDER, preference=1)
        router.add_neighbor("telia", 1299, Relationship.PROVIDER, preference=2)
        router.receive_announcement("telia", announce([1299]))
        router.receive_announcement("ntt", announce([2914]))
        assert router.best_route(P1).neighbor == "ntt"

    def test_neighbor_name_is_final_tiebreak(self):
        router = BgpRouter("r", 100)
        router.add_neighbor("a", 1, Relationship.PROVIDER)
        router.add_neighbor("b", 2, Relationship.PROVIDER)
        router.receive_announcement("b", announce([2]))
        router.receive_announcement("a", announce([1]))
        assert router.best_route(P1).neighbor == "a"

    def test_withdrawal_falls_back_to_next_best(self):
        router = make_router()
        router.receive_announcement("cust", announce([200]))
        router.receive_announcement("prov", announce([400]))
        router.receive_withdrawal("cust", Withdrawal(P1))
        assert router.best_route(P1).neighbor == "prov"


class TestExport:
    def test_prepends_own_asn(self):
        router = make_router()
        router.receive_announcement("cust", announce([200]))
        exports = router.exports_for("peer")
        assert exports[P1].attributes.as_path.asns == (100, 200)

    def test_valley_free_blocks_provider_routes_to_peers(self):
        router = make_router()
        router.receive_announcement("prov", announce([400]))
        assert P1 not in router.exports_for("peer")
        assert P1 in router.exports_for("cust")

    def test_split_horizon(self):
        router = make_router()
        router.receive_announcement("cust", announce([200]))
        assert P1 not in router.exports_for("cust")

    def test_origination_exports_everywhere(self):
        router = make_router()
        router.originate(P1)
        for neighbor in ("cust", "peer", "prov"):
            assert P1 in router.exports_for(neighbor)

    def test_origination_supersedes_learned_route(self):
        router = make_router()
        router.receive_announcement("prov", announce([400, 9]))
        router.originate(P1)
        exports = router.exports_for("peer")
        assert exports[P1].attributes.as_path.asns == (100,)

    def test_local_pref_not_leaked_across_ebgp(self):
        router = make_router()
        router.receive_announcement("cust", announce([200]))
        assert router.exports_for("peer")[P1].attributes.local_pref == 100

    def test_private_asn_stripped_on_export(self):
        router = make_router()
        router.receive_announcement("cust", announce([64512, 64513]))
        exports = router.exports_for("peer")
        assert exports[P1].attributes.as_path.asns == (100,)

    def test_private_asn_kept_when_stripping_disabled(self):
        router = BgpRouter("r", 100, strip_private_on_export=False)
        router.add_neighbor("cust", 64512, Relationship.CUSTOMER)
        router.add_neighbor("peer", 300, Relationship.PEER)
        router.receive_announcement("cust", announce([64512]))
        exports = router.exports_for("peer")
        assert exports[P1].attributes.as_path.asns == (100, 64512)

    def test_no_export_to_community_honored(self):
        router = make_router()
        attrs = RouteAttributes(as_path=AsPath((200,))).add_communities(
            large=[no_export_to(100, 300)]
        )
        router.receive_announcement(
            "cust", Announcement(prefix=P1, attributes=attrs)
        )
        assert P1 not in router.exports_for("peer")  # peer asn is 300
        assert P1 in router.exports_for("prov")

    def test_prepend_community_honored(self):
        router = make_router()
        attrs = RouteAttributes(as_path=AsPath((200,))).add_communities(
            large=[LargeCommunity(100, ACTION_PREPEND_TO + 2, 300)]
        )
        router.receive_announcement(
            "cust", Announcement(prefix=P1, attributes=attrs)
        )
        exports = router.exports_for("peer")
        assert exports[P1].attributes.as_path.asns == (100, 100, 100, 200)

    def test_communities_carried_transitively(self):
        router = make_router()
        community = no_export_to(999, 300)  # addressed to another AS
        attrs = RouteAttributes(as_path=AsPath((200,))).add_communities(
            large=[community]
        )
        router.receive_announcement(
            "cust", Announcement(prefix=P1, attributes=attrs)
        )
        exports = router.exports_for("peer")
        assert community in exports[P1].attributes.large_communities

    def test_export_policy_can_filter(self):
        router = make_router()
        router.originate(P1)
        router.export_policies.append(lambda n, p, a: n != "peer")
        assert P1 not in router.exports_for("peer")
        assert P1 in router.exports_for("cust")

    def test_poisoned_origination_includes_targets(self):
        from repro.bgp.poisoning import poisoned_attributes

        router = make_router()
        router.originate(P1, poisoned_attributes([666]))
        exports = router.exports_for("cust")
        assert exports[P1].attributes.as_path.asns == (100, 666)


class TestRejectedUpdateReplacesPredecessor:
    """Regression: an UPDATE rejected by loop detection or import policy
    implicitly withdraws the neighbor's earlier accepted route — the
    Loc-RIB must not keep forwarding on the stale entry."""

    def test_loop_rejected_update_clears_stale_best(self):
        router = make_router()
        router.receive_announcement("prov", announce([400, 7]))
        assert router.best_route(P1) is not None
        # The neighbor's route changes to one containing our ASN.
        router.receive_announcement("prov", announce([400, 100, 7]))
        assert router.best_route(P1) is None

    def test_policy_rejected_update_clears_stale_best(self):
        router = make_router()
        router.receive_announcement("prov", announce([400, 7]))
        router.import_policies.append(
            lambda n, p, a: a.as_path.length < 3
        )
        router.receive_announcement("prov", announce([400, 7, 8, 9]))
        assert router.best_route(P1) is None

    def test_fallback_to_other_neighbor_after_rejection(self):
        router = make_router()
        router.receive_announcement("prov", announce([400, 7]))
        router.receive_announcement("peer", announce([300, 7, 8]))
        assert router.best_route(P1).neighbor == "peer"  # higher pref
        router.receive_announcement("peer", announce([300, 100, 7]))
        assert router.best_route(P1).neighbor == "prov"
