"""Tests for topology construction and convergence."""

import math

import pytest

from repro.bgp.attributes import RouteAttributes
from repro.bgp.communities import no_export_to
from repro.bgp.network import BgpNetwork
from repro.bgp.poisoning import poisoned_attributes
from repro.bgp.policy import Relationship
from repro.bgp.router import BgpRouter
from repro.bgp.snapshot import SnapshotCache
from tests.bgp.oracle import full_scan
from tests.bgp.test_golden_ribs import dump_network

P = "2001:db8:1::/48"


def linear_chain():
    """stub -- provider -- transit (stub originates)."""
    net = BgpNetwork()
    net.add_router(BgpRouter("stub", 65001))
    net.add_router(BgpRouter("provider", 100))
    net.add_router(BgpRouter("transit", 200))
    net.add_provider("stub", "provider")
    net.add_provider("provider", "transit")
    return net


def diamond():
    """origin -- {left, right} -- sink: two provider paths."""
    net = BgpNetwork()
    for name, asn in (
        ("origin", 65001),
        ("left", 100),
        ("right", 200),
        ("sink", 65002),
    ):
        net.add_router(BgpRouter(name, asn))
    net.add_provider("origin", "left", customer_preference=1)
    net.add_provider("origin", "right", customer_preference=2)
    net.add_provider("sink", "left", customer_preference=1)
    net.add_provider("sink", "right", customer_preference=2)
    return net


class TestConstruction:
    def test_duplicate_router_rejected(self):
        net = BgpNetwork()
        net.add_router(BgpRouter("a", 1))
        with pytest.raises(ValueError):
            net.add_router(BgpRouter("a", 2))

    def test_connect_registers_both_sides(self):
        net = linear_chain()
        assert "provider" in net.router("stub").neighbors
        assert "stub" in net.router("provider").neighbors
        rel = net.router("provider").neighbors["stub"].relationship
        assert rel.value == "customer"

    def test_unknown_router_lookup(self):
        with pytest.raises(KeyError):
            BgpNetwork().router("ghost")

    @pytest.mark.parametrize(
        "a, b, error",
        [
            ("stub", "stub", ValueError),  # self-session
            ("stub", "provider", ValueError),  # duplicate
            ("provider", "stub", ValueError),  # duplicate, other way round
            ("stub", "ghost", KeyError),  # unknown name
            ("ghost", "stub", KeyError),
        ],
    )
    def test_rejected_connect_leaves_no_state_behind(self, a, b, error):
        net = linear_chain()
        net.router("stub").originate(P)
        net.converge()

        def state():
            neighbors = {n: sorted(r.neighbors) for n, r in net.routers.items()}
            return net.session_pairs(), neighbors, dump_network(net)

        before = state()
        with pytest.raises(error, match=f"{a}|{b}"):
            net.connect(a, b, Relationship.PEER)
        assert state() == before
        # ...and nothing was queued either: the next origination costs
        # exactly what it would have (one update per router upstream).
        net.router("stub").originate("2001:db8:2::/48")
        net.converge()
        assert net.updates_delivered == 4
        assert net.router("stub").adj_rib_out.prefixes_to("stub") == set()


class TestPropagation:
    def test_origination_reaches_everyone_upstream(self):
        net = linear_chain()
        net.router("stub").originate(P)
        net.converge()
        assert net.best_path("provider", P).asns == (65001,)
        # 65001 is an RFC 6996 private ASN: the provider strips it on
        # export, exactly as Vultr does for its BGP tenants.
        assert net.best_path("transit", P).asns == (100,)

    def test_withdrawal_propagates(self):
        net = linear_chain()
        net.router("stub").originate(P)
        net.converge()
        net.router("stub").withdraw_origination(P)
        net.converge()
        assert not net.reachable("transit", P)
        assert not net.reachable("provider", P)

    def test_diamond_prefers_operator_choice(self):
        net = diamond()
        net.router("origin").originate(P)
        net.converge()
        assert net.best_path("sink", P).asns == (100,)

    def test_suppression_shifts_to_alternate(self):
        net = diamond()
        origin = net.router("origin")
        origin.originate(P)
        net.converge()
        # Suppress the left provider's export path via community.
        # The community targets *origin's provider* relationship: tell
        # left (asn 100) not to export to sink?  In the diamond, origin
        # itself attaches no-export for its own session: model Vultr by
        # having origin tell provider-left nothing; instead re-originate
        # suppressing left at the origin side.
        origin.originate(
            P,
            RouteAttributes().add_communities(large=[no_export_to(100, 65002)]),
        )
        net.converge()
        assert net.best_path("sink", P).asns == (200,)

    def test_convergence_is_idempotent(self):
        net = diamond()
        net.router("origin").originate(P)
        net.converge()
        assert net.converge() == 1  # nothing changes in the first wave

    def test_valley_free_blocks_peer_transit(self):
        """A route learned from one peer never reaches another peer."""
        net = BgpNetwork()
        for name, asn in (("a", 1), ("b", 2), ("c", 3)):
            net.add_router(BgpRouter(name, asn))
        net.add_peering("a", "b")
        net.add_peering("b", "c")
        net.router("a").originate(P)
        net.converge()
        assert net.reachable("b", P)
        assert not net.reachable("c", P)

    def test_poisoned_announcement_avoids_target(self):
        net = diamond()
        # Poison the left provider: it must drop the route.
        net.router("origin").originate(P, poisoned_attributes([100]))
        net.converge()
        assert net.best_path("sink", P).asns == (200, 100)


class TestSharedAsn:
    def test_allowas_in_pair_hears_each_other(self):
        """Two routers with the same ASN (the two Vultr DCs) exchange
        tenant prefixes across the core thanks to allowas-in."""
        net = BgpNetwork()
        net.add_router(BgpRouter("dc1", 20473, allowas_in=True))
        net.add_router(BgpRouter("dc2", 20473, allowas_in=True))
        net.add_router(BgpRouter("transit", 2914))
        net.add_provider("dc1", "transit")
        net.add_provider("dc2", "transit")
        net.router("dc1").originate(P)
        net.converge()
        assert net.best_path("dc2", P).asns == (2914, 20473)

    def test_without_allowas_in_the_route_is_dropped(self):
        net = BgpNetwork()
        net.add_router(BgpRouter("dc1", 20473))
        net.add_router(BgpRouter("dc2", 20473))
        net.add_router(BgpRouter("transit", 2914))
        net.add_provider("dc1", "transit")
        net.add_provider("dc2", "transit")
        net.router("dc1").originate(P)
        net.converge()
        assert not net.reachable("dc2", P)


class TestDisconnect:
    def test_disconnect_withdraws_routes(self):
        net = diamond()
        net.router("origin").originate(P)
        net.converge()
        assert net.best_path("sink", P).asns == (100,)
        net.disconnect("origin", "left")
        net.converge()
        assert net.best_path("sink", P).asns == (200,)

    def test_disconnect_unknown_session_raises(self):
        net = diamond()
        with pytest.raises(KeyError, match="no session"):
            net.disconnect("origin", "sink")

    def test_reconnect_restores(self):
        from repro.bgp.policy import Relationship

        net = diamond()
        net.router("origin").originate(P)
        net.converge()
        net.disconnect("origin", "left")
        net.converge()
        net.connect("origin", "left", Relationship.PROVIDER, a_preference=1)
        net.converge()
        assert net.best_path("sink", P).asns == (100,)


class TestSessionConfig:
    def test_roundtrip_in_connect_orientation(self):
        from repro.bgp.policy import Relationship

        net = diamond()
        config = net.session_config("origin", "left")
        assert config == ("origin", "left", Relationship.PROVIDER, 1, None)

    def test_reversed_lookup_normalizes_to_connect_orientation(self):
        net = diamond()
        assert net.session_config("left", "origin") == net.session_config(
            "origin", "left"
        )

    def test_unknown_session_raises(self):
        net = diamond()
        with pytest.raises(KeyError, match="no session"):
            net.session_config("origin", "sink")

    def test_splat_reconnects_identically(self):
        net = diamond()
        net.router("origin").originate(P)
        net.converge()
        config = net.session_config("origin", "left")
        net.disconnect("origin", "left")
        net.converge()
        net.connect(*config)
        net.converge()
        assert net.best_path("sink", P).asns == (100,)
        assert net.session_config("origin", "left") == config


class TestResetSession:
    def test_reset_restores_routing(self):
        net = diamond()
        net.router("origin").originate(P)
        net.converge()
        before = net.best_path("sink", P).asns
        down_rounds, up_rounds = net.reset_session("origin", "left")
        assert down_rounds >= 1 and up_rounds >= 1
        assert net.best_path("sink", P).asns == before

    def test_reset_unknown_session_raises(self):
        net = diamond()
        with pytest.raises(KeyError, match="no session"):
            net.reset_session("origin", "sink")


class TestResetSessionEngines:
    """reset_session reports how far each ripple travelled, not
    full-scan rounds; the full scan is the oracle (tests/bgp/oracle.py)."""

    @staticmethod
    def _vultr_with_routes():
        from repro.scenarios.vultr import build_bgp_network

        net = build_bgp_network()
        net.router("tango-la").originate("2001:db8:a0::/48")
        net.router("tango-ny").originate("2001:db8:b0::/48")
        net.converge()
        return net

    def test_incremental_counts_are_accurate_waves(self):
        with full_scan():
            legacy = self._vultr_with_routes()
            legacy_down, legacy_up = legacy.reset_session("vultr-ny", "ntt")
        incremental = self._vultr_with_routes()
        incr_down, incr_up = incremental.reset_session("vultr-ny", "ntt")
        # Both engines count real waves plus the fixpoint-verification
        # wave, so a reset that moved routes reports at least 2.
        assert legacy_down >= 2 and legacy_up >= 2
        assert incr_down >= 2 and incr_up >= 2
        # The incremental count is hop-accurate: one wave per ripple
        # hop.  A legacy round can collapse several hops when router
        # insertion order happens to align with the topology (a message
        # delivered to a later-scanned router is processed in the same
        # round), so the counts may differ by the collapsed hops — but
        # never by more than the ripple depth itself.
        assert abs(incr_down - legacy_down) <= legacy_down
        assert abs(incr_up - legacy_up) <= legacy_up
        assert (incr_down, incr_up) == (4, 5)  # pinned: hop-accurate depth

    def test_engines_agree_on_post_reset_routes(self):
        with full_scan():
            legacy = self._vultr_with_routes()
            legacy.reset_session("vultr-ny", "ntt")
        incremental = self._vultr_with_routes()
        incremental.reset_session("vultr-ny", "ntt")
        for name in sorted(legacy.routers):
            assert (
                legacy.routers[name].loc_rib.snapshot()
                == incremental.routers[name].loc_rib.snapshot()
            ), name

    def test_reset_on_incremental_engine_restores_reachability(self):
        net = self._vultr_with_routes()
        before = net.best_path("tango-ny", "2001:db8:a0::/48").asns
        down, up = net.reset_session("vultr-la", "ntt")
        assert down >= 1 and up >= 1
        assert net.best_path("tango-ny", "2001:db8:a0::/48").asns == before


class TestMaxRoundsRefused:
    """A wave budget that is not an int >= 1 is refused by name before
    anything moves: NaN would never trip (a dispute wheel would spin
    forever), and 0 or -1 would blame dispute wheels for a network that
    converges."""

    @pytest.mark.parametrize(
        "max_rounds",
        [math.nan, math.inf, 0, -1, 1.5, True, "200", None],
        ids=repr,
    )
    @pytest.mark.parametrize("via", ["network", "snapshot cache"])
    def test_refused_before_anything_moves(self, max_rounds, via):
        net = linear_chain()
        cache = SnapshotCache()
        stub = net.router("stub")
        if via == "snapshot cache":
            # Leave a snapshot of the very state the call would restore.
            stub.originate(P)
            cache.converge(net)
            stub.withdraw_origination(P)
            cache.converge(net)
        stub.originate(P)
        counters = (net.convergence_count, net.total_rounds, net.snapshot_restores)
        stats = (cache.hits, cache.misses, cache.bypasses)
        converge = net.converge if via == "network" else (
            lambda max_rounds: cache.converge(net, max_rounds)
        )
        with pytest.raises(ValueError, match="^max_rounds must be an int >= 1"):
            converge(max_rounds=max_rounds)
        assert (
            net.convergence_count, net.total_rounds, net.snapshot_restores
        ) == counters
        assert (cache.hits, cache.misses, cache.bypasses) == stats
        assert not net.reachable("transit", P)
        # The refused call left the pending work queued.
        converge(max_rounds=200)
        assert net.reachable("transit", P)

    def test_one_wave_budget_is_enough_for_a_converged_network(self):
        net = linear_chain()
        net.converge()
        assert net.converge(max_rounds=1) == 1
