"""Semantic Gao–Rexford checks: leaks, valleys, cycles, communities."""

from repro.bgp.attributes import LargeCommunity
from repro.bgp.communities import (
    ACTION_NO_EXPORT_ALL,
    ACTION_NO_EXPORT_TO,
    ACTION_PREPEND_TO,
)
from repro.bgp.network import BgpNetwork
from repro.bgp.policy import Relationship
from repro.bgp.router import BgpRouter
from repro.lint import (
    check_communities,
    check_network,
    check_scenario,
    leak_witness,
    valley_free_reachable,
)
from repro.scenarios.shipped import shipped_deployments

C, P, R = Relationship.CUSTOMER, Relationship.PEER, Relationship.PROVIDER


def star(*names_and_asns) -> BgpNetwork:
    net = BgpNetwork()
    for name, asn in names_and_asns:
        net.add_router(BgpRouter(name, asn))
    return net


def leaky_network() -> BgpNetwork:
    """upstream --provider--> leaker --?--> victim, with the leaker and
    victim disagreeing about their session: the leaker thinks the victim
    is its customer (so provider routes flow to it), the victim thinks
    the session is settlement-free peering.  That asymmetry is exactly a
    transit leak; :meth:`BgpNetwork.connect` cannot express it, so the
    sessions are wired directly."""
    net = star(("upstream", 100), ("leaker", 200), ("victim", 300))
    net.router("leaker").add_neighbor("upstream", 100, R)
    net.router("upstream").add_neighbor("leaker", 200, C)
    net.router("leaker").add_neighbor("victim", 300, C)
    net.router("victim").add_neighbor("leaker", 200, P)
    return net


class TestTransitLeak:
    def test_leaky_topology_rejected_with_path_witness(self):
        findings = check_network(leaky_network(), scenario="leaky")
        assert [f.code for f in findings] == ["TNG101"]
        message = findings[0].message
        # The explanation must spell out the concrete leaked path and why
        # it is a valley, not just flag the session.
        assert "upstream -> leaker -> victim" in message
        assert "provider-learned" in message
        assert "valley" in message
        assert findings[0].path == "scenario:leaky"

    def test_leak_witness_none_for_consistent_session(self):
        net = star(("a", 1), ("b", 2))
        net.add_provider("a", "b")
        assert leak_witness(net, "a", "b") is None
        assert leak_witness(net, "b", "a") is None

    def test_half_open_session_flagged(self):
        net = star(("a", 1), ("b", 2))
        net.router("a").add_neighbor("b", 2, R)
        findings = check_network(net)
        assert [f.code for f in findings] == ["TNG101"]
        assert "half-open" in findings[0].message

    def test_session_to_unknown_router_flagged(self):
        net = star(("a", 1))
        net.router("a").add_neighbor("ghost", 9, R)
        findings = check_network(net)
        assert [f.code for f in findings] == ["TNG101"]
        assert "ghost" in findings[0].message


class TestValleyFree:
    def build_chain(self) -> BgpNetwork:
        # t1 -> core1 (provider), core1 ~ core2 (peer), core2 -> t2
        net = star(("t1", 1), ("core1", 10), ("core2", 20), ("t2", 2))
        net.add_provider("t1", "core1")
        net.add_peering("core1", "core2")
        net.add_provider("t2", "core2")
        return net

    def test_one_peer_crossing_is_reachable(self):
        net = self.build_chain()
        assert "t2" in valley_free_reachable(net, "t1")
        assert check_network(net, edges=("t1", "t2")) == []

    def test_two_peer_crossings_are_a_valley(self):
        # t1 -> core1 ~ core2 ~ core3 <- t2: needs two peer hops.
        net = star(
            ("t1", 1), ("core1", 10), ("core2", 20), ("core3", 30), ("t2", 2)
        )
        net.add_provider("t1", "core1")
        net.add_peering("core1", "core2")
        net.add_peering("core2", "core3")
        net.add_provider("t2", "core3")
        assert "t2" not in valley_free_reachable(net, "t1")
        findings = check_network(net, edges=("t1", "t2"))
        assert {f.code for f in findings} == {"TNG102"}
        assert len(findings) == 2  # neither direction establishes

    def test_shared_provider_reaches_both_customers(self):
        net = star(("t1", 1), ("core", 10), ("t2", 2))
        net.add_provider("t1", "core")
        net.add_provider("t2", "core")
        assert check_network(net, edges=("t1", "t2")) == []


class TestProviderCycles:
    def test_cycle_detected(self):
        net = star(("a", 1), ("b", 2), ("c", 3))
        net.add_provider("a", "b")
        net.add_provider("b", "c")
        net.add_provider("c", "a")  # a is transitively its own provider
        findings = check_network(net)
        assert [f.code for f in findings] == ["TNG103"]
        assert "cycle" in findings[0].message

    def test_diamond_without_cycle_clean(self):
        net = star(("a", 1), ("b", 2), ("c", 3), ("d", 4))
        net.add_provider("a", "b")
        net.add_provider("a", "c")
        net.add_provider("b", "d")
        net.add_provider("c", "d")
        assert check_network(net) == []


class TestCommunities:
    def build(self) -> BgpNetwork:
        net = star(("provider", 100), ("tenant", 64512), ("peer", 300))
        net.add_provider("tenant", "provider")
        net.add_peering("provider", "peer")
        return net

    def test_valid_actions_clean(self):
        net = self.build()
        good = [
            LargeCommunity(100, ACTION_NO_EXPORT_ALL, 0),
            LargeCommunity(100, ACTION_NO_EXPORT_TO, 300),
            LargeCommunity(100, ACTION_PREPEND_TO + 1, 300),
        ]
        assert check_communities(net, good) == []

    def test_unknown_admin_flagged(self):
        findings = check_communities(
            self.build(), [LargeCommunity(555, ACTION_NO_EXPORT_ALL, 0)]
        )
        assert [f.code for f in findings] == ["TNG104"]
        assert "AS555" in findings[0].message

    def test_unknown_action_code_flagged(self):
        findings = check_communities(
            self.build(), [LargeCommunity(100, 4242, 300)]
        )
        assert [f.code for f in findings] == ["TNG104"]
        assert "unknown action" in findings[0].message

    def test_target_not_a_neighbor_flagged(self):
        findings = check_communities(
            self.build(), [LargeCommunity(100, ACTION_NO_EXPORT_TO, 999)]
        )
        assert [f.code for f in findings] == ["TNG104"]
        assert "never fire" in findings[0].message


class TestShippedScenarios:
    def test_every_shipped_scenario_validates_clean(self):
        # Established: the pinned route prefixes' communities are live.
        for deployment in shipped_deployments():
            assert check_scenario(deployment) == [], deployment.shape().name
