"""Tests for iterative suppression-based path discovery.

These run on the real Vultr control-plane topology, so they double as the
Figure 3 reproduction at unit granularity.
"""

import pytest

from repro.bgp.communities import no_export_to
from repro.core.discovery import PathDiscovery, asn_label
from repro.scenarios.vultr import VULTR_ASN, build_bgp_network

PROBE = "2001:db8:f0::/48"


@pytest.fixture()
def network():
    return build_bgp_network()


def discover(network, announcer, observer, **kwargs):
    return PathDiscovery(network, VULTR_ASN).discover(
        announcer=announcer, observer=observer, probe_prefix=PROBE, **kwargs
    )


class TestVultrDiscovery:
    def test_ny_to_la_paths_match_paper(self, network):
        """Fig. 3 / Section 4.1: NY→LA rides NTT, Telia, GTT, Level3."""
        result = discover(network, announcer="tango-la", observer="tango-ny")
        assert [p.short_label for p in result.paths] == [
            "NTT",
            "Telia",
            "GTT",
            "Level3",
        ]

    def test_la_to_ny_paths_match_paper(self, network):
        """LA→NY rides NTT, Telia, GTT, then NTT+Cogent."""
        result = discover(network, announcer="tango-ny", observer="tango-la")
        assert [p.label for p in result.paths] == [
            "NTT",
            "Telia",
            "GTT",
            "NTT Cogent",
        ]

    def test_default_path_is_ntt(self, network):
        result = discover(network, announcer="tango-la", observer="tango-ny")
        default = result.paths[0]  # what BGP uses with no intervention
        assert default.short_label == "NTT" and default.index == 0

    def test_discovery_order_matches_provider_preference(self, network):
        """Paths appear in the provider's preference order, because each
        round suppresses the currently most-preferred export."""
        result = discover(network, announcer="tango-la", observer="tango-ny")
        assert [p.index for p in result.paths] == [0, 1, 2, 3]

    def test_community_sets_grow_monotonically(self, network):
        result = discover(network, announcer="tango-la", observer="tango-ny")
        sizes = [len(p.communities) for p in result.paths]
        assert sizes == [0, 1, 2, 3]
        for earlier, later in zip(result.paths, result.paths[1:]):
            assert earlier.communities < later.communities

    def test_recorded_communities_pin_the_path(self, network):
        """Announcing the probe with path i's recorded communities makes
        the observer's best route exactly path i — the property tunnels
        rely on."""
        from repro.bgp.attributes import RouteAttributes

        result = discover(network, announcer="tango-la", observer="tango-ny")
        third = result.paths[2]  # GTT
        network.router("tango-la").originate(
            PROBE, RouteAttributes().add_communities(large=third.communities)
        )
        network.converge()
        best = network.router("tango-ny").best_path(PROBE)
        view = best.without(VULTR_ASN).strip_private()
        assert view.asns == third.transit_asns

    def test_probe_prefix_withdrawn_after_discovery(self, network):
        discover(network, announcer="tango-la", observer="tango-ny")
        assert not network.reachable("tango-ny", PROBE)

    def test_max_paths_truncates(self, network):
        result = discover(
            network, announcer="tango-la", observer="tango-ny", max_paths=2
        )
        assert result.path_count == 2

    def test_expected_suppression_targets(self, network):
        """Each round suppressed the transit adjacent to the announcer."""
        result = discover(network, announcer="tango-la", observer="tango-ny")
        last = result.paths[-1]
        expected = {
            no_export_to(VULTR_ASN, 2914),
            no_export_to(VULTR_ASN, 1299),
            no_export_to(VULTR_ASN, 3257),
        }
        assert set(last.communities) == expected

    def test_convergence_waves_counted(self, network):
        result = discover(network, announcer="tango-la", observer="tango-ny")
        assert result.convergence_waves > 0

    def test_discovery_is_repeatable(self, network):
        first = discover(network, announcer="tango-la", observer="tango-ny")
        second = discover(network, announcer="tango-la", observer="tango-ny")
        assert [p.label for p in first.paths] == [p.label for p in second.paths]

    def test_both_directions_independent(self, network):
        """Running one direction leaves the other's results unchanged."""
        ab = discover(network, announcer="tango-la", observer="tango-ny")
        ba = discover(network, announcer="tango-ny", observer="tango-la")
        assert ab.path_count == 4
        assert ba.path_count == 4
        assert ab.labels() != ba.labels()  # 4th hop differs per direction


class TestLabels:
    def test_known_asns_named(self):
        assert asn_label(2914) == "NTT"
        assert asn_label(3356) == "Level3"

    def test_unknown_asn_rendered_numeric(self):
        assert asn_label(65000) == "AS65000"

    def test_result_labels_helper(self, network):
        result = discover(network, announcer="tango-la", observer="tango-ny")
        assert result.labels()[0] == "NTT"


class TestPoisoningMethod:
    def test_poisoning_finds_fewer_paths(self, network):
        """Section 6's AS-path-poisoning knob works without provider
        support but kills the target everywhere: the fourth path
        (NTT+Level3 / NTT+Cogent) re-traverses poisoned NTT and is
        lost — a structural limitation communities do not have."""
        discovery = PathDiscovery(network, VULTR_ASN)
        communities = discovery.discover(
            announcer="tango-la", observer="tango-ny", probe_prefix=PROBE
        )
        poisoning = discovery.discover(
            announcer="tango-la",
            observer="tango-ny",
            probe_prefix=PROBE,
            method="poisoning",
        )
        assert [p.short_label for p in poisoning.paths] == [
            "NTT",
            "Telia",
            "GTT",
        ]
        assert poisoning.path_count < communities.path_count

    def test_poisoned_asns_recorded_per_path(self, network):
        result = PathDiscovery(network, VULTR_ASN).discover(
            announcer="tango-la",
            observer="tango-ny",
            probe_prefix=PROBE,
            method="poisoning",
        )
        assert [p.poisoned_asns for p in result.paths] == [
            (),
            (2914,),
            (2914, 1299),
        ]
        assert all(not p.communities for p in result.paths)

    def test_unknown_method_rejected(self, network):
        with pytest.raises(ValueError, match="method"):
            PathDiscovery(network, VULTR_ASN).discover(
                announcer="tango-la",
                observer="tango-ny",
                probe_prefix=PROBE,
                method="magic",
            )
