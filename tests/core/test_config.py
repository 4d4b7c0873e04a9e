"""Tests for Tango static configuration."""

import ipaddress

import pytest

from repro.core.config import EdgeConfig, PairingConfig


def edge(name="ny", host="2001:db8:20::/48", routes=None, **kwargs):
    if routes is None:
        routes = ("2001:db8:b0::/48", "2001:db8:b1::/48")
    return EdgeConfig(
        name=name,
        tenant_router=f"tango-{name}",
        tenant_asn=64512,
        provider_router=f"vultr-{name}",
        provider_asn=20473,
        host_prefix=ipaddress.IPv6Network(host),
        route_prefixes=tuple(ipaddress.IPv6Network(r) for r in routes),
        **kwargs,
    )


class TestEdgeConfig:
    def test_requires_route_prefixes(self):
        with pytest.raises(ValueError, match="at least one route prefix"):
            edge(routes=())

    def test_route_prefix_must_not_overlap_host(self):
        """Prefixes-as-routes must stay disjoint from host addressing."""
        with pytest.raises(ValueError, match="overlap"):
            edge(host="2001:db8:b0::/48")

    def test_host_address_indexing(self):
        cfg = edge()
        assert str(cfg.host_address(1)) == "2001:db8:20::1"
        assert str(cfg.host_address(5)) == "2001:db8:20::5"

    def test_tunnel_endpoint_convention(self):
        cfg = edge()
        assert str(cfg.tunnel_endpoint(0)) == "2001:db8:b0::1"
        assert str(cfg.tunnel_endpoint(1)) == "2001:db8:b1::1"


class TestPairingConfig:
    def test_valid_pairing(self):
        pairing = PairingConfig(a=edge("ny"), b=edge("la", host="2001:db8:10::/48",
                                                      routes=("2001:db8:a0::/48",)))
        assert pairing.peer_of("ny").name == "la"
        assert pairing.peer_of("la").name == "ny"
        assert pairing.edge("ny").name == "ny"

    def test_same_edge_twice_rejected(self):
        with pytest.raises(ValueError, match="distinct"):
            PairingConfig(a=edge("ny"), b=edge("ny"))

    def test_unknown_edge_lookup(self):
        pairing = PairingConfig(a=edge("ny"), b=edge("la", host="2001:db8:10::/48",
                                                      routes=("2001:db8:a0::/48",)))
        with pytest.raises(KeyError):
            pairing.peer_of("tokyo")
        with pytest.raises(KeyError):
            pairing.edge("tokyo")

    def test_interval_validation(self):
        with pytest.raises(ValueError, match="probe_interval_s"):
            PairingConfig(
                a=edge("ny"),
                b=edge("la", host="2001:db8:10::/48", routes=("2001:db8:a0::/48",)),
                probe_interval_s=0.0,
            )

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    @pytest.mark.parametrize(
        "field", ["probe_interval_s", "report_interval_s", "control_interval_s"]
    )
    def test_non_finite_interval_rejected_by_name(self, field, value):
        # At the parent the check was ``value <= 0``, which NaN passes.
        with pytest.raises(ValueError, match=f"^{field} must be finite and positive"):
            PairingConfig(
                a=edge("ny"),
                b=edge("la", host="2001:db8:10::/48", routes=("2001:db8:a0::/48",)),
                **{field: value},
            )
