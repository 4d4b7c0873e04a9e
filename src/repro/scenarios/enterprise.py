"""A distributed-enterprise Tango pairing (paper Section 1).

"...or a distributed enterprise could run Tango between its multiple
locations."  This scenario is that deployment: a factory site behind a
regional access ISP and a headquarters/cloud site behind a business ISP,
an ocean apart.  Unlike the Vultr scenario there is no shared provider
ASN and no allowas-in trick — the two sites are ordinary single-homed
customers of *different* providers, which is exactly the Figure 1
situation the paper's motivation starts from.

Both providers buy transit from the same three backbones (NTT, Telia,
Cogent), so discovery exposes three paths per direction; delays are
transatlantic-scale (~80 ms) with one congested path, making the
adaptive-policy gains proportionally larger than in the domestic Vultr
setup.

The scenario demonstrates that nothing in the stack is Vultr-specific:
the same :class:`~repro.scenarios.deployment.PacketLevelDeployment`
machinery drives it end to end.
"""

from __future__ import annotations

import ipaddress

from ..bgp.messages import as_ipv6_prefix
from ..bgp.network import BgpNetwork
from ..bgp.router import BgpRouter
from ..core.config import EdgeConfig, PairingConfig
from .deployment import PacketLevelDeployment
from .vultr import PathCalibration

__all__ = [
    "ACCESS_ISP_ASN",
    "BUSINESS_ISP_ASN",
    "FACTORY_TO_HQ_PATHS",
    "HQ_TO_FACTORY_PATHS",
    "build_enterprise_bgp",
    "make_enterprise_pairing",
    "EnterpriseDeployment",
]

ACCESS_ISP_ASN = 7018  # the factory's regional access provider
BUSINESS_ISP_ASN = 6939  # the HQ's business provider
NTT, TELIA, COGENT = 2914, 1299, 174
FACTORY_ASN, HQ_ASN = 64600, 64601

#: Factory → HQ: Telia is fastest; the default (NTT) is mildly congested
#: with a diurnal swell; Cogent is slow and noisy.
FACTORY_TO_HQ_PATHS: dict[str, PathCalibration] = {
    "NTT": PathCalibration(
        "NTT", base_ms=88.0, sigma_ms=0.4, diurnal_ms=4.0, seed=41
    ),
    "Telia": PathCalibration(
        "Telia", base_ms=79.5, sigma_ms=0.2, diurnal_ms=1.0, seed=42
    ),
    "Cogent": PathCalibration(
        "Cogent",
        base_ms=97.0,
        sigma_ms=1.1,
        diurnal_ms=3.0,
        seed=43,
        background_spikes=True,
    ),
}

#: HQ → factory: same ranking, slightly different absolute delays
#: (asymmetric routing is the norm, not the exception).
HQ_TO_FACTORY_PATHS: dict[str, PathCalibration] = {
    "NTT": PathCalibration(
        "NTT", base_ms=90.5, sigma_ms=0.5, diurnal_ms=3.5, seed=51
    ),
    "Telia": PathCalibration(
        "Telia", base_ms=80.2, sigma_ms=0.25, diurnal_ms=0.8, seed=52
    ),
    "Cogent": PathCalibration(
        "Cogent",
        base_ms=95.0,
        sigma_ms=0.9,
        diurnal_ms=2.5,
        seed=53,
        background_spikes=True,
    ),
}


def build_enterprise_bgp() -> BgpNetwork:
    """Two single-homed sites behind different providers, shared core."""
    net = BgpNetwork()
    for name, asn in (("ntt", NTT), ("telia", TELIA), ("cogent", COGENT)):
        net.add_router(BgpRouter(name, asn))
    net.add_peering("ntt", "telia")
    net.add_peering("ntt", "cogent")
    net.add_peering("telia", "cogent")
    net.add_router(BgpRouter("access-isp", ACCESS_ISP_ASN))
    net.add_router(BgpRouter("business-isp", BUSINESS_ISP_ASN))
    net.add_router(BgpRouter("tango-factory", FACTORY_ASN))
    net.add_router(BgpRouter("tango-hq", HQ_ASN))
    for provider, preference in (("ntt", 1), ("telia", 2), ("cogent", 3)):
        net.add_provider("access-isp", provider, customer_preference=preference)
        net.add_provider("business-isp", provider, customer_preference=preference)
    net.add_provider("tango-factory", "access-isp")
    net.add_provider("tango-hq", "business-isp")
    return net


def _prefix(index: int) -> ipaddress.IPv6Network:
    return as_ipv6_prefix(f"2001:db8:e{index:03x}::/48")


def make_enterprise_pairing(
    probe_interval_s: float = 0.010, report_interval_s: float = 0.100
) -> PairingConfig:
    factory = EdgeConfig(
        name="factory",
        tenant_router="tango-factory",
        tenant_asn=FACTORY_ASN,
        provider_router="access-isp",
        provider_asn=ACCESS_ISP_ASN,
        host_prefix=_prefix(0x010),
        route_prefixes=tuple(_prefix(0x100 + i) for i in range(3)),
        clock_offset_s=0.0071,
    )
    hq = EdgeConfig(
        name="hq",
        tenant_router="tango-hq",
        tenant_asn=HQ_ASN,
        provider_router="business-isp",
        provider_asn=BUSINESS_ISP_ASN,
        host_prefix=_prefix(0x020),
        route_prefixes=tuple(_prefix(0x200 + i) for i in range(3)),
        clock_offset_s=-0.0024,
    )
    return PairingConfig(
        a=factory,
        b=hq,
        probe_interval_s=probe_interval_s,
        report_interval_s=report_interval_s,
    )


class EnterpriseDeployment(PacketLevelDeployment):
    """Factory↔HQ pairing on the generic deployment machinery.

    Establishment runs *each site's own provider's* discovery: the
    factory edge attaches communities interpreted by AS 7018, the HQ
    edge by AS 6939 — nothing assumes a shared provider.
    """

    name = "enterprise"

    def __init__(
        self,
        include_events: bool = True,
        probe_interval_s: float = 0.010,
        report_interval_s: float = 0.100,
    ) -> None:
        super().__init__(
            pairing=make_enterprise_pairing(probe_interval_s, report_interval_s),
            bgp=build_enterprise_bgp(),
            calibrations={
                "factory": FACTORY_TO_HQ_PATHS,
                "hq": HQ_TO_FACTORY_PATHS,
            },
            include_events=include_events,
        )
