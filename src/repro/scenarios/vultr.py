"""The paper's deployment: Tango between two Vultr datacenters (Section 4).

Control plane
    Two tenant servers (private ASNs, one per DC) speak eBGP with the
    co-located Vultr border router (AS 20473, ``allowas_in`` so the DCs
    hear each other's prefixes across the public core).  Upstream
    connectivity reproduces the paper's discovered path sets:

    * LA providers: NTT, Telia, GTT, Level3 (preference in that order)
    * NY providers: NTT, Telia, GTT, Cogent
    * Peerings: NTT–Cogent, NTT–Level3, Telia–GTT

    which yields exactly the paper's Figure 3: LA→NY traffic can ride
    NTT, Telia, GTT, or NTT+Cogent; NY→LA can ride NTT, Telia, GTT, or
    (NTT+)Level3 — four paths per direction, discovered by the iterative
    suppression algorithm, and nothing after the fourth.

Data plane
    Each discovered path becomes one wide-area link between the two
    border switches, driven by a delay process calibrated to the paper's
    Section 5 numbers (see ``NY_TO_LA_PATHS`` / ``LA_TO_NY_PATHS``):
    the BGP-default path (NTT) averages ≈30% above the best path (GTT);
    GTT in the NY→LA direction suffers the Figure 4 route-change event
    (hour 121.25: +5 ms for ~10 min) and instability window (hour ~47.85:
    ~5 min with spikes to 78 ms against a 28 ms floor); LA→NY jitter is
    0.01 ms on GTT vs 0.33 ms on Telia.

Measurement campaigns
    Short windows run packet-level through the discrete-event simulator.
    Multi-hour/day series use :meth:`VultrDeployment.run_fast_campaign`,
    which samples the *same* delay processes at the probe cadence and
    applies the same clock-offset distortion — it produces exactly the
    series the packet path would record, without simulating 276 million
    packets (asserted equivalent in the test suite).
"""

from __future__ import annotations

import ipaddress
from dataclasses import dataclass
from types import MappingProxyType
from typing import Mapping, Optional

from ..bgp.messages import as_ipv6_prefix
from ..bgp.network import BgpNetwork
from ..bgp.router import BgpRouter
from ..core.config import EdgeConfig, PairingConfig
from ..netsim.delaymodels import (
    CompositeDelay,
    DiurnalVariation,
    GaussianJitterDelay,
    InstabilityEvent,
    RouteChangeEvent,
    SpikeProcess,
)
from ..resilience.channel import ChannelConfig
from ..srlg import Region
from .deployment import PacketLevelDeployment

__all__ = [
    "VULTR_ASN",
    "ROUTE_CHANGE_HOUR",
    "INSTABILITY_HOUR",
    "CAMPAIGN_HOURS",
    "PathCalibration",
    "NY_TO_LA_PATHS",
    "LA_TO_NY_PATHS",
    "VULTR_REGIONS",
    "build_bgp_network",
    "make_pairing",
    "VultrDeployment",
]

VULTR_ASN = 20473
NTT, TELIA, GTT, COGENT, LEVEL3 = 2914, 1299, 3257, 174, 3356
TENANT_LA_ASN, TENANT_NY_ASN = 64512, 64513

#: Figure 4's two narrated events (hours into the 8-day campaign).
ROUTE_CHANGE_HOUR = 121.25
INSTABILITY_HOUR = 47.85
CAMPAIGN_HOURS = 192.0  # eight days

#: Clock offsets of the two border switches (seconds).  Deliberately
#: nonzero and opposite: all measured one-way delays are distorted by a
#: constant ±(offset_la - offset_ny), which relative comparisons cancel.
CLOCK_OFFSET_LA = 0.0032
CLOCK_OFFSET_NY = -0.0013


@dataclass(frozen=True)
class PathCalibration:
    """Calibration of one wide-area path's delay process."""

    label: str
    base_ms: float
    sigma_ms: float
    diurnal_ms: float = 0.0
    seed: int = 0
    with_route_change: bool = False
    with_instability: bool = False
    background_spikes: bool = False
    #: Provisioned bottleneck capacity of the transit path, used by the
    #: fluid traffic engine (repro.traffic) — the packet simulator's
    #: QueuedLink has its own bandwidth parameter and ignores this.
    capacity_bps: float = 10e9
    #: Shared-risk link groups the path's physical infrastructure
    #: traverses (conduits, landing stations, regional power).  Empty
    #: tuple = no annotation; SRLG-aware features stay dormant.
    srlgs: tuple[str, ...] = ()

    def build(self, include_events: bool = True) -> CompositeDelay:
        """Materialize the delay process."""
        components = []
        if self.diurnal_ms > 0:
            components.append(
                DiurnalVariation(
                    amplitude=self.diurnal_ms * 1e-3, phase=self.seed * 0.7
                )
            )
        if self.background_spikes:
            components.append(
                SpikeProcess(
                    rate_per_second=0.02,
                    min_magnitude=1e-3,
                    max_magnitude=6e-3,
                    seed=self.seed + 50,
                )
            )
        events = []
        if include_events and self.with_route_change:
            events.append(
                RouteChangeEvent(
                    start=ROUTE_CHANGE_HOUR * 3600.0,
                    duration=600.0,
                    shift=5e-3,
                    transition=30.0,
                    seed=self.seed + 100,
                )
            )
        if include_events and self.with_instability:
            events.append(
                InstabilityEvent(
                    start=INSTABILITY_HOUR * 3600.0,
                    duration=300.0,
                    spike_probability=0.03,
                    spike_min=10e-3,
                    spike_max=50e-3,
                    minor_max=2e-3,
                    seed=self.seed + 200,
                )
            )
        return CompositeDelay(
            base=GaussianJitterDelay(
                base=self.base_ms * 1e-3, sigma=self.sigma_ms * 1e-3, seed=self.seed
            ),
            components=tuple(components),
            events=tuple(events),
        )


#: Physical failure domains of the deployment.  Telia and GTT exit the
#: LA metro through the same southern-California conduit — the AS-level
#: view says "disjoint", the fiber map says "shared fate" — so the two
#: *fastest* NY→LA paths die together, which is exactly the correlated
#: case E18 gates on.  NTT/Cogent/Level3 ride their own backbones.
SRLG_SOCAL_CONDUIT = "socal-conduit"
SRLG_NTT_BACKBONE = "ntt-backbone"
SRLG_COGENT_BACKBONE = "cogent-backbone"
SRLG_LEVEL3_BACKBONE = "level3-backbone"

#: NY→LA calibration (the direction Figure 4 plots).  NTT is the BGP
#: default; its mean sits ≈30% above GTT's.  GTT carries both events.
NY_TO_LA_PATHS: Mapping[str, PathCalibration] = MappingProxyType({
    "NTT": PathCalibration(
        "NTT",
        base_ms=36.4,
        sigma_ms=0.12,
        diurnal_ms=1.2,
        seed=11,
        capacity_bps=12e9,
        srlgs=(SRLG_NTT_BACKBONE,),
    ),
    "Telia": PathCalibration(
        "Telia",
        base_ms=32.0,
        sigma_ms=0.25,
        diurnal_ms=0.5,
        seed=12,
        capacity_bps=10e9,
        srlgs=(SRLG_SOCAL_CONDUIT,),
    ),
    "GTT": PathCalibration(
        "GTT",
        base_ms=28.05,
        sigma_ms=0.03,
        diurnal_ms=0.3,
        seed=13,
        with_route_change=True,
        with_instability=True,
        capacity_bps=8e9,
        srlgs=(SRLG_SOCAL_CONDUIT,),
    ),
    "Level3": PathCalibration(
        "Level3",
        base_ms=40.2,
        sigma_ms=0.45,
        diurnal_ms=1.5,
        seed=14,
        background_spikes=True,
        capacity_bps=6e9,
        srlgs=(SRLG_LEVEL3_BACKBONE,),
    ),
})

#: LA→NY calibration.  Jitter numbers match the paper's Section 5: GTT's
#: 1-second rolling-window stddev ≈ 0.01 ms, Telia's ≈ 0.33 ms.
#: Both tables are ``MappingProxyType`` so fork-started campaign workers
#: can never see a parent-side mutation of shared calibration state.
LA_TO_NY_PATHS: Mapping[str, PathCalibration] = MappingProxyType({
    "NTT": PathCalibration(
        "NTT",
        base_ms=36.6,
        sigma_ms=0.05,
        diurnal_ms=1.0,
        seed=21,
        capacity_bps=12e9,
        srlgs=(SRLG_NTT_BACKBONE,),
    ),
    "Telia": PathCalibration(
        "Telia",
        base_ms=33.4,
        sigma_ms=0.33,
        diurnal_ms=0.6,
        seed=22,
        capacity_bps=10e9,
        srlgs=(SRLG_SOCAL_CONDUIT,),
    ),
    "GTT": PathCalibration(
        "GTT",
        base_ms=28.3,
        sigma_ms=0.01,
        diurnal_ms=0.2,
        seed=23,
        capacity_bps=8e9,
        srlgs=(SRLG_SOCAL_CONDUIT,),
    ),
    "Cogent": PathCalibration(
        "Cogent",
        base_ms=41.0,
        sigma_ms=0.60,
        diurnal_ms=1.4,
        seed=24,
        background_spikes=True,
        capacity_bps=6e9,
        srlgs=(SRLG_COGENT_BACKBONE,),
    ),
})

#: Edge-network noise (what Tango's border placement avoids but end-host
#: measurements include): wireless retransmissions in the access network,
#: hypervisor scheduling at the cloud.
EDGE_NOISE_BASE_MS = 0.6
EDGE_NOISE_SIGMA_MS = 0.35

#: Regional blast radii: a ``regional_outage`` fault takes a region's
#: risk-group links down *and* disconnects every BGP session of its
#: routers.  "socal" models an LA-metro event hitting the shared conduit
#: plus the Telia/GTT PoPs that terminate it.
VULTR_REGIONS: tuple[Region, ...] = (
    Region(
        "socal",
        routers=("gtt", "telia"),
        groups=(SRLG_SOCAL_CONDUIT,),
    ),
)

def build_bgp_network() -> BgpNetwork:
    """The AS-level control plane of the deployment (Figure 3)."""
    net = BgpNetwork()
    for name, asn in (
        ("ntt", NTT),
        ("telia", TELIA),
        ("gtt", GTT),
        ("cogent", COGENT),
        ("level3", LEVEL3),
    ):
        net.add_router(BgpRouter(name, asn))
    net.add_router(BgpRouter("vultr-la", VULTR_ASN, allowas_in=True))
    net.add_router(BgpRouter("vultr-ny", VULTR_ASN, allowas_in=True))
    net.add_router(BgpRouter("tango-la", TENANT_LA_ASN))
    net.add_router(BgpRouter("tango-ny", TENANT_NY_ASN))

    # Vultr's operator preference: NTT, then Telia, then GTT, then others.
    for provider, preference in (
        ("ntt", 1),
        ("telia", 2),
        ("gtt", 3),
        ("level3", 5),
    ):
        net.add_provider("vultr-la", provider, customer_preference=preference)
    for provider, preference in (
        ("ntt", 1),
        ("telia", 2),
        ("gtt", 3),
        ("cogent", 4),
    ):
        net.add_provider("vultr-ny", provider, customer_preference=preference)
    net.add_peering("ntt", "cogent")
    net.add_peering("ntt", "level3")
    net.add_peering("telia", "gtt")
    net.add_provider("tango-la", "vultr-la")
    net.add_provider("tango-ny", "vultr-ny")
    return net


def _prefix(index: int) -> ipaddress.IPv6Network:
    return as_ipv6_prefix(f"2001:db8:{index:x}::/48")


def make_pairing(
    probe_interval_s: float = 0.010,
    report_interval_s: float = 0.100,
    auth_key: bytes = b"",
) -> PairingConfig:
    """The NY/LA pairing configuration (four route prefixes per edge,
    as in the prototype)."""
    ny = EdgeConfig(
        name="ny",
        tenant_router="tango-ny",
        tenant_asn=TENANT_NY_ASN,
        provider_router="vultr-ny",
        provider_asn=VULTR_ASN,
        host_prefix=_prefix(0x20),
        route_prefixes=tuple(_prefix(0xB0 + i) for i in range(4)),
        clock_offset_s=CLOCK_OFFSET_NY,
    )
    la = EdgeConfig(
        name="la",
        tenant_router="tango-la",
        tenant_asn=TENANT_LA_ASN,
        provider_router="vultr-la",
        provider_asn=VULTR_ASN,
        host_prefix=_prefix(0x10),
        route_prefixes=tuple(_prefix(0xA0 + i) for i in range(4)),
        clock_offset_s=CLOCK_OFFSET_LA,
    )
    return PairingConfig(
        a=ny,
        b=la,
        probe_interval_s=probe_interval_s,
        report_interval_s=report_interval_s,
        auth_key=auth_key,
    )


class VultrDeployment(PacketLevelDeployment):
    """The full NY/LA deployment: BGP + session + data plane + workloads.

    Pairing orientation: ``a`` = NY, ``b`` = LA, so direction "a→b" is the
    NY→LA direction Figure 4 plots.  All generic machinery (probes,
    policies, failure injection, fast campaigns) lives in
    :class:`repro.scenarios.deployment.PacketLevelDeployment`; this class
    binds it to the Vultr control plane and the calibrated paths.

    Args:
        include_events: disable to get steady-state paths (useful for
            calibration tests and jitter measurements).
        probe_interval_s: measurement cadence (paper: 10 ms).
        instability_loss: add elevated loss on GTT NY→LA during the
            instability window (drives the loss/TCP experiments).
        auth_key: enable authenticated telemetry when non-empty.
    """

    name = "vultr"

    def __init__(
        self,
        include_events: bool = True,
        probe_interval_s: float = 0.010,
        report_interval_s: float = 0.100,
        instability_loss: float = 0.0,
        auth_key: bytes = b"",
        telemetry_channel: Optional[ChannelConfig] = None,
    ) -> None:
        super().__init__(
            pairing=make_pairing(probe_interval_s, report_interval_s, auth_key),
            bgp=build_bgp_network(),
            calibrations={"ny": NY_TO_LA_PATHS, "la": LA_TO_NY_PATHS},
            include_events=include_events,
            instability_loss=instability_loss,
            auth_key=auth_key,
            edge_noise_ms=(EDGE_NOISE_BASE_MS, EDGE_NOISE_SIGMA_MS),
            telemetry_channel=telemetry_channel,
            srlg_regions=VULTR_REGIONS,
        )
        # Convenience aliases used throughout the experiments.
        self.host_ny = self.hosts["ny"]
        self.host_la = self.hosts["la"]
        self.gw_ny_switch = self.switches["ny"]
        self.gw_la_switch = self.switches["la"]
        self.gateway_ny = self.gateways["ny"]
        self.gateway_la = self.gateways["la"]
