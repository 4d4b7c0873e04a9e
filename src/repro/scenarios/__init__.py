"""Deployment scenarios: the Vultr NY/LA testbed, a distributed
enterprise, and synthetic fabrics."""

from .deployment import PacketLevelDeployment
from .enterprise import (
    EnterpriseDeployment,
    build_enterprise_bgp,
    make_enterprise_pairing,
)
from .topologies import EcmpFanout, build_ecmp_fanout
from .vultr import (
    CAMPAIGN_HOURS,
    INSTABILITY_HOUR,
    LA_TO_NY_PATHS,
    NY_TO_LA_PATHS,
    ROUTE_CHANGE_HOUR,
    VULTR_ASN,
    PathCalibration,
    VultrDeployment,
    build_bgp_network,
    make_pairing,
)

__all__ = [
    "CAMPAIGN_HOURS",
    "EcmpFanout",
    "INSTABILITY_HOUR",
    "LA_TO_NY_PATHS",
    "EnterpriseDeployment",
    "NY_TO_LA_PATHS",
    "PacketLevelDeployment",
    "PathCalibration",
    "ROUTE_CHANGE_HOUR",
    "VULTR_ASN",
    "VultrDeployment",
    "build_bgp_network",
    "build_ecmp_fanout",
    "build_enterprise_bgp",
    "make_enterprise_pairing",
    "make_pairing",
]
