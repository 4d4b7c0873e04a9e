"""Tango core: discovery, tunnels, policies, gateways, sessions, meshes."""

from .config import EdgeConfig, PairingConfig
from .controller import TangoController, TunnelHealth
from .discovery import AS_NAMES, DiscoveredPath, DiscoveryResult, PathDiscovery
from .ecmp_probing import EcmpCluster, EcmpMap, EcmpMapper
from .gateway import TangoGateway
from .mesh import MeshPath, MeshRoute, TangoMesh
from .multipop import MultiPopStore
from .policy import (
    ApplicationSelector,
    HysteresisSelector,
    JitterAwareSelector,
    LossAwareSelector,
    LowestDelaySelector,
    StaticSelector,
)
from .slicing import NetworkSlice, SliceManager, TokenBucket
from .session import (
    DIRECTION_A_TO_B,
    DIRECTION_B_TO_A,
    SessionState,
    TangoSession,
    TelemetryMirror,
)
from .tunnels import TangoTunnel, TunnelTable, build_tunnels

__all__ = [
    "AS_NAMES",
    "ApplicationSelector",
    "DIRECTION_A_TO_B",
    "DIRECTION_B_TO_A",
    "DiscoveredPath",
    "DiscoveryResult",
    "EcmpCluster",
    "EcmpMap",
    "EcmpMapper",
    "EdgeConfig",
    "HysteresisSelector",
    "JitterAwareSelector",
    "LossAwareSelector",
    "LowestDelaySelector",
    "MeshPath",
    "MeshRoute",
    "MultiPopStore",
    "NetworkSlice",
    "PairingConfig",
    "PathDiscovery",
    "SessionState",
    "SliceManager",
    "StaticSelector",
    "TangoController",
    "TangoGateway",
    "TangoMesh",
    "TangoSession",
    "TangoTunnel",
    "TokenBucket",
    "TelemetryMirror",
    "TunnelHealth",
    "TunnelTable",
    "build_tunnels",
]
