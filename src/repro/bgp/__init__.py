"""AS-level BGP control-plane simulator.

Policy-faithful route propagation: Gao–Rexford export rules, the full
decision process, provider traffic-control communities (the Vultr
dialect), private-ASN stripping, allowas-in, AS-path poisoning, and a
wall-clock failure-response model (hold timers + convergence latency).
"""

from .attributes import (
    AsPath,
    Community,
    LargeCommunity,
    Origin,
    RouteAttributes,
    is_private_asn,
)
from .communities import (
    ExportAction,
    TrafficControlInterpreter,
    no_export_to,
)
from .messages import Announcement, Prefix, Withdrawal, as_prefix
from .network import (
    CONVERGENCE_DELAY_S,
    BgpNetwork,
    ConvergenceError,
)
from .poisoning import poisoned_attributes
from .snapshot import (
    NetworkSnapshot,
    SnapshotCache,
    capture_snapshot,
    network_fingerprint,
    restore_snapshot,
)
from .policy import (
    Relationship,
    default_local_pref,
    gao_rexford_allows_export,
)
from .rib import AdjRibIn, AdjRibOut, LocRib, RibEntry
from .router import BgpRouter, Neighbor

__all__ = [
    "AdjRibIn",
    "AdjRibOut",
    "Announcement",
    "AsPath",
    "BgpNetwork",
    "BgpRouter",
    "CONVERGENCE_DELAY_S",
    "Community",
    "ConvergenceError",
    "ExportAction",
    "LargeCommunity",
    "LocRib",
    "Neighbor",
    "NetworkSnapshot",
    "Origin",
    "Prefix",
    "Relationship",
    "RibEntry",
    "SnapshotCache",
    "RouteAttributes",
    "TrafficControlInterpreter",
    "Withdrawal",
    "as_prefix",
    "capture_snapshot",
    "default_local_pref",
    "gao_rexford_allows_export",
    "is_private_asn",
    "network_fingerprint",
    "no_export_to",
    "poisoned_attributes",
    "restore_snapshot",
]
