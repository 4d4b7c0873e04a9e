"""Tango data plane: tunnel encapsulation and eBPF-style switch programs."""

from .encap import (
    TUNNEL_OVERHEAD_BYTES,
    TunnelDecapError,
    decapsulate,
    encapsulate,
)
from .flowlet import FlowletSelector
from .programs import (
    MeasurementSink,
    PathSelector,
    TangoReceiverProgram,
    TangoSenderProgram,
    Tunnel,
    TunnelLookup,
)
from .seqnum import SequenceStamper, SequenceStats, SequenceTracker

__all__ = [
    "FlowletSelector",
    "MeasurementSink",
    "PathSelector",
    "SequenceStamper",
    "SequenceStats",
    "SequenceTracker",
    "TUNNEL_OVERHEAD_BYTES",
    "TangoReceiverProgram",
    "TangoSenderProgram",
    "Tunnel",
    "TunnelDecapError",
    "TunnelLookup",
    "decapsulate",
    "encapsulate",
]
