"""Discrete-event packet-level network simulator.

The substrate beneath Tango's data plane: a deterministic event loop,
packets with real header stacks, links driven by calibrated delay/loss
processes, LPM routers with ECMP, and programmable border switches that
host eBPF-style programs.
"""

from .delaymodels import (
    AsymmetryEvent,
    CompositeDelay,
    ConstantDelay,
    DelayEvent,
    DelayModel,
    DiurnalVariation,
    GaussianJitterDelay,
    InstabilityEvent,
    RouteChangeEvent,
    SpikeProcess,
)
from .ecmp import ecmp_hash, select_index
from .events import Event, PeriodicTask, Simulator
from .links import ConstantLoss, Link, LinkStats, LossModel, WindowedLoss
from .node import (
    Fib,
    FibEntry,
    HostNode,
    Node,
    NodeStats,
    ProgrammableSwitch,
    RouterNode,
)
from .queueing import QueuedLink
from .packet import (
    TANGO_UDP_PORT,
    FiveTuple,
    Header,
    Ipv4Header,
    Ipv6Header,
    Packet,
    TangoHeader,
    UdpHeader,
)
from .simclock import NodeClock
from .ticks import TickHandle, TickScheduler
from .topology import Network
from .transport import TcpReceiver, TcpSender, TcpStats, connect_tcp
from .trace import (
    DroneTelemetryWorkload,
    PacketFactory,
    ProbeGenerator,
)

__all__ = [
    "AsymmetryEvent",
    "CompositeDelay",
    "ConstantDelay",
    "ConstantLoss",
    "DelayEvent",
    "DelayModel",
    "DiurnalVariation",
    "DroneTelemetryWorkload",
    "Event",
    "Fib",
    "FibEntry",
    "FiveTuple",
    "GaussianJitterDelay",
    "Header",
    "HostNode",
    "InstabilityEvent",
    "Ipv4Header",
    "Ipv6Header",
    "Link",
    "LinkStats",
    "LossModel",
    "Network",
    "Node",
    "NodeClock",
    "NodeStats",
    "Packet",
    "PacketFactory",
    "PeriodicTask",
    "ProbeGenerator",
    "ProgrammableSwitch",
    "QueuedLink",
    "RouteChangeEvent",
    "RouterNode",
    "SpikeProcess",
    "Simulator",
    "TangoHeader",
    "TcpReceiver",
    "TcpSender",
    "TcpStats",
    "TickHandle",
    "TickScheduler",
    "TANGO_UDP_PORT",
    "UdpHeader",
    "WindowedLoss",
    "connect_tcp",
    "ecmp_hash",
    "select_index",
]
