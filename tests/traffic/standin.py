"""A synthetic many-tunnel edge pair: the deployment protocol, nothing else.

The Vultr scenario has four transit paths; the array fluid kernel and
the tick wheel only show their behaviour at hundreds of (class, tunnel)
buckets or a thousand controllers.  This module fabricates that — an
edge pair with N constant delay/loss WAN paths and real telemetry
stores, and a gateway with no packet machinery — for
``tests/traffic/test_vector.py`` and the controller farms of
``tests/netsim/test_ticks.py`` and ``benchmarks/test_bench_traffic.py``.
"""

from dataclasses import dataclass

from repro.core.controller import TangoController
from repro.dataplane.seqnum import SequenceTracker
from repro.netsim.delaymodels import ConstantDelay
from repro.netsim.events import Simulator
from repro.netsim.links import ConstantLoss
from repro.netsim.ticks import TickScheduler
from repro.telemetry.loss import LossMonitor
from repro.telemetry.store import MeasurementStore
from repro.traffic.splitting import WeightedSplitSelector


@dataclass(frozen=True)
class _Tunnel:
    """Tunnel stand-in exposing exactly what the fluid engines read."""

    path_id: int
    short_label: str
    label: str
    local_endpoint: str
    remote_endpoint: str


class _Link:
    """Link stand-in: constant delay/loss models (the cacheable case)."""

    __slots__ = ("delay", "loss")

    def __init__(self, delay_s: float, loss: float) -> None:
        self.delay = ConstantDelay(delay_s)
        self.loss = ConstantLoss(loss)


class _GatewayConfig:
    __slots__ = ("name",)

    def __init__(self, name: str) -> None:
        self.name = name


class StandinGateway:
    """Gateway stand-in: real stores/trackers, no packet machinery."""

    def __init__(self, name: str) -> None:
        self.config = _GatewayConfig(name)
        self.inbound = MeasurementStore()
        self.tracker = SequenceTracker()
        self.loss_monitor = LossMonitor(self.tracker)
        self.selector = WeightedSplitSelector()
        self.data_selector = None

    @property
    def outbound(self) -> MeasurementStore:
        return self.inbound


class SyntheticDeployment:
    """Minimal deployment-protocol implementation with N parallel tunnels."""

    def __init__(
        self,
        sim: Simulator,
        n_tunnels: int,
        *,
        capacity_bps: float = 8e9,
        delay_s: float = 0.02,
        loss: float = 0.0,
    ) -> None:
        self.sim = sim
        self._gateways = {"a": StandinGateway("a"), "b": StandinGateway("b")}
        self._tunnels = [
            _Tunnel(
                path_id=i,
                short_label=f"p{i}",
                label=f"path-{i}",
                local_endpoint=f"2001:db8:a::{i:x}",
                remote_endpoint=f"2001:db8:b::{i:x}",
            )
            for i in range(n_tunnels)
        ]
        self._links = {
            t.short_label: _Link(delay_s, loss) for t in self._tunnels
        }
        self.capacity_bps = capacity_bps

    def gateway(self, name: str) -> StandinGateway:
        return self._gateways[name]

    def peer_of(self, name: str) -> str:
        return "b" if name == "a" else "a"

    def tunnels(self, name: str) -> list:
        return list(self._tunnels)

    def wan_link(self, name: str, short_label: str) -> _Link:
        return self._links[short_label]

    def clock_offset_delta(self, name: str) -> float:
        return 0.0


def controller_farm(n: int, shared: bool):
    """``n`` started report-only controllers at a 0.1 s tick, on one
    shared wheel or a dedicated task each: ``(sim, scheduler, farm)``."""
    sim = Simulator()
    scheduler = TickScheduler(sim, 0.1) if shared else None
    farm = [
        TangoController(
            StandinGateway(f"edge{i}"), sim, interval_s=0.1, scheduler=scheduler
        )
        for i in range(n)
    ]
    for controller in farm:
        controller.start()
    return sim, scheduler, farm
