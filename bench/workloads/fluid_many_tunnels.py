"""``fluid_many_tunnels`` — the traffic layer used the wide way: one
vector engine over hundreds of tunnels, constant link models, no
packets, no BGP, no controller."""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.dataplane.seqnum import SequenceTracker
from repro.netsim.delaymodels import ConstantDelay
from repro.netsim.events import Simulator
from repro.netsim.links import ConstantLoss
from repro.telemetry.loss import LossMonitor
from repro.telemetry.store import MeasurementStore
from repro.traffic.demand import DemandModel, standard_flow_classes
from repro.traffic.splitting import WeightedSplitSelector
from repro.traffic.vector import VectorFluidEngine

from . import Check, Outcome, digest_of, store_rows_and_grows
from .fluidcheck import conserved, ledger_totals, offered_packets

_STEP_S = 0.1
_TARGET_FLOWS = 2_100_000.0
_MIN_PEAK_FLOWS = 2_000_000.0
_CAPACITY_BPS = 8e9


@dataclass(frozen=True)
class FluidPlan:
    n_tunnels: int
    run_s: float
    demand_seed: int
    #: Per-tunnel constant one-way delay (s) and loss rate.
    delays_s: tuple[float, ...]
    losses: tuple[float, ...]


@dataclass(frozen=True)
class _Tunnel:
    """What the fluid engine reads of a tunnel."""

    path_id: int
    short_label: str
    label: str
    local_endpoint: str
    remote_endpoint: str


class _Link:
    def __init__(self, delay_s: float, loss: float) -> None:
        self.delay = ConstantDelay(delay_s)
        self.loss = ConstantLoss(loss)


class _GatewayConfig:
    def __init__(self, name: str) -> None:
        self.name = name


class _Gateway:
    """Real stores and ledgers, no packet machinery."""

    def __init__(self, name: str) -> None:
        self.config = _GatewayConfig(name)
        self.inbound = MeasurementStore()
        self.outbound = self.inbound
        self.tracker = SequenceTracker()
        self.loss_monitor = LossMonitor(self.tracker)
        self.selector = WeightedSplitSelector()


class _WideDeployment:
    """The deployment protocol the fluid engine is written against
    (``sim``, ``gateway``, ``peer_of``, ``tunnels``, ``wan_link``,
    ``clock_offset_delta``), over N parallel constant-model paths."""

    def __init__(self, sim: Simulator, plan: FluidPlan) -> None:
        self.sim = sim
        self._gateways = {"a": _Gateway("a"), "b": _Gateway("b")}
        self._tunnels = [
            _Tunnel(
                path_id=i,
                short_label=f"p{i}",
                label=f"path-{i}",
                local_endpoint=f"2001:db8:a::{i:x}",
                remote_endpoint=f"2001:db8:b::{i:x}",
            )
            for i in range(plan.n_tunnels)
        ]
        self._links = {
            t.short_label: _Link(plan.delays_s[t.path_id], plan.losses[t.path_id])
            for t in self._tunnels
        }

    def gateway(self, name: str) -> _Gateway:
        return self._gateways[name]

    def peer_of(self, name: str) -> str:
        return "b" if name == "a" else "a"

    def tunnels(self, name: str) -> list[_Tunnel]:
        return list(self._tunnels)

    def wan_link(self, name: str, short_label: str) -> _Link:
        return self._links[short_label]

    def clock_offset_delta(self, name: str) -> float:
        return 0.0


@dataclass
class _Scenario:
    plan: FluidPlan
    sim: Simulator
    deployment: _WideDeployment
    demand: DemandModel
    engine: VectorFluidEngine


class FluidManyTunnels:
    name = "fluid_many_tunnels"

    def plan(self, seed: int, smoke: bool) -> FluidPlan:
        rng = random.Random(seed)
        n_tunnels = 64 if smoke else 256
        return FluidPlan(
            n_tunnels=n_tunnels,
            run_s=60.0 if smoke else 900.0,
            demand_seed=rng.randrange(1 << 30),
            delays_s=tuple(
                round(rng.uniform(0.010, 0.060), 6) for _ in range(n_tunnels)
            ),
            losses=tuple(
                round(rng.uniform(0.0, 0.002), 6) for _ in range(n_tunnels)
            ),
        )

    def setup(self, plan: FluidPlan) -> _Scenario:
        sim = Simulator()
        deployment = _WideDeployment(sim, plan)
        demand = DemandModel(
            classes=standard_flow_classes(_TARGET_FLOWS), seed=plan.demand_seed
        )
        engine = VectorFluidEngine(
            deployment,
            "a",
            demand,
            step_s=_STEP_S,
            default_capacity_bps=_CAPACITY_BPS,
            record_traces=False,
        )
        engine.start()
        return _Scenario(plan, sim, deployment, demand, engine)

    def run(self, scenario: _Scenario) -> None:
        scenario.sim.run(until=scenario.plan.run_s)

    def counters(self, scenario: _Scenario) -> dict[str, float]:
        engine = scenario.engine
        rows, grows = store_rows_and_grows(
            [scenario.deployment.gateway("b").inbound]
        )
        return {
            "netsim.events.processed": scenario.sim.events_processed,
            "telemetry.store.appends": rows,
            "telemetry.store.grows": grows,
            "traffic.steps": engine.steps,
            "traffic.bucket_updates": engine.steps
            * len(engine.demand.classes)
            * len(engine.tunnels),
            "traffic.splits_recomputed": engine.splits_recomputed,
        }

    def finish(self, scenario: _Scenario) -> Outcome:
        engine = scenario.engine
        engine.stop()
        offered = offered_packets(scenario.demand, 0.0, _STEP_S, engine.steps)
        tracker = scenario.deployment.gateway("a").tracker
        delivered, lost = ledger_totals([tracker])
        peak = engine.peak_concurrent_flows

        parts: list = []
        for path_id, series in scenario.deployment.gateway("b").inbound.items():
            parts += [f"{path_id}", series.times.tobytes(), series.values.tobytes()]
        parts.append(f"ledger delivered={delivered} lost={lost}")
        return Outcome(
            digest=digest_of(parts),
            checks=[
                Check(
                    "fluid_conservation",
                    conserved(offered, delivered, lost, scenario.plan.n_tunnels)
                    and peak >= _MIN_PEAK_FLOWS,
                    f"offered={offered!r} delivered={delivered} lost={lost} "
                    f"peak_flows={peak!r}",
                ),
            ],
            sim_detect_s=0.0,
            sim_delivered_share=delivered / offered,
            gauges={"traffic.peak_concurrent_flows": peak},
        )
