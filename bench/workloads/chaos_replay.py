"""``chaos_replay`` — the E13/E14 shape: a seeded chaos campaign over the
packet-level Vultr deployment.  Packet path dominant."""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.core.controller import QuarantinePolicy, TangoController
from repro.core.policy import LowestDelaySelector
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultEvent, FaultPlan
from repro.faults.recovery import RecoveryLog
from repro.netsim.trace import PacketFactory
from repro.scenarios.vultr import VultrDeployment

from . import (
    Check,
    Outcome,
    count_changes,
    digest_of,
    median,
    store_rows_and_grows,
)

#: Wide-area paths per sending edge and the provider sessions a plan may
#: bounce (the shipped Vultr scenario's names).
_PATHS = {
    "ny": ("NTT", "Telia", "GTT", "Level3"),
    "la": ("NTT", "Telia", "GTT", "Cogent"),
}
_SESSIONS = (
    ("vultr-ny", "ntt"),
    ("vultr-ny", "telia"),
    ("vultr-ny", "gtt"),
    ("vultr-ny", "cogent"),
    ("vultr-la", "ntt"),
    ("vultr-la", "telia"),
    ("vultr-la", "gtt"),
    ("vultr-la", "level3"),
)
#: The campaign's fault mix; the seed shuffles the order and the targets.
_KINDS = (
    "link_blackhole",
    "link_blackhole",
    "link_flap",
    "loss_burst",
    "delay_spike",
    "bgp_session_down",
    "bgp_session_down",
    "prefix_withdraw",
)
#: Path faults the quarantine policy is meant to catch.  In packet mode
#: its signal is staleness (as in E13), so a 90 % loss burst, whose
#: surviving probes keep the path fresh, is the selector's business and
#: not a detection the benchmark may demand.
_DETECTABLE = frozenset({"link_blackhole", "link_flap"})

#: One fault per slot.  A slot is long enough for the slowest recovery
#: (quarantine, one probation delay, three healthy ticks) to finish
#: before the next fault starts, so every fault meets a clean state.
_SLOT_S = 3.5
_FIRST_ONSET_S = 1.0
_ONSET_JITTER_S = 0.8
_TAIL_S = 2.0

_INTERVAL_S = 0.1
_STALENESS_S = 0.5
_DATA_INTERVAL_S = 0.02
_DATA_FLOW_LABEL = 9
#: Detection budget: one staleness horizon plus two control ticks
#: (``unhealthy_ticks``), plus one more because the last delivered
#: sample is stamped on arrival — a one-way delay and a clock offset
#: after the fault began.
_DETECT_BUDGET_S = _STALENESS_S + 3 * _INTERVAL_S
#: After the window the sources stop and the network drains this long,
#: so packet conservation is checked with nothing in flight.
_DRAIN_S = 1.0


@dataclass(frozen=True)
class ChaosPlan:
    fault_plan: FaultPlan
    until_s: float


class _DataStream:
    """One direction's 20 ms application stream (counts what it offers)."""

    def __init__(self, factory: PacketFactory, send) -> None:
        self.factory = factory
        self.send = send
        self.sent = 0

    def __call__(self) -> None:
        self.sent += 1
        self.send(self.factory.build())


@dataclass
class _Scenario:
    plan: ChaosPlan
    deployment: VultrDeployment
    controllers: dict[str, TangoController]
    injector: FaultInjector
    streams: dict[str, _DataStream]
    stream_tasks: list


def make_fault_plan(seed: int, n_events: int) -> FaultPlan:
    """The seeded campaign: fixed mix, shuffled order, random targets."""
    rng = random.Random(seed)
    kinds = list(_KINDS)
    rng.shuffle(kinds)
    paths = [(src, path) for src in sorted(_PATHS) for path in _PATHS[src]]
    rng.shuffle(paths)
    sessions = list(_SESSIONS)
    rng.shuffle(sessions)
    events = []
    for slot, kind in enumerate(kinds[:n_events]):
        at = round(
            _FIRST_ONSET_S + slot * _SLOT_S + rng.uniform(0.0, _ONSET_JITTER_S), 3
        )
        # Short enough to be over by the first probation (quarantine at
        # about +0.7 s, probation one second later): a fault that
        # outlives it doubles the backoff and the recovery outgrows the
        # slot.
        duration = round(rng.uniform(1.0, 1.4), 3)
        if kind == "bgp_session_down":
            a, b = sessions.pop()
            params = {"a": a, "b": b}
        elif kind == "prefix_withdraw":
            params = {
                "edge": rng.choice(sorted(_PATHS)),
                "prefix_index": rng.randrange(4),
            }
        else:
            src, path = paths.pop()
            params = {"src": src, "path": path}
            if kind == "link_flap":
                params.update(period=1.0, duty=0.8)
            elif kind == "loss_burst":
                params["rate"] = 0.9
            elif kind == "delay_spike":
                params["extra_ms"] = round(rng.uniform(15.0, 40.0), 1)
        events.append(FaultEvent(kind, at=at, duration=duration, params=params))
    return FaultPlan(name="bench-chaos-replay", events=tuple(events), seed=seed)


class ChaosReplay:
    name = "chaos_replay"

    def plan(self, seed: int, smoke: bool) -> ChaosPlan:
        n_events = 2 if smoke else len(_KINDS)
        return ChaosPlan(
            fault_plan=make_fault_plan(seed, n_events),
            until_s=_FIRST_ONSET_S + n_events * _SLOT_S + 1.0 + _TAIL_S,
        )

    def setup(self, plan: ChaosPlan) -> _Scenario:
        deployment = VultrDeployment(include_events=False)
        deployment.establish()
        edges = (deployment.pairing.a.name, deployment.pairing.b.name)
        controllers = {}
        for edge in edges:
            deployment.start_path_probes(edge)
            deployment.set_data_policy(
                edge,
                LowestDelaySelector(deployment.gateway(edge).outbound, window_s=1.0),
            )
            controller = TangoController(
                deployment.gateway(edge),
                deployment.sim,
                interval_s=_INTERVAL_S,
                staleness_s=_STALENESS_S,
                quarantine=QuarantinePolicy(),
            )
            controller.start()
            deployment.attach_controller(edge, controller)
            controllers[edge] = controller
        streams = {}
        tasks = []
        for edge in edges:
            peer = deployment.pairing.peer_of(edge)
            stream = _DataStream(
                PacketFactory(
                    src=str(deployment.pairing.edge(edge).host_address(4)),
                    dst=str(peer.host_address(4)),
                    flow_label=_DATA_FLOW_LABEL,
                ),
                deployment.sender_for(edge),
            )
            streams[edge] = stream
            tasks.append(deployment.sim.call_every(_DATA_INTERVAL_S, stream))
        injector = FaultInjector(deployment, plan.fault_plan)
        return _Scenario(plan, deployment, controllers, injector, streams, tasks)

    def run(self, scenario: _Scenario) -> None:
        scenario.injector.arm()
        scenario.deployment.net.run(until=scenario.plan.until_s)

    def counters(self, scenario: _Scenario) -> dict[str, float]:
        deployment = scenario.deployment
        links = deployment.net.links.values()
        gateways = deployment.gateways.values()
        rows, grows = store_rows_and_grows(
            store for g in gateways for store in (g.inbound, g.outbound)
        )
        bgp = deployment.bgp
        snapshots = deployment.session.snapshots
        return {
            "netsim.events.processed": deployment.sim.events_processed,
            "netsim.links.transmits": sum(
                l.stats.transmitted + l.stats.injected for l in links
            ),
            "netsim.links.delivered": sum(l.stats.delivered for l in links),
            "netsim.links.dropped": sum(_dropped(l) for l in links),
            "netsim.node.receives": sum(
                n.stats.received for n in deployment.net.nodes.values()
            ),
            "telemetry.store.appends": rows,
            "telemetry.store.grows": grows,
            "core.controller.ticks": sum(
                c.ticks for c in scenario.controllers.values()
            ),
            "bgp.network.converges": bgp.convergence_count,
            "bgp.network.waves": bgp.total_rounds,
            "bgp.network.updates_delivered": bgp.updates_delivered,
            "bgp.network.withdrawals_delivered": bgp.withdrawals_delivered,
            "bgp.network.routers_scanned": bgp.routers_scanned,
            "bgp.snapshot.hits": snapshots.hits,
            "bgp.snapshot.misses": snapshots.misses,
        }

    def finish(self, scenario: _Scenario) -> Outcome:
        deployment = scenario.deployment
        links = list(deployment.net.links.values())
        in_flight_end = sum(
            l.stats.transmitted + l.stats.injected - l.stats.delivered - _dropped(l)
            for l in links
        )
        # Stop every source, then let what is in flight land.
        for task in scenario.stream_tasks:
            task.stop()
        deployment.stop_probes()
        for controller in scenario.controllers.values():
            controller.stop()
        deployment.net.run(until=deployment.sim.now + _DRAIN_S)
        leaks = [
            l.name
            for l in links
            if l.stats.transmitted + l.stats.injected
            != l.stats.delivered + _dropped(l)
        ]

        log = RecoveryLog.build(scenario.plan.fault_plan, scenario.controllers)
        detectable = [r for r in log.records if r.kind in _DETECTABLE]
        late = [
            f"{r.kind} {r.target}"
            for r in detectable
            if r.detection_s is None
            or r.detection_s > _DETECT_BUDGET_S + 1e-9
            or r.restored_at is None
        ]

        offered = sum(s.sent for s in scenario.streams.values())
        delivered = sum(
            1
            for host in deployment.hosts.values()
            for packet in host.received_packets
            if packet.flow_label == _DATA_FLOW_LABEL
        )
        controllers = scenario.controllers.values()
        quarantines = sum(
            1 for c in controllers for q in c.quarantine_log
            if q.action == "quarantine"
        )
        restores = sum(
            1 for c in controllers for q in c.quarantine_log if q.action == "restore"
        )
        text = log.format(scenario.controllers)
        return Outcome(
            digest=digest_of(
                [text, f"data offered={offered} delivered={delivered}"]
            ),
            checks=[
                Check(
                    "packet_conservation",
                    not leaks,
                    f"links with transmitted != delivered + dropped: {leaks}",
                ),
                Check(
                    "faults_detected_and_restored",
                    not late,
                    f"outside {_DETECT_BUDGET_S}s or never restored: {late}",
                ),
            ],
            sim_detect_s=median(
                r.detection_s for r in detectable if r.detection_s is not None
            ),
            sim_delivered_share=delivered / offered,
            gauges={
                "netsim.links.in_flight_end": in_flight_end,
                "core.policy.choice_changes": sum(
                    count_changes(c.choice_trace.values) for c in controllers
                ),
                "core.controller.quarantines": quarantines,
                "core.controller.restores": restores,
                "faults.events_armed": len(scenario.injector.armed),
                "faults.path_faults": log.path_fault_count,
                "faults.detected": log.detected_count,
            },
        )


def _dropped(link) -> int:
    stats = link.stats
    return stats.dropped_loss + stats.dropped_mtu + stats.dropped_intercept

