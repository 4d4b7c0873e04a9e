"""Multiprocess chaos-campaign runner and its E17 SLO gates.

Every plan runs twice against the same victim deployment recipe — once
*defended* (authenticated dataplane telemetry, channel record MACs, the
plausibility gate, clock-integrity monitor, and peer-trust demotion) and
once *undefended* (the PR 2 quarantine stack alone) — so each report row
is its own ablation.  Worker processes receive serialized plans and a
picklable config; each run is a pure function of ``(plan, config)``, so
the merged report is byte-identical no matter how the population was
sharded.  Nothing in the report reads the wall clock.

The E17 gates (see EXPERIMENTS.md):

* **regret** — each defended run's median one-way-delay regret stays
  within ``2 x`` the fault-free baseline's (with a 1 ms noise floor);
* **steering** — a defended victim never rides a tamper-favored tunnel
  longer than one telemetry horizon, while the undefended victim is
  demonstrably steered (>= 3 horizons) by every favored-tamper plan;
* **availability** — defended data-packet delivery stays >= the SLO
  despite the attack (reroutes are allowed, outages are not);
* **MTTR** — classic blackholes still recover within the SLO with the
  full defense stack armed (the defense must not slow plain recovery).

The **E18** correlated-failure campaign reuses the same sharding and
determinism machinery over the SRLG plan family
(:func:`~repro.campaign.plans.generate_correlated_plans`); its defended
variant swaps the Byzantine defense for the failure-domain stack
(:class:`~repro.srlg.FateAwareSelector` + fast reroute) and gates on
switchover latency, zero post-detection traffic on failed groups, and
availability under a two-group outage.

Worker-death hardening: shards run under a
:class:`~concurrent.futures.ProcessPoolExecutor`; a shard whose process
dies (or whose future otherwise errors) is retried **once in-process**,
and the merged report surfaces a ``shard_retries`` counter.  Because
each shard is a pure function of ``(plan, config)``, the retry produces
the same bytes the dead worker would have — determinism survives
crashes.
"""

from __future__ import annotations

import json
import statistics
from dataclasses import asdict, dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Optional

if TYPE_CHECKING:
    from ..core.controller import TangoController
    from ..scenarios.vultr import VultrDeployment

from ..validate import check_fields, non_negative, positive, probability
from .plans import (
    AdversarialPlan,
    generate_adversarial_plans,
    generate_correlated_plans,
)

__all__ = [
    "CampaignConfig",
    "CorrelatedConfig",
    "CampaignReport",
    "run_plan",
    "run_campaign",
    "run_correlated_plan",
    "run_correlated_campaign",
]

#: Shared per-pairing MAC key used by every campaign run.
CAMPAIGN_KEY = b"tango-campaign-key"

VICTIM = "ny"


@dataclass(frozen=True)
class CampaignConfig:
    """Per-run simulation recipe and the SLO thresholds gating it."""

    horizon_s: float = field(default=14.0, metadata={"check": positive})
    probe_interval_s: float = field(default=0.05, metadata={"check": positive})
    data_gap_s: float = field(default=0.02, metadata={"check": positive})
    controller_interval_s: float = field(default=0.1, metadata={"check": positive})
    staleness_s: float = field(default=0.5, metadata={"check": positive})
    telemetry_horizon_s: float = field(default=1.0, metadata={"check": positive})
    warmup_s: float = field(default=1.0, metadata={"check": non_negative})
    #: SLOs.
    regret_factor: float = field(default=2.0, metadata={"check": positive})
    regret_floor_ms: float = field(default=1.0, metadata={"check": non_negative})
    min_undefended_steer_horizons: float = field(
        default=3.0, metadata={"check": non_negative}
    )
    availability_slo: float = field(default=0.92, metadata={"check": probability})
    mttr_slo_s: float = field(default=2.0, metadata={"check": positive})
    #: Regret charged for a tick spent on a path that delivers nothing
    #: (blackholed / silently lossy) — large enough to dominate any real
    #: path gap, finite so medians stay defined.
    unusable_penalty_ms: float = field(default=50.0, metadata={"check": non_negative})

    def __post_init__(self) -> None:
        check_fields(self)
        if self.horizon_s <= self.warmup_s:
            raise ValueError("horizon_s must exceed warmup_s")


@dataclass(frozen=True)
class CorrelatedConfig(CampaignConfig):
    """E18 recipe: the base simulation plus correlated-failure SLOs."""

    #: Availability floor while *two* risk groups are down at once (only
    #: one calibrated path survives the overlap).
    availability_two_group_slo: float = field(
        default=0.9, metadata={"check": probability}
    )
    #: FRR switchover budget, in telemetry horizons.
    switchover_horizons: float = field(default=1.0, metadata={"check": positive})


def _build_victim(
    defended: bool, config: CampaignConfig, defense: str = "trust"
) -> tuple["VultrDeployment", "TangoController", Any, Any, Any]:
    """One victim deployment with a data stream.

    ``defense`` selects which defended stack is installed: ``"trust"``
    (the E17 Byzantine-telemetry defense) or ``"srlg"`` (the E18
    failure-domain stack: :class:`~repro.srlg.FateAwareSelector` over the
    delay policy plus fast reroute wired into the controller).  Returns
    ``(deployment, controller, counts, fate, frr)`` — ``counts`` holds the
    data stream's ``"sent"`` and ``"received"``; the last two are ``None``
    outside the ``"srlg"`` mode.
    """
    from ..core.controller import QuarantinePolicy
    from ..core.policy import LowestDelaySelector
    from ..netsim.trace import PacketFactory
    from ..resilience.channel import ChannelConfig
    from ..scenarios.vultr import VultrDeployment
    from ..trust import install_defense

    deployment = VultrDeployment(
        include_events=False,
        auth_key=CAMPAIGN_KEY if defended and defense == "trust" else b"",
        telemetry_channel=ChannelConfig(report_interval_s=0.05),
    )
    deployment.establish()
    deployment.start_path_probes(VICTIM, interval_s=config.probe_interval_s)
    selector = LowestDelaySelector(deployment.gateway(VICTIM).outbound, window_s=1.0)
    fate = None
    frr = None
    defenses: dict[str, Any] = {}
    if defended and defense == "srlg":
        from ..srlg import FastReroute, FateAwareSelector

        selector = fate = FateAwareSelector(selector, deployment.srlg)
        frr = FastReroute(deployment.gateway(VICTIM), deployment.srlg, fate)
        defenses = {"frr": frr, "srlg_registry": deployment.srlg}
    elif defended:
        stack = install_defense(
            deployment, VICTIM, CAMPAIGN_KEY, horizon_s=config.telemetry_horizon_s
        )
        defenses = {"degraded": stack.degraded}
    controller = deployment.start_controller(
        VICTIM,
        selector,
        interval_s=config.controller_interval_s,
        staleness_s=config.staleness_s,
        quarantine=QuarantinePolicy(),
        **defenses,
    )

    peer = deployment.peer_of(VICTIM)
    factory = PacketFactory(
        src=str(deployment.pairing.edge(VICTIM).host_address(4)),
        dst=str(deployment.pairing.edge(peer).host_address(4)),
        flow_label=9,
    )
    send = deployment.sender_for(VICTIM)
    counts = {"sent": 0, "received": 0}

    def pump() -> None:
        counts["sent"] += 1
        send(factory.build())

    def land(packet: Any, now: float) -> None:
        counts["received"] += 1

    deployment.hosts[peer].bind(9, land)
    deployment.sim.call_every(config.data_gap_s, pump)
    return deployment, controller, counts, fate, frr


def _true_delay_models(deployment: "VultrDeployment") -> dict[int, object]:
    table = deployment.calibrations[VICTIM]
    return {
        t.path_id: table[t.short_label].build(deployment.include_events)
        for t in deployment.tunnels(VICTIM)
    }


def _unusable_windows(adv: AdversarialPlan, horizon_s: float) -> list:
    """``(path_label, start, end)`` spans where a path delivers nothing.

    A blackholed path is unusable while the blackhole holds.  A
    gray-lossy path stays unusable through the *end of the run*: the
    attacker keeps rewriting sequence numbers after the drop window to
    hide the gap, which under authentication keeps breaking MACs.
    Rerouting away from these paths is the correct decision, so regret
    is judged against the best path *outside* these windows.
    """
    windows = []
    for event in adv.plan.events:
        if event.kind == "link_blackhole":
            windows.append((str(event.params["path"]), event.at, event.end))
        elif event.kind == "gray_loss":
            windows.append((str(event.params["path"]), event.at, horizon_s))
    return windows


def _regret_ms(
    controller: "TangoController",
    models: dict[int, Any],
    labels: dict[int, str],
    unusable: list[tuple[str, float, float]],
    config: CampaignConfig,
) -> dict:
    """Per-tick regret of the installed choice vs the best usable path."""
    samples = []
    for t, v in zip(controller.choice_trace.times, controller.choice_trace.values):
        if t < config.warmup_s or int(v) < 0:
            continue
        down = {
            label for label, start, end in unusable if start <= t <= end
        }
        delays = {
            pid: m.delay_at(t)
            for pid, m in models.items()
            if labels[pid] not in down
        }
        if labels[int(v)] in down:
            samples.append(config.unusable_penalty_ms)
        else:
            samples.append((delays[int(v)] - min(delays.values())) * 1e3)
    if not samples:
        return {"median_ms": None, "mean_ms": None, "ticks": 0}
    return {
        "median_ms": round(statistics.median(samples), 4),
        "mean_ms": round(statistics.fmean(samples), 4),
        "ticks": len(samples),
    }


def _steered_s(
    controller: "TangoController", favored_id: int, window: tuple[float, float]
) -> float:
    """Longest contiguous stretch of ticks riding ``favored_id`` inside
    ``window`` — the steering-exposure metric the E17 gate bounds."""
    interval = controller.interval_s
    longest = 0.0
    run_start: Optional[float] = None
    for t, v in zip(controller.choice_trace.times, controller.choice_trace.values):
        inside = window[0] <= t <= window[1] and int(v) == favored_id
        if inside:
            if run_start is None:
                run_start = t
            longest = max(longest, t - run_start + interval)
        else:
            run_start = None
    return round(longest, 4)


def _run_variant(adv: AdversarialPlan, defended: bool, config: CampaignConfig) -> dict:
    from ..faults import FaultInjector, RecoveryLog

    deployment, controller, counts, _, _ = _build_victim(defended, config)
    if adv.plan.events:
        FaultInjector(deployment, adv.plan).arm()
    deployment.net.run(until=config.horizon_s)

    models = _true_delay_models(deployment)
    labels = {t.path_id: t.short_label for t in deployment.tunnels(VICTIM)}
    unusable = _unusable_windows(adv, config.horizon_s)
    result = _regret_ms(controller, models, labels, unusable, config)

    result["availability"] = (
        round(counts["received"] / counts["sent"], 4) if counts["sent"] else None
    )

    if adv.favored is not None:
        favored_id = next(
            t.path_id
            for t in deployment.tunnels(VICTIM)
            if t.short_label == adv.favored
        )
        event = adv.plan.events[0]
        result["steered_s"] = _steered_s(
            controller, favored_id, (event.at, event.end + 1.0)
        )

    mttr = RecoveryLog.build(adv.plan, {VICTIM: controller}).mttr()
    result["mttr_s"] = None if mttr is None else round(mttr, 4)
    result["mode_transitions"] = len(controller.mode_log)
    result["quarantine_events"] = len(controller.quarantine_log)

    if defended:
        peer_auth = deployment.gateways[deployment.peer_of(VICTIM)].authenticator
        stack = deployment.defenses[VICTIM]
        result["dataplane_rejected"] = peer_auth.stats.rejected
        result["dataplane_replayed"] = peer_auth.stats.replayed
        result["records_forged"] = stack.channel.stats.records_forged
        result["gate_rejected"] = stack.gate.rejected
        result["trust_final"] = stack.trust.state
        result["trust_transitions"] = len(stack.trust.events)
        result["clock_events"] = len(stack.monitor.events)
    return result


# -- E18: correlated-failure variants ----------------------------------------------


def _correlated_windows(
    adv: AdversarialPlan, deployment: "VultrDeployment", horizon_s: float
) -> list[tuple[float, float, frozenset]]:
    """``(onset, end, affected_labels)`` per correlated event, sorted by
    onset.  ``maintenance_window`` onsets at the end of its drain — the
    path still works during the drain, and charging ticks before the
    actual failure would punish the zero-loss make-before-break case."""
    from ..faults.plan import maintenance_drain_s

    registry = deployment.srlg
    tunnels = deployment.tunnels(VICTIM)
    windows = []
    for event in adv.plan.events:
        if event.kind in ("srlg_failure", "maintenance_window"):
            groups = frozenset({str(event.params["group"])})
        elif event.kind == "regional_outage":
            groups = frozenset(registry.region(str(event.params["region"])).groups)
        else:
            continue
        onset = event.at
        if event.kind == "maintenance_window":
            onset += maintenance_drain_s(event)
        labels = frozenset(t.short_label for t in tunnels if t.srlgs & groups)
        windows.append((onset, min(event.end, horizon_s), labels))
    windows.sort(key=lambda w: w[0])
    return windows


def _switchover(
    controller: "TangoController",
    labels: dict,
    window: tuple[float, float, frozenset],
) -> tuple[Optional[float], Optional[str]]:
    """(delay_s, landing label) of the first post-onset tick whose
    installed choice is outside the failed groups — the FRR latency the
    E18 gate bounds.  A make-before-break switch that landed *before*
    onset reads as ~one tick."""
    onset = window[0]
    affected = window[2]
    for t, v in zip(controller.choice_trace.times, controller.choice_trace.values):
        if t < onset or int(v) < 0:
            continue
        if labels[int(v)] not in affected:
            return round(float(t) - onset, 4), labels[int(v)]
    return None, None


def _failed_srlg_ticks(
    controller: "TangoController", labels: dict, windows: list, grace_s: float
) -> int:
    """Control ticks spent riding a tunnel whose risk group had already
    failed ``grace_s`` earlier — the "zero traffic on a failed SRLG
    after detection" metric (one controller interval of grace covers
    the detection tick itself)."""
    count = 0
    for t, v in zip(controller.choice_trace.times, controller.choice_trace.values):
        if int(v) < 0:
            continue
        label = labels[int(v)]
        for onset, end, affected in windows:
            if label in affected and onset + grace_s <= t <= end:
                count += 1
                break
    return count


def _run_correlated_variant(
    adv: AdversarialPlan, defended: bool, config: CampaignConfig
) -> dict:
    from ..faults import FaultInjector, RecoveryLog

    deployment, controller, counts, fate, frr = _build_victim(
        defended, config, defense="srlg"
    )
    if adv.plan.events:
        FaultInjector(deployment, adv.plan).arm()
    deployment.net.run(until=config.horizon_s)

    models = _true_delay_models(deployment)
    labels = {t.path_id: t.short_label for t in deployment.tunnels(VICTIM)}
    windows = _correlated_windows(adv, deployment, config.horizon_s)
    unusable = [
        (label, onset, end)
        for onset, end, affected in windows
        for label in sorted(affected)
    ]
    result = _regret_ms(controller, models, labels, unusable, config)

    result["availability"] = (
        round(counts["received"] / counts["sent"], 4) if counts["sent"] else None
    )

    if windows:
        switchover_s, switched_to = _switchover(controller, labels, windows[0])
    else:
        switchover_s, switched_to = None, None
    result["switchover_s"] = switchover_s
    result["switched_to"] = switched_to
    result["failed_srlg_ticks"] = _failed_srlg_ticks(
        controller, labels, windows, config.controller_interval_s
    )

    log = RecoveryLog.build(adv.plan, {VICTIM: controller})
    mttr = log.mttr()
    result["mttr_s"] = None if mttr is None else round(mttr, 4)
    result["group_faults"] = log.path_fault_count
    result["detected"] = log.detected_count
    result["quarantine_events"] = len(controller.quarantine_log)
    result["probation_holds"] = sum(
        1 for q in controller.quarantine_log if q.action == "probation-hold"
    )

    if fate is not None:
        result["fate_filtered"] = fate.filtered
        result["pin_hits"] = fate.pin_hits
    if frr is not None:
        result["frr_switchovers"] = frr.switchovers
        result["frr_events"] = len(frr.log)
    return result


def run_correlated_plan(payload: dict, config: CampaignConfig) -> dict:
    """Worker entry point for one E18 plan: the SRLG-defended stack vs
    the plain quarantine stack (the row's own ablation)."""
    adv = AdversarialPlan.from_payload(payload)
    return {
        "index": adv.index,
        "name": adv.plan.name,
        "archetype": adv.archetype,
        "seed": adv.plan.seed,
        "defended": _run_correlated_variant(adv, True, config),
        "undefended": _run_correlated_variant(adv, False, config),
    }


def run_plan(payload: dict, config: CampaignConfig) -> dict:
    """Worker entry point: one plan, defended and undefended variants.

    Takes the :meth:`AdversarialPlan.to_payload` form so the argument
    crosses process boundaries as plain data.
    """
    adv = AdversarialPlan.from_payload(payload)
    return {
        "index": adv.index,
        "name": adv.plan.name,
        "archetype": adv.archetype,
        "favored": adv.favored,
        "seed": adv.plan.seed,
        "defended": _run_variant(adv, True, config),
        "undefended": _run_variant(adv, False, config),
    }


#: Test seam: when set, every worker calls it with the plan index before
#: running the shard.  A test pointing this at an ``os._exit`` kills the
#: worker process mid-campaign and exercises the retry path without
#: patching multiprocessing itself.  In-process retries bypass the hook.
#: It is deliberately a rebindable module global read by the workers: a
#: test must rebind it *before* the fork so children inherit it.
_shard_crash_hook: Optional[Callable[[int], None]] = None  # tango: noqa[TNG301]


def _worker(args: tuple[dict, CampaignConfig]) -> dict:
    payload, config = args
    if _shard_crash_hook is not None:
        _shard_crash_hook(int(payload["index"]))
    return run_plan(payload, config)


def _correlated_worker(args: tuple[dict, CampaignConfig]) -> dict:
    payload, config = args
    if _shard_crash_hook is not None:
        _shard_crash_hook(int(payload["index"]))
    return run_correlated_plan(payload, config)


def _execute(
    worker: Callable[[tuple[dict, CampaignConfig]], dict],
    runner: Callable[[dict, CampaignConfig], dict],
    payloads: list[tuple[dict, CampaignConfig]],
    workers: int,
) -> tuple[list[dict], int]:
    """Run every shard, retrying dead shards once in-process.

    With ``workers > 1`` shards run under a forked
    :class:`~concurrent.futures.ProcessPoolExecutor`.  A shard whose
    worker process dies (a broken pool poisons every outstanding future
    and refuses the shards not yet submitted) or whose run raises is
    re-run exactly once, in-process, via
    ``runner`` — shards are pure functions of ``(plan, config)``, so the
    retry emits the same row the dead worker would have.  Returns
    ``(rows, shard_retries)``.
    """
    if workers <= 1:
        return [worker(args) for args in payloads], 0
    import multiprocessing
    from concurrent.futures import Future, ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    rows: list[dict] = []
    retries = 0
    context = multiprocessing.get_context("fork")
    with ProcessPoolExecutor(max_workers=workers, mp_context=context) as pool:
        futures: list[Future] = []
        for args in payloads:
            try:
                futures.append(pool.submit(worker, args))
            except BrokenProcessPool as broken:
                # A worker died while shards were still being handed out.
                futures.append(Future())
                futures[-1].set_exception(broken)
        for args, future in zip(payloads, futures):
            try:
                rows.append(future.result())
            except Exception:
                retries += 1
                payload, config = args
                rows.append(runner(payload, config))
    return rows, retries


def _baseline(config: CampaignConfig) -> dict:
    """Fault-free defended run — the regret yardstick."""
    from ..faults.plan import FaultPlan

    empty = AdversarialPlan(
        index=-1,
        archetype="baseline",
        favored=None,
        plan=FaultPlan(name="baseline", seed=0, events=()),
    )
    return _run_variant(empty, True, config)


def _correlated_baseline(config: CampaignConfig) -> dict:
    """Fault-free run of the SRLG-defended stack — the E18 yardstick."""
    from ..faults.plan import FaultPlan

    empty = AdversarialPlan(
        index=-1,
        archetype="baseline",
        favored=None,
        plan=FaultPlan(name="baseline", seed=0, events=()),
    )
    return _run_correlated_variant(empty, True, config)


@dataclass
class CampaignReport:
    """Merged campaign results plus the gate verdicts (E17 or E18)."""

    master_seed: int
    workers: int
    config: CampaignConfig
    baseline: dict
    results: list[dict]
    gates: dict
    failures: list[str]
    experiment: str = "E17"
    shard_retries: int = 0

    @property
    def passed(self) -> bool:
        return not self.failures

    def to_json(self) -> str:
        """Stable serialization: sorted keys, no wall-clock anywhere —
        the determinism contract ``cmp`` checks byte-for-byte.  The
        worker count is deliberately *excluded*: 1-vs-N shards must
        produce identical bytes.  ``shard_retries`` stays 0 on a healthy
        run, so crash-free reruns remain byte-identical too."""
        payload = {
            "experiment": self.experiment,
            "shard_retries": self.shard_retries,
            "master_seed": self.master_seed,
            "plans": len(self.results),
            "config": asdict(self.config),
            "baseline": self.baseline,
            "results": self.results,
            "gates": self.gates,
            "failures": self.failures,
            "passed": self.passed,
        }
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _apply_gates(
    results: list[dict], baseline: dict, config: CampaignConfig
) -> tuple[dict, list[str]]:
    failures: list[str] = []
    budget_ms = max(
        config.regret_factor * (baseline["median_ms"] or 0.0),
        config.regret_floor_ms,
    )

    for row in results:
        name = row["name"]
        defended = row["defended"]
        if defended["median_ms"] is None or defended["median_ms"] > budget_ms:
            failures.append(
                f"{name}: defended median regret {defended['median_ms']} ms "
                f"exceeds budget {round(budget_ms, 4)} ms"
            )
        if (
            defended["availability"] is None
            or defended["availability"] < config.availability_slo
        ):
            failures.append(
                f"{name}: defended availability {defended['availability']} "
                f"below SLO {config.availability_slo}"
            )
        if row["favored"] is not None:
            steered = defended.get("steered_s", 0.0)
            if steered > config.telemetry_horizon_s:
                failures.append(
                    f"{name}: defended rode tampered-favored path "
                    f"{steered} s (> {config.telemetry_horizon_s} s horizon)"
                )
            floor = (
                config.min_undefended_steer_horizons * config.telemetry_horizon_s
            )
            undefended_steered = row["undefended"].get("steered_s", 0.0)
            if undefended_steered < floor:
                failures.append(
                    f"{name}: undefended only steered {undefended_steered} s "
                    f"(< {floor} s) — attack not demonstrated"
                )

    mttrs = [
        row["defended"]["mttr_s"]
        for row in results
        if row["defended"]["mttr_s"] is not None
    ]
    mttr_median = round(statistics.median(mttrs), 4) if mttrs else None
    if mttrs and mttr_median > config.mttr_slo_s:
        failures.append(
            f"defended median MTTR {mttr_median} s exceeds SLO "
            f"{config.mttr_slo_s} s"
        )

    defended_medians = [
        row["defended"]["median_ms"]
        for row in results
        if row["defended"]["median_ms"] is not None
    ]
    gates = {
        "regret_budget_ms": round(budget_ms, 4),
        "defended_regret_median_ms": (
            round(statistics.median(defended_medians), 4)
            if defended_medians
            else None
        ),
        "mttr_median_s": mttr_median,
        "mttr_slo_s": config.mttr_slo_s,
        "availability_slo": config.availability_slo,
        "steer_horizon_s": config.telemetry_horizon_s,
    }
    return gates, failures


def _apply_correlated_gates(
    results: list[dict], baseline: dict, config: CorrelatedConfig
) -> tuple[dict, list[str]]:
    failures: list[str] = []
    budget_ms = max(
        config.regret_factor * (baseline["median_ms"] or 0.0),
        config.regret_floor_ms,
    )
    switchover_budget_s = (
        config.switchover_horizons * config.telemetry_horizon_s
    )

    for row in results:
        name = row["name"]
        defended = row["defended"]
        slo = (
            config.availability_two_group_slo
            if row["archetype"] == "two_group"
            else config.availability_slo
        )
        if defended["availability"] is None or defended["availability"] < slo:
            failures.append(
                f"{name}: defended availability {defended['availability']} "
                f"below SLO {slo}"
            )
        if (
            defended["switchover_s"] is None
            or defended["switchover_s"] > switchover_budget_s
        ):
            failures.append(
                f"{name}: defended switchover {defended['switchover_s']} s "
                f"exceeds {switchover_budget_s} s budget"
            )
        if defended["failed_srlg_ticks"] != 0:
            failures.append(
                f"{name}: defended rode a failed risk group for "
                f"{defended['failed_srlg_ticks']} ticks after detection"
            )
        if defended["median_ms"] is None or defended["median_ms"] > budget_ms:
            failures.append(
                f"{name}: defended median regret {defended['median_ms']} ms "
                f"exceeds budget {round(budget_ms, 4)} ms"
            )
        if row["undefended"]["failed_srlg_ticks"] < 1:
            failures.append(
                f"{name}: undefended never rode the failed group — "
                f"fault not demonstrated"
            )

    switchovers = [
        row["defended"]["switchover_s"]
        for row in results
        if row["defended"]["switchover_s"] is not None
    ]
    gates = {
        "regret_budget_ms": round(budget_ms, 4),
        "switchover_budget_s": round(switchover_budget_s, 4),
        "defended_switchover_median_s": (
            round(statistics.median(switchovers), 4) if switchovers else None
        ),
        "frr_switchovers_total": sum(
            row["defended"].get("frr_switchovers", 0) for row in results
        ),
        "availability_slo": config.availability_slo,
        "availability_two_group_slo": config.availability_two_group_slo,
    }
    return gates, failures


def run_campaign(
    count: int,
    master_seed: int,
    workers: int = 1,
    config: Optional[CampaignConfig] = None,
) -> CampaignReport:
    """Generate, shard, run, merge, and gate one campaign.

    ``workers=1`` runs in-process; more fork a process pool with one
    plan per task (dead shards are retried once in-process).  Either way
    the merged report is sorted by plan index and byte-identical for the
    same ``(count, master_seed, config)``.
    """
    config = config or CampaignConfig()
    population = generate_adversarial_plans(count, master_seed)
    payloads = [(adv.to_payload(), config) for adv in population]
    results, retries = _execute(_worker, run_plan, payloads, workers)
    results.sort(key=lambda row: row["index"])
    baseline = _baseline(config)
    gates, failures = _apply_gates(results, baseline, config)
    return CampaignReport(
        master_seed=master_seed,
        workers=workers,
        config=config,
        baseline=baseline,
        results=results,
        gates=gates,
        failures=failures,
        experiment="E17",
        shard_retries=retries,
    )


def run_correlated_campaign(
    count: int,
    master_seed: int,
    workers: int = 1,
    config: Optional[CorrelatedConfig] = None,
) -> CampaignReport:
    """The E18 campaign: correlated-failure plans, SRLG-defended vs
    plain quarantine stack, gated on switchover latency, zero traffic on
    failed risk groups, and availability through a two-group outage.

    Same sharding/merge/determinism contract as :func:`run_campaign`.
    """
    config = config or CorrelatedConfig()
    population = generate_correlated_plans(count, master_seed)
    payloads = [(adv.to_payload(), config) for adv in population]
    results, retries = _execute(
        _correlated_worker, run_correlated_plan, payloads, workers
    )
    results.sort(key=lambda row: row["index"])
    baseline = _correlated_baseline(config)
    gates, failures = _apply_correlated_gates(results, baseline, config)
    return CampaignReport(
        master_seed=master_seed,
        workers=workers,
        config=config,
        baseline=baseline,
        results=results,
        gates=gates,
        failures=failures,
        experiment="E18",
        shard_retries=retries,
    )
