"""Arming fault plans on a live deployment.

Two injection styles, chosen per fault kind:

* **Pure time-function wraps** for link-level faults: the link's loss or
  delay process is replaced by a wrapper that overrides it inside the
  fault window (:class:`~repro.netsim.links.OverrideLoss`,
  :func:`~repro.netsim.delaymodels.overlay`).  Nothing is scheduled;
  determinism is structural.
* **Scheduled callbacks at fixed simulation times** for control-plane
  faults (BGP session outage, prefix withdraw/re-announce, telemetry
  silence, clock steps).  The simulator's deterministic event ordering
  makes replays exact.

BGP faults additionally couple the control plane back to the data plane:
after every (dis)connect wave the injector re-checks which tunnels' route
prefixes are still reachable from the sending edge's tenant router and
blackholes the wide-area links of withdrawn ones — traffic to a prefix
the core no longer routes has nowhere to go.  (Simplification: a prefix
that stays reachable over a *different* core path keeps its calibrated
delay process.)
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Optional, Union

from ..bgp.messages import as_prefix
from ..bgp.snapshot import SnapshotCache
from ..netsim.delaymodels import AsymmetryEvent, overlay
from ..netsim.links import (
    ConstantLoss,
    Link,
    LossModel,
    OverrideLoss,
    replace_models,
)
from .adversary import AdversaryChain, GrayLoss, TelemetryReplay, TelemetryTamper
from .plan import FaultEvent, FaultPlan, maintenance_drain_s

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..federation.registry import FederationRegistry
    from ..scenarios.deployment import PacketLevelDeployment

__all__ = ["FaultInjector"]


def _mix(seed: int, index: int) -> int:
    """Per-event draw stream: decorrelate events of one plan."""
    return (seed * 0x9E3779B1 + index * 0x85EBCA77) & 0x7FFFFFFF


class FaultInjector:
    """Arms a :class:`FaultPlan` on an established deployment.

    Args:
        deployment: a :class:`~repro.scenarios.deployment.PacketLevelDeployment`
            or :class:`~repro.federation.registry.FederationRegistry` after
            ``establish()`` — tunnels and wide-area links must exist.
        plan: the campaign to arm.

    Call :meth:`arm` once, before (or during) the simulation run; every
    event earlier than the current simulation time is rejected, so a plan
    cannot silently lose its past.
    """

    def __init__(
        self,
        deployment: Union["PacketLevelDeployment", "FederationRegistry"],
        plan: FaultPlan,
    ) -> None:
        if deployment.state is None:
            raise RuntimeError("deployment must be established before arming faults")
        # Duck-typed over both deployment types: its shape() names the
        # kinds each one arms, and arm() checks a plan against it.
        self.deployment: Any = deployment
        self.plan = plan
        self.armed: list[str] = []
        self._bgp_saved_loss: dict[str, LossModel] = {}
        self._armed = False
        # Overlap guard for stateful (save/apply/restore) faults: two
        # windows targeting the same state hold a shared refcount — the
        # first holder saves and applies, the *last* releaser restores.
        # Without this, the earlier window's expiry restores state out
        # from under the later window, and the later expiry double-
        # restores a stale snapshot.
        self._holds: dict[tuple, int] = {}
        self._held_state: dict[tuple, object] = {}
        # BGP faults alternate between a handful of configurations (the
        # base state and each fault's degraded state), so recovery
        # convergences are snapshot restores after the first occurrence.
        # Shared with the session when one exists: establishment has
        # already cached the pinned base state.
        session = getattr(deployment, "session", None)
        self.snapshots: SnapshotCache = (
            session.snapshots if session is not None else SnapshotCache()
        )

    def _converge_bgp(self) -> None:
        """One control-plane convergence, through the snapshot cache."""
        self.snapshots.converge(self.deployment.bgp)

    # -- overlap-safe stateful transitions ----------------------------------------

    def _acquire(
        self, key: tuple, save: Callable[[], Any], apply: Callable[[], None]
    ) -> bool:
        """Take a hold on ``key``; save + apply only on the first hold.

        Returns True when this call actually changed state (the caller
        then converges/syncs); False when an earlier window already did.
        """
        count = self._holds.get(key, 0)
        self._holds[key] = count + 1
        if count == 0:
            self._held_state[key] = save()
            apply()
            return True
        return False

    def _release(self, key: tuple, restore: Callable[[Any], None]) -> bool:
        """Drop a hold on ``key``; restore only when the last hold clears."""
        count = self._holds.get(key, 0)
        if count <= 0:
            raise RuntimeError(f"release without matching acquire for {key!r}")
        if count == 1:
            del self._holds[key]
            restore(self._held_state.pop(key))
            return True
        self._holds[key] = count - 1
        return False

    def arm(self) -> int:
        """Arm every event of the plan.  Returns the number armed.

        All or nothing: the plan must pass :meth:`FaultPlan.check`
        against this deployment's shape (the check ``tango-repro lint``
        runs), lie in the future, and find every run attachment its
        kinds use.  Otherwise one ValueError lists every problem, and
        nothing has been installed or scheduled.
        """
        if self._armed:
            raise RuntimeError("fault plan already armed")
        now = self.deployment.sim.now
        events = self.plan.events
        problems = self.plan.check(self.deployment.shape()) + [
            f"event #{index}: fault at t={event.at} is in the past (now={now})"
            for index, event in enumerate(events)
            if event.at < now
        ]
        if not problems:
            problems = [
                f"event #{index}: {problem}"
                for index, event in enumerate(events)
                if (problem := self._missing_attachment(event)) is not None
            ]
        if problems:
            raise ValueError("; ".join(problems))
        self._armed = True
        for index, event in enumerate(self.plan.timeline):
            getattr(self, f"_arm_{event.kind}")(event, index)
            self.armed.append(f"{event.kind} {event.target} at={event.at:g}")
        return len(self.armed)

    def _missing_attachment(self, event: FaultEvent) -> Optional[str]:
        """Why the run lacks what ``event`` arms onto, or None.

        The shape says which edges exist; whether a controller, traffic
        engine, reliable channel or mirror is attached at one depends on
        how the run was set up.
        """
        deployment = self.deployment
        edge = event.params.get("edge")
        problem: Optional[str] = None
        try:
            if event.kind == "controller_crash":
                deployment.controller_for(edge)
            elif event.kind == "telemetry_drop":
                deployment.session.mirror_to(edge)
            elif event.kind == "telemetry_loss":
                deployment.session.channel_to(edge)
            elif event.kind == "demand_surge":
                # A surge on a class the engine lacks would multiply nothing.
                engine = deployment.traffic_engine(edge)
                labels = sorted(cls.flow_label for cls in engine.demand.classes)
                label = event.params.get("flow_label")
                if label is not None and label not in labels:
                    problem = (
                        f"no flow class with flow_label {label!r} to surge; "
                        f"known labels: {labels}"
                    )
        except LookupError as exc:
            problem = str(exc.args[0])
        return problem

    # -- link-level faults: pure functions of time ---------------------------------

    def _link(self, event: FaultEvent) -> Link:
        return self.deployment.wan_link(event.params["src"], event.params["path"])

    def _arm_link_blackhole(self, event: FaultEvent, index: int) -> None:
        link = self._link(event)
        replace_models(
            link, loss=OverrideLoss.blackhole(link.loss, event.at, event.end)
        )

    def _arm_link_flap(self, event: FaultEvent, index: int) -> None:
        link = self._link(event)
        replace_models(
            link,
            loss=OverrideLoss.flapping(
                link.loss,
                event.at,
                event.end,
                period=float(event.params["period"]),
                duty=float(event.params.get("duty", 0.5)),
            ),
        )

    def _arm_loss_burst(self, event: FaultEvent, index: int) -> None:
        link = self._link(event)
        replace_models(
            link,
            loss=OverrideLoss.burst(
                link.loss,
                event.at,
                event.end,
                rate=float(event.params["rate"]),
                seed=_mix(self.plan.seed, index),
            ),
        )

    def _arm_delay_spike(self, event: FaultEvent, index: int) -> None:
        link = self._link(event)
        replace_models(
            link,
            delay=overlay(
                link.delay,
                AsymmetryEvent(
                    start=event.at,
                    duration=event.duration,
                    shift=float(event.params["extra_ms"]) * 1e-3,
                ),
            ),
        )

    # -- Byzantine-peer faults: on-path interceptor stages --------------------------

    def _arm_telemetry_tamper(self, event: FaultEvent, index: int) -> None:
        link = self._link(event)
        AdversaryChain.install_on(link).add(
            TelemetryTamper(
                start=event.at,
                end=event.end,
                bias_s=float(event.params["bias_ms"]) * 1e-3,
            )
        )

    def _arm_telemetry_replay(self, event: FaultEvent, index: int) -> None:
        link = self._link(event)
        AdversaryChain.install_on(link).add(
            TelemetryReplay(
                start=event.at,
                end=event.end,
                delay_s=float(event.params["delay_s"]),
                every=int(event.params.get("every", 2)),
            )
        )

    def _arm_gray_loss(self, event: FaultEvent, index: int) -> None:
        link = self._link(event)
        AdversaryChain.install_on(link).add(
            GrayLoss(
                start=event.at,
                end=event.end,
                rate=float(event.params["rate"]),
                seed=_mix(self.plan.seed, index),
            )
        )

    # -- control-plane faults: scheduled callbacks ---------------------------------

    def _arm_bgp_session_down(self, event: FaultEvent, index: int) -> None:
        bgp = self.deployment.bgp
        sim = self.deployment.sim
        a, b = str(event.params["a"]), str(event.params["b"])
        key = ("bgp-session",) + tuple(sorted((a, b)))

        def go_down() -> None:
            if self._acquire(
                key,
                save=lambda: bgp.session_config(a, b),
                apply=lambda: bgp.disconnect(a, b),
            ):
                self._converge_bgp()
                self._sync_bgp_blackholes()

        def come_up() -> None:
            if self._release(key, restore=lambda config: bgp.connect(*config)):
                self._converge_bgp()
                self._sync_bgp_blackholes()

        sim.schedule_at(event.at, go_down)
        sim.schedule_at(event.end, come_up)

    def _arm_prefix_withdraw(self, event: FaultEvent, index: int) -> None:
        deployment = self.deployment
        sim = deployment.sim
        edge = deployment.pairing.edge(str(event.params["edge"]))
        prefix_index = int(event.params["prefix_index"])
        prefix = str(edge.route_prefixes[prefix_index])
        router = deployment.bgp.router(edge.tenant_router)
        key = ("origination", edge.name, prefix_index)

        def withdraw() -> None:
            if self._acquire(
                key,
                save=lambda: router.originated.get(as_prefix(prefix)),
                apply=lambda: router.withdraw_origination(prefix),
            ):
                self._converge_bgp()
                self._sync_bgp_blackholes()

        def reannounce() -> None:
            if self._release(
                key, restore=lambda attributes: router.originate(prefix, attributes)
            ):
                self._converge_bgp()
                self._sync_bgp_blackholes()

        sim.schedule_at(event.at, withdraw)
        sim.schedule_at(event.end, reannounce)

    def _arm_telemetry_drop(self, event: FaultEvent, index: int) -> None:
        deployment = self.deployment
        sim = deployment.sim
        edge_name = str(event.params["edge"])
        mirror, task = deployment.session.mirror_to(edge_name)
        key = ("telemetry-mirror", edge_name)

        def silence() -> None:
            self._acquire(key, save=lambda: None, apply=task.pause)

        def unsilence() -> None:
            def restore(_saved: object) -> None:
                # Reports that should have been delivered during the
                # outage are lost, not batched: discard everything
                # already eligible.
                mirror.discard_before(sim.now - mirror.latency_s)
                task.resume()

            self._release(key, restore=restore)

        sim.schedule_at(event.at, silence)
        sim.schedule_at(event.end, unsilence)

    def _arm_telemetry_loss(self, event: FaultEvent, index: int) -> None:
        """Elevated report-frame loss on the reliable telemetry channel.

        Unlike ``telemetry_drop`` (mirror silenced, reports gone for
        good) this exercises the transport: frames are lost but the
        channel retransmits, so the feed degrades to late rather than
        absent.  Pure time-function wrap — nothing scheduled.
        """
        channel = self.deployment.session.channel_to(str(event.params["edge"]))
        channel.add_loss_window(event.at, event.end, float(event.params["rate"]))

    def _arm_controller_crash(self, event: FaultEvent, index: int) -> None:
        """Kill the edge's controller at the event time.  One-shot: the
        fault has no duration; recovery is the supervisor's job (or
        nobody's, which the run then shows)."""
        deployment = self.deployment
        edge = str(event.params["edge"])
        deployment.sim.schedule_at(
            event.at, lambda: deployment.controller_for(edge).crash()
        )

    def _arm_clock_step(self, event: FaultEvent, index: int) -> None:
        deployment = self.deployment
        sim = deployment.sim
        switch = deployment.switches[str(event.params["edge"])]
        step = float(event.params["step_ms"]) * 1e-3

        def apply() -> None:
            switch.clock.offset += step

        def revert() -> None:
            switch.clock.offset -= step

        sim.schedule_at(event.at, apply)
        if event.duration > 0:
            sim.schedule_at(event.end, revert)

    def _arm_clock_drift(self, event: FaultEvent, index: int) -> None:
        """Oscillator misbehaviour: ppm drift, with an optional step.

        Onset bends the edge's wall clock (continuity preserved by
        :meth:`~repro.netsim.simclock.NodeClock.set_drift`); the optional
        ``step_ms`` adds a discontinuous jump at onset.  A positive
        duration ends the drift at ``event.end`` but the accumulated
        offset error *remains* — exactly the residual the
        ClockIntegrityMonitor has to re-estimate away.
        """
        deployment = self.deployment
        sim = deployment.sim
        clock = deployment.switches[str(event.params["edge"])].clock
        ppm = float(event.params["ppm"])
        step_s = float(event.params.get("step_ms", 0.0)) * 1e-3
        saved: dict[str, float] = {}

        def onset() -> None:
            saved["ppm"] = clock.drift_ppm
            clock.set_drift(ppm, at=sim.now)
            if step_s:
                clock.step(step_s)

        def settle() -> None:
            clock.set_drift(saved["ppm"], at=sim.now)

        sim.schedule_at(event.at, onset)
        if event.duration > 0:
            sim.schedule_at(event.end, settle)

    def _arm_demand_surge(self, event: FaultEvent, index: int) -> None:
        """Multiply offered demand at an edge during the fault window.

        Routed through the fluid traffic engine: a pure data mutation of
        its demand model (a :class:`~repro.traffic.demand.SurgeWindow`),
        nothing scheduled — the engine evaluates the surge as a function
        of time, so replays are structurally deterministic.  Requires a
        :class:`~repro.traffic.vector.VectorFluidEngine` attached at the
        edge (see :meth:`_missing_attachment`).
        """
        engine = self.deployment.traffic_engine(str(event.params["edge"]))
        flow_label = event.params.get("flow_label")
        engine.demand.add_surge(
            event.at,
            event.end,
            float(event.params["factor"]),
            flow_label=None if flow_label is None else int(flow_label),
        )

    # -- correlated failures: shared-fate domains ----------------------------------

    def _srlg_links(self, group: str) -> list[Link]:
        """The network links of ``group`` (a federation also tags its
        stitched links, which fail with their segments)."""
        links = self.deployment.net.links
        return [
            links[name]
            for name in self.deployment.srlg.link_members(group)
            if name in links
        ]

    def _arm_srlg_failure(self, event: FaultEvent, index: int) -> None:
        """Shared-fate failure: every member link of one risk group goes
        dark together for the window (fiber cut on a shared conduit).

        Link loss is a pure time-function wrap per member; the registry's
        refcounted down-marks are scheduled so overlapping windows on the
        same group compose (the group stays down until the last clears).
        """
        sim = self.deployment.sim
        registry = self.deployment.srlg
        group = str(event.params["group"])
        for link in self._srlg_links(group):
            replace_models(
                link, loss=OverrideLoss.blackhole(link.loss, event.at, event.end)
            )
        sim.schedule_at(event.at, lambda: registry.mark_down(group))
        sim.schedule_at(event.end, lambda: registry.clear_down(group))

    def _arm_regional_outage(self, event: FaultEvent, index: int) -> None:
        """Node-scoped correlated failure: a region loses power — its
        risk-group links blackhole AND every BGP session touching its
        routers drops, so the control plane inside the domain vanishes
        with the data plane.  Session teardown shares the refcounted
        ``bgp-session`` holds with ``bgp_session_down``, so cross-kind
        overlaps restore exactly once."""
        deployment = self.deployment
        sim = deployment.sim
        bgp = deployment.bgp
        registry = deployment.srlg
        region = registry.region(str(event.params["region"]))
        for group in region.groups:
            for link in self._srlg_links(group):
                replace_models(
                    link, loss=OverrideLoss.blackhole(link.loss, event.at, event.end)
                )
        sessions = sorted(
            {
                tuple(sorted((router, neighbor)))
                for router in region.routers
                for neighbor in bgp.router(router).neighbors
            }
        )

        def onset() -> None:
            for group in region.groups:
                registry.mark_down(group)
            changed = False
            for a, b in sessions:
                if self._acquire(
                    ("bgp-session", a, b),
                    save=lambda a=a, b=b: bgp.session_config(a, b),
                    apply=lambda a=a, b=b: bgp.disconnect(a, b),
                ):
                    changed = True
            if changed:
                self._converge_bgp()
                self._sync_bgp_blackholes()

        def clear() -> None:
            for group in region.groups:
                registry.clear_down(group)
            changed = False
            for a, b in sessions:
                if self._release(
                    ("bgp-session", a, b),
                    restore=lambda config: bgp.connect(*config),
                ):
                    changed = True
            if changed:
                self._converge_bgp()
                self._sync_bgp_blackholes()

        sim.schedule_at(event.at, onset)
        sim.schedule_at(event.end, clear)

    def _arm_relay_outage(self, event: FaultEvent, index: int) -> None:
        """Federation-scale shared fate: one member edge goes dark.

        Every WAN link touching the member blackholes for the window —
        its own direct traffic dies *and* any stitched relay tunnel
        transiting it loses a segment, which is the failure mode E20's
        fast-reroute gate measures.  The member's ``member:<name>`` fate
        tag is down-marked for the window so SRLG-aware selection and
        quarantine probation see the shared cause.  No BGP state is
        touched: the edge's control plane is assumed to die with its
        data plane only in ``regional_outage``; a relay outage models a
        site-level forwarding loss (power, upstream cut) where paths
        stay advertised but dark — the harder case for detection.
        """
        deployment = self.deployment
        sim = deployment.sim
        registry = deployment.srlg
        member = str(event.params["member"])
        for link in deployment.member_links(member):
            replace_models(
                link, loss=OverrideLoss.blackhole(link.loss, event.at, event.end)
            )
        group = f"member:{member}"
        sim.schedule_at(event.at, lambda: registry.mark_down(group))
        sim.schedule_at(event.end, lambda: registry.clear_down(group))

    def _arm_maintenance_window(self, event: FaultEvent, index: int) -> None:
        """Scheduled maintenance: drain-then-fail on one risk group.

        The window is announced at ``at`` (group marked *draining* —
        links still forward, a make-before-break controller moves
        traffic losslessly), the links actually fail at ``at + drain``,
        and everything clears at ``end``."""
        sim = self.deployment.sim
        registry = self.deployment.srlg
        group = str(event.params["group"])
        fail_at = event.at + maintenance_drain_s(event)
        for link in self._srlg_links(group):
            replace_models(
                link, loss=OverrideLoss.blackhole(link.loss, fail_at, event.end)
            )

        def begin_failure() -> None:
            registry.clear_draining(group)
            registry.mark_down(group)

        sim.schedule_at(event.at, lambda: registry.mark_draining(group))
        sim.schedule_at(fail_at, begin_failure)
        sim.schedule_at(event.end, lambda: registry.clear_down(group))

    # -- BGP reachability -> data-plane coupling -----------------------------------

    def _sync_bgp_blackholes(self) -> None:
        """Blackhole wide-area links whose route prefix the core withdrew,
        and restore them when reachability returns."""
        deployment = self.deployment
        for src in (deployment.pairing.a.name, deployment.pairing.b.name):
            tenant = deployment.pairing.edge(src).tenant_router
            for tunnel in deployment.tunnels(src):
                link = deployment.wan_link(src, tunnel.short_label)
                reachable = deployment.bgp.reachable(
                    tenant, str(tunnel.remote_prefix)
                )
                if not reachable and link.name not in self._bgp_saved_loss:
                    self._bgp_saved_loss[link.name] = link.loss
                    replace_models(link, loss=ConstantLoss(1.0))
                elif reachable and link.name in self._bgp_saved_loss:
                    saved = self._bgp_saved_loss.pop(link.name)
                    replace_models(link, loss=saved)
