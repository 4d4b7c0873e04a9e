"""Golden live series: feedback-loop optimisations must not move a sample.

The sha256 digests under ``golden/`` were captured on the commit *before*
the store cursor / series-to-series copy landed.  Each case runs the
whole measurement road — receiver store → mirror or reliable channel →
sender store → controller — and dumps, per gateway, every inbound and
outbound series (raw float bytes), the ``LossMonitor`` series, the
tracker counters and the controller's ``quarantine_log``; a sample
mirrored one report late, dropped, duplicated or reordered shows up here.

Regenerate (only when a change is *meant* to alter what is measured)::

    PYTHONPATH=src:. python tests/federation/test_golden_live.py
"""

import hashlib
from pathlib import Path

import pytest

import repro.traffic.demand as demand_module
import repro.traffic.vector as vector_module
from repro.core.controller import QuarantinePolicy
from repro.faults import FaultEvent, FaultInjector, FaultPlan
from repro.federation import FederationRegistry
from repro.netsim.links import LossModel
from repro.resilience import ChannelConfig
from repro.scenarios.topologies import build_live_federation
from repro.scenarios.vultr import VultrDeployment
from tests import golden

GOLDEN = Path(__file__).parent / "golden" / "live_series.json"


def _series_lines(kind: str, items) -> list[str]:
    lines = []
    for path_id, series in items:
        raw = series.times.tobytes() + series.values.tobytes()
        lines.append(
            f"{kind} {path_id} n={len(series)} "
            f"{hashlib.sha256(raw).hexdigest()}"
        )
    return lines


def dump_gateways(gateways, controllers) -> str:
    """Everything the feedback loop wrote, one line per series/counter."""
    lines = []
    for name in sorted(gateways):
        gateway = gateways[name]
        lines.append(f"gateway {name}")
        lines += _series_lines("in", gateway.inbound.items())
        lines += _series_lines("out", gateway.outbound.items())
        lines += _series_lines("loss", sorted(gateway.loss_monitor.series.items()))
        for path_id, stats in sorted(gateway.tracker.all_paths().items()):
            lines.append(f"tracker {path_id} {stats!r}")
        controller = controllers.get(name)
        for event in controller.quarantine_log if controller else ():
            lines.append(f"q {event!r}")
    return "\n".join(lines) + "\n"


def build_federation_live() -> FederationRegistry:
    """N=4, seed 42, every layer live: mirrors, control plane, traffic on
    all 12 directions and the relay dark from t=3 to t=6.  Not yet run."""
    scenario = build_live_federation(4, seed=42)
    registry = FederationRegistry(scenario)
    registry.establish()
    degraded = scenario.degraded_pair
    stitch = registry.stitch_pair(*degraded)
    registry.start_telemetry()
    registry.start_control_plane(
        focus=[degraded],
        staleness_s=0.5,
        quarantine=QuarantinePolicy(unhealthy_ticks=1, probation_delay_s=1.0),
    )
    names = scenario.member_names
    for src in names:
        for dst in names:
            if src != dst:
                registry.start_traffic(src, dst)
    plan = FaultPlan(
        name="golden-live",
        seed=42,
        events=(
            FaultEvent(
                "relay_outage",
                at=3.0,
                duration=3.0,
                params={"member": stitch.plan.relay},
            ),
        ),
    )
    FaultInjector(registry, plan).arm()
    return registry


def federation_live() -> str:
    registry = build_federation_live()
    registry.sim.run(until=10.0)
    text = dump_gateways(registry.gateways, registry.controllers)
    registry.stop()
    return text


def vultr_two_party(channel: bool) -> str:
    """The two-party packet-mode loop, over the reliable channel (with a
    ``telemetry_loss`` window) or the plain unscoped mirrors; both with a
    ``telemetry_drop`` so ``discard_before`` runs."""
    deployment = VultrDeployment(
        include_events=False,
        telemetry_channel=ChannelConfig(report_interval_s=0.1) if channel else None,
    )
    deployment.establish()
    controllers = {}
    for edge in ("ny", "la"):
        deployment.start_path_probes(edge)
        controllers[edge] = deployment.start_controller(
            edge,
            deployment.gateway(edge).data_selector,
            interval_s=0.1,
            staleness_s=0.5,
            quarantine=QuarantinePolicy(),
        )
    events = [
        FaultEvent("telemetry_drop", at=3.5, duration=1.0, params={"edge": "la"}),
    ]
    if channel:
        events.append(
            FaultEvent(
                "telemetry_loss",
                at=1.0,
                duration=2.0,
                params={"edge": "ny", "rate": 0.3},
            )
        )
    plan = FaultPlan(name="golden-two-party", seed=11, events=tuple(events))
    FaultInjector(deployment, plan).arm()
    deployment.net.run(until=6.0)
    return dump_gateways(deployment.gateways, controllers)


CASES = {
    "federation_4_live": federation_live,
    "vultr_channel": lambda: vultr_two_party(channel=True),
    "vultr_mirror": lambda: vultr_two_party(channel=False),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_live_series_are_byte_identical_to_golden(name):
    assert golden.digest(CASES[name]()) == golden.load(GOLDEN)[name]


def test_a_federation_tick_is_three_heap_events():
    """Counted, host-independent: every direction's fluid step is one
    event, every session's mirror syncs one, the control plane one —
    whatever N is (at the parent commit this run took 2,515: a step event
    per direction and a sync event per mirror)."""
    registry = build_federation_live()
    sim = registry.sim
    assert sim.events_processed == 0
    sim.run(until=10.0)
    ticks = 100
    assert [e.steps for e in registry.engines.values()] == [ticks] * 12
    assert registry.telemetry_scheduler.rounds == ticks + 1  # + the t=0 round
    assert registry.scheduler.rounds == ticks + 1
    fault_events = 2  # relay_outage: mark the member down, clear it
    assert sim.events_processed == 3 * ticks + 2 + fault_events == 304
    registry.stop()


def _loss_model_classes():
    pending, seen = [LossModel], []
    while pending:
        cls = pending.pop()
        seen.append(cls)
        pending += cls.__subclasses__()
    return seen


def test_fluid_step_work_is_counted_exactly(monkeypatch):
    """A federation step's demand and base-loss work, counted on any host.

    12 directions x 1 class x 100 steps; 19 rows: 8 constant-loss, 10
    behind the relay outage's ``OverrideLoss`` (window [3, 6)), 1 stitched
    ``_ComposedLoss``.  At the parent commit the step drew arrival noise
    with one ``normal_at`` per (direction, class) per step (1,200) and
    called ``loss_probability`` once per non-constant row per step plus
    once per constant row (11 x 100 + 8 = 1,108).  Now arrival noise is
    one block draw for up to 256 steps, and a row's loss is evaluated at
    its change points only: 8 constants once, 10 overrides at the first
    step and both window edges, the live composition every step.
    """
    calls = {"normal_at": 0, "normal_grid": 0, "loss_probability": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        return wrapper

    monkeypatch.setattr(
        demand_module, "normal_at", counted("normal_at", demand_module.normal_at)
    )
    monkeypatch.setattr(
        vector_module, "normal_grid", counted("normal_grid", vector_module.normal_grid)
    )
    nested = []  # an override's inner model, a composition's segments

    def outermost(fn):
        def wrapper(model, t):
            if not nested:
                calls["loss_probability"] += 1
            nested.append(model)
            try:
                return fn(model, t)
            finally:
                nested.pop()

        return wrapper

    registry = build_federation_live()
    for cls in _loss_model_classes():
        if "loss_probability" in vars(cls):
            monkeypatch.setattr(
                cls, "loss_probability", outermost(vars(cls)["loss_probability"])
            )
    models = [type(link.loss).__name__ for link in registry.traffic._links]
    assert sorted(models) == ["ConstantLoss"] * 8 + ["OverrideLoss"] * 10 + [
        "_ComposedLoss"
    ]
    registry.sim.run(until=10.0)
    assert [e.steps for e in registry.engines.values()] == [100] * 12
    assert calls == {
        "normal_at": 0,
        "normal_grid": 1,
        "loss_probability": 8 + 10 * 3 + 100,
    }
    registry.stop()


if __name__ == "__main__":
    golden.regenerate(
        GOLDEN, {name: golden.digest(run()) for name, run in sorted(CASES.items())}
    )
