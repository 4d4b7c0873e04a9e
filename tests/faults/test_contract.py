"""The fault-plan contract, searched.

A plan written as JSON meets three gates: ``FaultPlan.from_json`` (types
and ranges), ``FaultPlan.check`` against a deployment's shape (targets),
and ``FaultInjector.arm`` (the same check, then the run's attachments).
Every field of every event is drawn from a shape target, an unknown
name, or a junk value, and each plan must end in exactly one outcome:

(a) ``from_json`` raises a ValueError naming the event index and field;
(b) ``check`` reports problems, and ``arm()`` raises a ValueError that
    contains each of them, with nothing installed;
(c) ``check`` is clean, and ``arm()`` succeeds or refuses only a missing
    run attachment, with nothing installed.

Any other exception type fails the search.
"""

import json
import math
import re

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.policy import StaticSelector
from repro.faults import FAULT_KINDS, FaultInjector, FaultPlan
from repro.faults.plan import _REQUIRED_PARAMS
from repro.federation.registry import FederationRegistry
from repro.scenarios.topologies import build_live_federation
from repro.scenarios.vultr import VultrDeployment

#: Optional parameters a kind reads when present.
OPTIONAL = {
    "link_flap": ("duty",),
    "telemetry_replay": ("every",),
    "demand_surge": ("flow_label",),
    "maintenance_window": ("drain_s",),
    "clock_drift": ("step_ms",),
}
#: Valid values of the fields a shape does not name.
VALUES = {
    "at": (0.5, 1.0, 2.0),
    "duration": (0.5, 1.0, 2.0),
    "period": (0.25, 1.0),
    "duty": (0.5, 1.0),
    "rate": (0.0, 0.3, 1.0),
    "extra_ms": (20.0, -5.0),
    "step_ms": (5.0,),
    "factor": (2.0,),
    "bias_ms": (10.0, -10.0),
    "delay_s": (1.0,),
    "ppm": (100.0, -300.0),
    "drain_s": (0.25,),
    "every": (2, 3),
    "flow_label": (1,),
    "prefix_index": (0, 3),
}
JUNK = (math.nan, math.inf, -math.inf, -1, 0, 0.5, 1e9, None, "x", [1], True)
#: Kinds whose handler arms onto something the run attaches.
ATTACHED = frozenset(
    {"controller_crash", "telemetry_drop", "telemetry_loss", "demand_surge"}
)


def targets(shape, field):
    """The shape's own values for ``field`` (or a valid constant)."""
    if field in ("src", "edge"):
        return shape.edges
    if field == "path":
        return sorted({p for labels in shape.path_labels.values() for p in labels})
    if field in ("a", "b"):
        return sorted(shape.bgp_neighbors)
    named = {
        "group": shape.srlg_groups,
        "region": shape.regions,
        "member": shape.members,
    }
    if field in named:
        return sorted(named[field])
    return VALUES[field]


@st.composite
def plans(draw, shape):
    # Weighted towards the shape, so each outcome is drawn often.
    def value(field):
        pool = draw(st.sampled_from(("target",) * 12 + ("unknown", "junk")))
        if pool == "target" and targets(shape, field):
            return draw(st.sampled_from(list(targets(shape, field))))
        if pool == "unknown":
            return "nowhere"
        return draw(st.sampled_from(JUNK))

    events = []
    for _ in range(draw(st.integers(1, 3))):
        kinds = sorted(shape.kinds) * 3 + sorted(FAULT_KINDS)
        kind = draw(st.sampled_from(kinds))
        params = (*_REQUIRED_PARAMS[kind], *OPTIONAL.get(kind, ()))
        fields = ("at", "duration", *params)
        events.append({"kind": kind, **{field: value(field) for field in fields}})
    seed = draw(st.sampled_from((7,) * 6 + (None, "x")))
    return {"name": "searched", "seed": seed, "events": events}


def installed(deployment):
    """What arming would change: every link's models and interceptor,
    and the pending event count."""
    links = {
        name: (link.loss, link.delay, link.interceptor)
        for name, link in deployment.net.links.items()
    }
    return links, deployment.sim.pending


def assert_one_outcome(payload, deployment):
    try:
        plan = FaultPlan.from_json(json.dumps(payload))
    except ValueError as exc:  # (a)
        message = str(exc)
        if message.startswith("fault plan seed"):
            return
        named = re.match(r"event #(\d+): (\w+) (\w+) ", message)
        index, kind, field = named.groups()
        event = payload["events"][int(index)]
        assert kind == event["kind"] and field in event, message
        return

    problems = plan.check(deployment.shape())
    before = installed(deployment)
    injector = FaultInjector(deployment, plan)
    try:
        injector.arm()
    except ValueError as exc:
        message = str(exc)
        if problems:  # (b)
            assert all(problem in message for problem in problems), message
        else:  # (c), refused
            indices = {int(i) for i in re.findall(r"event #(\d+): ", message)}
            assert indices
            assert all(plan.events[i].kind in ATTACHED for i in indices), message
        assert installed(deployment) == before
        assert injector.armed == []
        return
    assert problems == []  # (c), armed
    assert len(injector.armed) == len(plan.events)


def vultr():
    """Mirrors on, a controller at ``ny`` only, no reliable channel and
    no traffic engine: attachments are found and missing."""
    deployment = VultrDeployment(include_events=False)
    deployment.establish()
    deployment.start_controller("ny", StaticSelector(0))
    return deployment


def federation():
    registry = FederationRegistry(build_live_federation(4))
    registry.establish()
    return registry


SEARCH = settings(
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


@settings(SEARCH, max_examples=150)
@given(st.data())
def test_contract_on_vultr(data):
    deployment = vultr()
    assert_one_outcome(data.draw(plans(deployment.shape())), deployment)


@settings(SEARCH, max_examples=40)
@given(st.data())
def test_contract_on_federation(data):
    registry = federation()
    assert_one_outcome(data.draw(plans(registry.shape())), registry)
