"""Declarative fault plans: what breaks, when, and for how long.

A :class:`FaultPlan` is data, not code — it can be written as JSON, kept
next to an experiment, and replayed exactly.  Determinism contract: a
plan armed on a freshly built deployment and run with the same seed
produces the identical packet-level outcome every time (the repo-wide
invariant stated in ``repro.netsim.links``).
"""

from __future__ import annotations

import json
import numbers
from dataclasses import dataclass, field, replace
from typing import Any, Mapping

from ..validate import finite, non_negative, positive, probability

__all__ = [
    "FAULT_KINDS",
    "DeploymentShape",
    "FaultEvent",
    "FaultPlan",
    "maintenance_drain_s",
]

#: Kind -> parameters that must be present in ``FaultEvent.params``.
_REQUIRED_PARAMS: dict[str, tuple[str, ...]] = {
    "link_blackhole": ("src", "path"),
    "link_flap": ("src", "path", "period"),
    "loss_burst": ("src", "path", "rate"),
    "delay_spike": ("src", "path", "extra_ms"),
    "bgp_session_down": ("a", "b"),
    "prefix_withdraw": ("edge", "prefix_index"),
    "telemetry_drop": ("edge",),
    "telemetry_loss": ("edge", "rate"),
    "clock_step": ("edge", "step_ms"),
    "controller_crash": ("edge",),
    "demand_surge": ("edge", "factor"),
    # Byzantine-peer kinds: an on-path adversary or a misbehaving clock.
    "telemetry_tamper": ("src", "path", "bias_ms"),
    "telemetry_replay": ("src", "path", "delay_s"),
    "gray_loss": ("src", "path", "rate"),
    "clock_drift": ("edge", "ppm"),
    # Correlated-failure kinds: shared-fate domains, not single links.
    "srlg_failure": ("group",),
    "regional_outage": ("region",),
    "maintenance_window": ("group",),
    # Federation kind: a whole member edge goes dark, including any
    # stitched relay tunnels transiting it.
    "relay_outage": ("member",),
}

FAULT_KINDS = frozenset(_REQUIRED_PARAMS)

#: Kinds that require a positive duration (a zero-length blackhole is a
#: no-op and almost certainly a plan-authoring mistake).
_NEEDS_DURATION = FAULT_KINDS - {"clock_step", "clock_drift", "controller_crash"}

#: Parameters every kind that takes them reads as a float.
_NUMERIC_PARAMS = (
    "period",
    "duty",
    "rate",
    "extra_ms",
    "step_ms",
    "factor",
    "bias_ms",
    "delay_s",
    "ppm",
    "drain_s",
)

#: The range each numeric parameter must be in, wherever it is armed.
_RANGES = (
    ("rate", probability),
    ("period", positive),
    ("duty", positive),
    ("factor", positive),
    ("delay_s", positive),
)

#: Parameters that are indices or counts.
_INT_PARAMS = ("prefix_index", "every", "flow_label")

#: Parameters that name a target in the deployment.
_NAME_PARAMS = ("src", "path", "edge", "a", "b", "group", "region", "member")

#: A flap materialises one loss window per cycle: bound the list.
_MAX_FLAP_CYCLES = 10_000


def maintenance_drain_s(event: "FaultEvent") -> float:
    """Effective drain lead-time of a ``maintenance_window`` event.

    During ``[at, at + drain)`` the group is *draining* — links still
    forward, but the maintenance calendar has announced the window, so a
    make-before-break controller can move traffic with zero loss.  The
    links actually fail at ``at + drain``.  Defaults to half the window
    capped at 0.5 s.
    """
    raw = event.params.get("drain_s")
    if raw is None:
        return min(0.5, event.duration / 2.0)
    return float(raw)


@dataclass(frozen=True)
class FaultEvent:
    """One timed fault.

    Attributes:
        kind: one of :data:`FAULT_KINDS`.
        at: onset, in simulation seconds.
        duration: how long the fault persists; the injector clears it at
            ``at + duration``.  ``clock_step`` treats 0 as permanent.
        params: kind-specific parameters (see ``_REQUIRED_PARAMS``), e.g.
            ``src``/``path`` naming a wide-area link, ``rate`` for bursts.
    """

    kind: str
    at: float
    duration: float = 0.0
    params: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not isinstance(self.kind, str) or self.kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; have {sorted(FAULT_KINDS)}"
            )
        non_negative(f"{self.kind} at (the fault onset)", self.at)
        duration = non_negative(f"{self.kind} duration", self.duration)
        if self.kind in _NEEDS_DURATION and duration <= 0:
            raise ValueError(
                f"{self.kind} duration {duration:g} is zero; the kind needs a "
                "positive duration"
            )
        missing = [
            name for name in _REQUIRED_PARAMS[self.kind] if name not in self.params
        ]
        if missing:
            raise ValueError(
                f"{self.kind} fault missing parameter(s): {', '.join(missing)}"
            )
        object.__setattr__(self, "params", dict(self.params))
        self._check_values()

    def _check_values(self) -> None:
        """The parameter checks that hold whatever the deployment: each
        value of the type, and in the range, that the link, adversary or
        demand class it arms enforces, so a plan that validates also
        arms.  Deployment-dependent checks (targets exist, ``prefix_index``
        in range, the defended stack's clock bound) are
        :meth:`FaultPlan.check`'s."""
        values = {
            name: finite(f"{self.kind} {name}", self.params[name])
            for name in _NUMERIC_PARAMS
            if name in self.params
        }
        for name in _INT_PARAMS:
            value = self.params.get(name, 0)
            if value is None and name == "flow_label":
                continue  # no label: the surge multiplies every class
            if not isinstance(value, numbers.Integral) or isinstance(value, bool):
                raise ValueError(f"{self.kind} {name} {value!r} is not an int")
        for name in _NAME_PARAMS:
            if name in self.params and not isinstance(self.params[name], str):
                raise ValueError(
                    f"{self.kind} {name} {self.params[name]!r} is not a string"
                )
        for name, check in _RANGES:
            if name in values:
                check(f"{self.kind} {name}", values[name])
        period, drain = values.get("period"), values.get("drain_s")
        problem = None
        if period is not None and self.duration / period > _MAX_FLAP_CYCLES:
            problem = (
                f"duration / period must be <= {_MAX_FLAP_CYCLES} flap "
                f"cycles, got {self.duration:g} / {period:g}"
            )
        elif values.get("duty", 0.5) > 1.0:
            problem = f"duty must be <= 1, got {values['duty']:g}"
        elif values.get("bias_ms") == 0:
            problem = "bias_ms must be nonzero"
        elif self.params.get("every", 1) < 1:
            problem = f"every must be >= 1, got {self.params['every']}"
        elif drain is not None and not 0.0 <= drain < self.duration:
            problem = (
                f"drain_s {drain:g} must satisfy 0 <= drain_s < duration "
                f"({self.duration:g})"
            )
        if problem is not None:
            raise ValueError(f"{self.kind} {problem}")

    @property
    def end(self) -> float:
        return self.at + self.duration

    @property
    def target(self) -> str:
        """Human-readable target, e.g. ``ny:GTT`` — used in recovery logs."""
        p = self.params
        if "path" in p:
            return f"{p['src']}:{p['path']}"
        if "a" in p:
            return f"{p['a']}~{p['b']}"
        if "prefix_index" in p:
            return f"{p['edge']}:route[{p['prefix_index']}]"
        if "group" in p:
            return f"group:{p['group']}"
        if "region" in p:
            return f"region:{p['region']}"
        if "member" in p:
            return f"member:{p['member']}"
        return str(p.get("edge", "?"))

    def as_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {"kind": self.kind, "at": self.at}
        if self.duration:
            out["duration"] = self.duration
        out.update(sorted(self.params.items()))
        return out


@dataclass(frozen=True)
class DeploymentShape:
    """What an established deployment offers a fault plan to target.

    Read off a live deployment by its ``shape()`` method and checked
    against by :meth:`FaultPlan.check` — the one place a plan's targets
    are validated, for ``tango-repro lint`` and ``FaultInjector.arm``
    alike.

    Attributes:
        name: deployment label used in problem messages.
        kinds: fault kinds the deployment type can arm; any other kind
            is refused by name.
        bgp_neighbors: per BGP router, the routers it has a session with.
        srlg_groups: risk groups with at least one member link.
        edges: names a plan's ``src`` / ``edge`` parameter may use.
        path_labels: per sending edge, its wide-area path labels.
        route_prefix_counts: per edge, its route prefixes (bounds
            ``prefix_index``).
        regions: named failure regions.
        members: federation members with at least one WAN link.
    """

    name: str
    kinds: frozenset[str]
    bgp_neighbors: Mapping[str, frozenset[str]]
    srlg_groups: frozenset[str]
    edges: tuple[str, ...] = ()
    path_labels: Mapping[str, tuple[str, ...]] = field(default_factory=dict)
    route_prefix_counts: Mapping[str, int] = field(default_factory=dict)
    regions: tuple[str, ...] = ()
    members: tuple[str, ...] = ()


def _target_problems(event: FaultEvent, shape: DeploymentShape) -> list[str]:
    """Why ``event`` cannot arm on a deployment of ``shape`` (empty: it can)."""
    from ..trust.clock import ClockIntegrityMonitor

    if event.kind not in shape.kinds:
        return [
            f"deployment {shape.name!r} takes no {event.kind} faults; it "
            f"takes {', '.join(sorted(shape.kinds))}"
        ]
    params, needs = event.params, _REQUIRED_PARAMS[event.kind]
    problems: list[str] = []

    def unknown(what: str, name: str, have: Any) -> None:
        problems.append(
            f"unknown {what} {name!r}; deployment {shape.name!r} has "
            f"{sorted(have)}"
        )

    edge = next((params[name] for name in ("src", "edge") if name in needs), None)
    if edge is not None and edge not in shape.edges:
        unknown("edge", edge, shape.edges)
    elif "path" in needs:
        labels = shape.path_labels.get(edge, ())
        if params["path"] not in labels:
            problems.append(
                f"edge {edge!r} has no wide-area path {params['path']!r}; "
                f"have {sorted(labels)}"
            )
    elif "prefix_index" in needs:
        count = shape.route_prefix_counts.get(edge, 0)
        if not 0 <= params["prefix_index"] < count:
            problems.append(
                f"prefix_index {params['prefix_index']} out of range for edge "
                f"{edge!r} with {count} route prefixes"
            )
    if "a" in needs:
        a, b = params["a"], params["b"]
        strangers = [r for r in (a, b) if r not in shape.bgp_neighbors]
        for router in strangers:
            unknown("router", router, shape.bgp_neighbors)
        if not strangers and b not in shape.bgp_neighbors[a]:
            problems.append(f"no BGP session between {a!r} and {b!r}")
    if "group" in needs and params["group"] not in shape.srlg_groups:
        unknown("risk group", params["group"], shape.srlg_groups)
    if "region" in needs and params["region"] not in shape.regions:
        unknown("region", params["region"], shape.regions)
    if "member" in needs and params["member"] not in shape.members:
        unknown("federation member", params["member"], shape.members)
    bound = ClockIntegrityMonitor.MAX_TRACKABLE_PPM
    if event.kind == "clock_drift" and abs(params["ppm"]) > bound:
        problems.append(
            f"clock_drift ppm {params['ppm']:g} exceeds the clock-integrity "
            f"monitor's re-estimation bound (|ppm| <= {bound:g}); the "
            "defended controller cannot track it"
        )
    return problems


@dataclass(frozen=True)
class FaultPlan:
    """An ordered chaos campaign: events plus the seed that replays it.

    Events are stored in authoring order; :attr:`timeline` yields them
    sorted by onset (ties broken by authoring order), which is the order
    the injector arms them in.
    """

    name: str
    events: tuple[FaultEvent, ...]
    seed: int = 0

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("plan needs a non-empty name")
        object.__setattr__(self, "events", tuple(self.events))

    @property
    def timeline(self) -> tuple[FaultEvent, ...]:
        indexed = sorted(enumerate(self.events), key=lambda p: (p[1].at, p[0]))
        return tuple(event for _, event in indexed)

    @property
    def horizon(self) -> float:
        """When the last fault has cleared (0.0 for an empty plan)."""
        return max((e.end for e in self.events), default=0.0)

    def check(self, shape: DeploymentShape) -> list[str]:
        """Every reason this plan cannot arm on a deployment of ``shape``,
        each prefixed with its event's index; empty when it can."""
        return [
            f"event #{index}: {problem}"
            for index, event in enumerate(self.events)
            for problem in _target_problems(event, shape)
        ]

    # -- JSON round trip ----------------------------------------------------------

    def to_json(self) -> str:
        """Stable serialization: sorted keys, no insignificant whitespace."""
        payload = {
            "name": self.name,
            "seed": self.seed,
            "events": [e.as_dict() for e in self.events],
        }
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ValueError(f"fault plan is not valid JSON: {exc}") from exc
        if not isinstance(payload, dict):
            raise ValueError("fault plan must be a JSON object")
        raw_events = payload.get("events", [])
        if not isinstance(raw_events, list):
            raise ValueError("fault plan 'events' must be a list")
        events = []
        for i, raw in enumerate(raw_events):
            if not isinstance(raw, dict):
                raise ValueError(f"event #{i} must be a JSON object")
            entry = dict(raw)
            try:
                kind = entry.pop("kind")
                at = entry.pop("at")
            except KeyError as exc:
                raise ValueError(f"event #{i} missing field {exc}") from None
            duration = entry.pop("duration", 0.0)
            try:
                event = FaultEvent(kind=kind, at=at, duration=duration, params=entry)
            except ValueError as exc:
                # FaultEvent's own validation knows nothing about list
                # position; re-raise with the index so a 40-event plan's
                # author learns *which* event is malformed.
                raise ValueError(f"event #{i}: {exc}") from None
            # JSON has one number type: onsets and durations are floats.
            events.append(replace(event, at=float(at), duration=float(duration)))
        seed = payload.get("seed", 0)
        if isinstance(seed, bool) or not isinstance(seed, int):
            raise ValueError(f"fault plan seed {seed!r} is not an int")
        return cls(
            name=str(payload.get("name", "unnamed")),
            seed=seed,
            events=tuple(events),
        )

    @classmethod
    def from_file(cls, path: str) -> "FaultPlan":
        with open(path, "r", encoding="utf-8") as handle:
            return cls.from_json(handle.read())
