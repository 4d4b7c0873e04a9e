"""Declarative fault plans: what breaks, when, and for how long.

A :class:`FaultPlan` is data, not code — it can be written as JSON, kept
next to an experiment, and replayed exactly.  Determinism contract: a
plan armed on a freshly built deployment and run with the same seed
produces the identical packet-level outcome every time (the repo-wide
invariant stated in ``repro.netsim.links``).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Mapping

__all__ = ["FAULT_KINDS", "FaultEvent", "FaultPlan", "maintenance_drain_s"]

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
_NEEDS_DURATION = frozenset(
    {
        "link_blackhole",
        "link_flap",
        "loss_burst",
        "delay_spike",
        "bgp_session_down",
        "prefix_withdraw",
        "telemetry_drop",
        "telemetry_loss",
        "demand_surge",
        "telemetry_tamper",
        "telemetry_replay",
        "gray_loss",
        "srlg_failure",
        "regional_outage",
        "maintenance_window",
        "relay_outage",
    }
)


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
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; have {sorted(FAULT_KINDS)}"
            )
        if self.at < 0:
            raise ValueError(f"fault onset must be >= 0, got {self.at}")
        if self.duration < 0:
            raise ValueError(f"duration must be >= 0, got {self.duration}")
        if self.kind in _NEEDS_DURATION and self.duration <= 0:
            raise ValueError(f"{self.kind} fault needs a positive duration")
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
        """The parameter checks that hold whatever the scenario: each
        value in the range the link, adversary or demand class it arms
        enforces, so a plan that validates also arms.  Scenario-dependent
        checks (targets exist, ``prefix_index`` in range, the defended
        stack's clock bound) are TNG105's."""
        values: dict[str, float] = {}
        for name in _NUMERIC_PARAMS:
            if name in self.params:
                try:
                    values[name] = float(self.params[name])
                except (TypeError, ValueError):
                    raise ValueError(
                        f"{self.kind} {name} {self.params[name]!r} is not a number"
                    ) from None
        rate, drain = values.get("rate"), values.get("drain_s")
        label = self.params.get("flow_label")
        problem = None
        if rate is not None and not 0.0 <= rate <= 1.0:
            problem = f"rate must be in [0, 1], got {rate:g}"
        elif values.get("factor", 1.0) <= 0:
            problem = f"factor must be > 0, got {values['factor']:g}"
        elif values.get("bias_ms") == 0:
            problem = "bias_ms must be nonzero"
        elif values.get("delay_s", 1.0) <= 0:
            problem = f"delay_s must be > 0, got {values['delay_s']:g}"
        elif drain is not None and not 0.0 <= drain < self.duration:
            problem = (
                f"drain_s {drain:g} must satisfy 0 <= drain_s < duration "
                f"({self.duration:g})"
            )
        elif label is not None and (
            not isinstance(label, int) or isinstance(label, bool)
        ):
            problem = f"flow_label {label!r} is not an int"
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
                at = float(entry.pop("at"))
            except KeyError as exc:
                raise ValueError(f"event #{i} missing field {exc}") from None
            duration = float(entry.pop("duration", 0.0))
            try:
                events.append(
                    FaultEvent(kind=kind, at=at, duration=duration, params=entry)
                )
            except ValueError as exc:
                # FaultEvent's own validation knows nothing about list
                # position; re-raise with the index so a 40-event plan's
                # author learns *which* event is malformed.
                raise ValueError(f"event #{i}: {exc}") from None
        return cls(
            name=str(payload.get("name", "unnamed")),
            seed=int(payload.get("seed", 0)),
            events=tuple(events),
        )

    @classmethod
    def from_file(cls, path: str) -> "FaultPlan":
        with open(path, "r", encoding="utf-8") as handle:
            return cls.from_json(handle.read())
