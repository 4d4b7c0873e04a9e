"""Seeded generation of adversarial fault-plan populations.

Each plan is drawn from its own :class:`numpy.random.SeedSequence`
spawned as ``[master_seed, index]`` — the i-th plan is a pure function of
``(master_seed, i)``, independent of how many plans are generated around
it or which worker process later runs it.  That per-plan independence is
what lets the campaign runner shard plans across cores and still merge a
byte-identical report.

The population cycles through five archetypes:

* ``favored_tamper`` — timestamp bias on a truly-worse path sized to
  make it *appear* best (the headline steering attack E17 gates on);
* ``telemetry_replay`` — stale-sample replay with valid tags;
* ``gray_loss`` — silent partial drop with sequence rewriting, hidden
  from the loss ledgers;
* ``clock_drift`` — ppm drift plus an NTP-style step on the victim's
  peer clock (the defense must re-estimate, not re-route);
* ``blackhole`` — a classic active-path blackhole, kept in the mix so
  every campaign also measures plain-fault MTTR under the full stack.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..faults.plan import FaultEvent, FaultPlan
from ..validate import int_in

__all__ = [
    "AdversarialPlan",
    "generate_adversarial_plans",
    "generate_correlated_plans",
    "ARCHETYPES",
    "CORRELATED_ARCHETYPES",
]

#: Generation order; plan ``i`` gets archetype ``ARCHETYPES[i % 5]``.
ARCHETYPES = (
    "favored_tamper",
    "telemetry_replay",
    "gray_loss",
    "clock_drift",
    "blackhole",
)

#: Victim direction every plan attacks (the campaign defends it).
VICTIM = "ny"
PEER = "la"

#: ny->la calibrated base delays (ms) — the tamper generator sizes its
#: bias from the gap to the true best path so the tampered path appears
#: fastest.  Kept in sync with ``repro.scenarios.vultr`` by a test.
_BASE_MS = {"NTT": 36.4, "Telia": 32.0, "GTT": 28.05, "Level3": 40.2}
_TRUE_BEST = "GTT"


@dataclass(frozen=True)
class AdversarialPlan:
    """One generated campaign entry.

    Attributes:
        index: position in the population (the shard-merge sort key).
        archetype: which generator produced it (gate selection key).
        favored: path label a tamper tries to steer onto (None for
            archetypes that do not steer).
        plan: the replayable fault plan itself.
    """

    index: int
    archetype: str
    favored: Optional[str]
    plan: FaultPlan

    def to_payload(self) -> dict:
        """Picklable/serializable form shipped to worker processes."""
        return {
            "index": self.index,
            "archetype": self.archetype,
            "favored": self.favored,
            "plan_json": self.plan.to_json(),
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "AdversarialPlan":
        return cls(
            index=int(payload["index"]),
            archetype=str(payload["archetype"]),
            favored=payload["favored"],
            plan=FaultPlan.from_json(payload["plan_json"]),
        )


def _window(rng: np.random.Generator) -> tuple[float, float]:
    """Attack onset and duration inside the runner's fixed horizon."""
    at = round(float(rng.uniform(3.0, 4.5)), 3)
    duration = round(float(rng.uniform(3.0, 5.0)), 3)
    return at, duration


def _favored_tamper(rng: np.random.Generator, seed: int) -> tuple[FaultEvent, str]:
    label = str(rng.choice(sorted(set(_BASE_MS) - {_TRUE_BEST})))
    gap_ms = _BASE_MS[label] - _BASE_MS[_TRUE_BEST]
    bias_ms = round(gap_ms + float(rng.uniform(4.0, 12.0)), 3)
    at, _ = _window(rng)
    # Long enough that an undefended victim demonstrably steers: the
    # adaptive selector's rolling window adds ~1 s of lag before the
    # tampered path wins, and the E17 gate wants >= 3 steered horizons.
    duration = round(float(rng.uniform(4.5, 6.5)), 3)
    event = FaultEvent(
        "telemetry_tamper",
        at=at,
        duration=duration,
        params={"src": VICTIM, "path": label, "bias_ms": bias_ms},
    )
    return event, label


def _telemetry_replay(rng: np.random.Generator, seed: int) -> FaultEvent:
    label = str(rng.choice(sorted(_BASE_MS)))
    at, duration = _window(rng)
    return FaultEvent(
        "telemetry_replay",
        at=at,
        duration=duration,
        params={
            "src": VICTIM,
            "path": label,
            "delay_s": round(float(rng.uniform(0.5, 1.5)), 3),
            "every": int(rng.integers(2, 4)),
        },
    )


def _gray_loss(rng: np.random.Generator, seed: int) -> FaultEvent:
    # Target the true best path: silent loss on the path the selector
    # rides is the damaging case (an idle path's loss harms nobody).
    at, duration = _window(rng)
    return FaultEvent(
        "gray_loss",
        at=at,
        duration=duration,
        params={
            "src": VICTIM,
            "path": _TRUE_BEST,
            "rate": round(float(rng.uniform(0.2, 0.5)), 3),
        },
    )


def _clock_drift(rng: np.random.Generator, seed: int) -> FaultEvent:
    at, _ = _window(rng)
    return FaultEvent(
        "clock_drift",
        at=at,
        duration=0.0,  # drift persists; the monitor must track it
        params={
            "edge": PEER,
            "ppm": round(float(rng.uniform(50.0, 300.0)) * float(rng.choice([-1.0, 1.0])), 3),
            "step_ms": round(float(rng.uniform(5.0, 20.0)), 3),
        },
    )


def _blackhole(rng: np.random.Generator, seed: int) -> FaultEvent:
    at, duration = _window(rng)
    return FaultEvent(
        "link_blackhole",
        at=at,
        duration=duration,
        params={"src": VICTIM, "path": _TRUE_BEST},
    )


#: Correlated-failure archetypes (the E18 population).  All target the
#: shared-fate structure of the Vultr scenario: Telia and GTT — the two
#: fastest NY→LA paths — exit LA through the same "socal-conduit".
CORRELATED_ARCHETYPES = (
    "shared_srlg",
    "two_group",
    "regional",
    "maintenance",
)

_SHARED_GROUP = "socal-conduit"
_SECOND_GROUP = "level3-backbone"
_REGION = "socal"


def _shared_srlg(rng: np.random.Generator) -> tuple[FaultEvent, ...]:
    """One fiber cut on the conduit both fast paths share."""
    at, duration = _window(rng)
    return (
        FaultEvent(
            "srlg_failure",
            at=at,
            duration=duration,
            params={"group": _SHARED_GROUP},
        ),
    )


def _two_group(rng: np.random.Generator) -> tuple[FaultEvent, ...]:
    """Two overlapping group failures: the shared conduit plus Level3's
    backbone.  During the overlap only NTT survives — the availability
    gate's worst case (>= 0.9 on one remaining path)."""
    at, duration = _window(rng)
    second_at = round(at + float(rng.uniform(0.3, max(duration - 0.8, 0.4))), 3)
    second_duration = round(float(rng.uniform(2.0, 3.5)), 3)
    return (
        FaultEvent(
            "srlg_failure",
            at=at,
            duration=duration,
            params={"group": _SHARED_GROUP},
        ),
        FaultEvent(
            "srlg_failure",
            at=second_at,
            duration=second_duration,
            params={"group": _SECOND_GROUP},
        ),
    )


def _regional(rng: np.random.Generator) -> tuple[FaultEvent, ...]:
    """Metro-scale outage: the socal region's links AND its transit
    routers' BGP sessions go down together."""
    at, duration = _window(rng)
    return (
        FaultEvent(
            "regional_outage",
            at=at,
            duration=duration,
            params={"region": _REGION},
        ),
    )


def _maintenance(rng: np.random.Generator) -> tuple[FaultEvent, ...]:
    """Scheduled drain-then-fail on the shared conduit: the defended
    controller gets advance notice and must switch losslessly."""
    at, duration = _window(rng)
    drain_s = round(float(rng.uniform(0.3, 0.7)), 3)
    return (
        FaultEvent(
            "maintenance_window",
            at=at,
            duration=duration,
            params={"group": _SHARED_GROUP, "drain_s": drain_s},
        ),
    )


def generate_correlated_plans(
    count: int, master_seed: int
) -> list[AdversarialPlan]:
    """The E18 population: ``count`` correlated-failure plans.

    Same purity contract as :func:`generate_adversarial_plans`, with the
    seed sequence namespaced ``[master_seed, index, 18]`` so E17 and E18
    populations generated from the same master seed stay decorrelated.
    """
    int_in(1)("count", count)
    plans: list[AdversarialPlan] = []
    for index in range(count):
        archetype = CORRELATED_ARCHETYPES[index % len(CORRELATED_ARCHETYPES)]
        sequence = np.random.SeedSequence([master_seed, index, 18])
        rng = np.random.Generator(np.random.PCG64(sequence))
        plan_seed = int(rng.integers(0, 2**31 - 1))
        if archetype == "shared_srlg":
            events = _shared_srlg(rng)
        elif archetype == "two_group":
            events = _two_group(rng)
        elif archetype == "regional":
            events = _regional(rng)
        else:
            events = _maintenance(rng)
        plans.append(
            AdversarialPlan(
                index=index,
                archetype=archetype,
                favored=None,
                plan=FaultPlan(
                    name=f"corr-{index:03d}-{archetype}",
                    seed=plan_seed,
                    events=events,
                ),
            )
        )
    return plans


def generate_adversarial_plans(
    count: int, master_seed: int
) -> list[AdversarialPlan]:
    """The campaign population: ``count`` plans, archetypes interleaved.

    Plan ``i`` is a pure function of ``(master_seed, i)``; generating 16
    or 64 plans yields the same first 16.
    """
    int_in(1)("count", count)
    plans: list[AdversarialPlan] = []
    for index in range(count):
        archetype = ARCHETYPES[index % len(ARCHETYPES)]
        sequence = np.random.SeedSequence([master_seed, index])
        rng = np.random.Generator(np.random.PCG64(sequence))
        plan_seed = int(rng.integers(0, 2**31 - 1))
        favored: Optional[str] = None
        if archetype == "favored_tamper":
            event, favored = _favored_tamper(rng, plan_seed)
        elif archetype == "telemetry_replay":
            event = _telemetry_replay(rng, plan_seed)
        elif archetype == "gray_loss":
            event = _gray_loss(rng, plan_seed)
        elif archetype == "clock_drift":
            event = _clock_drift(rng, plan_seed)
        else:
            event = _blackhole(rng, plan_seed)
        plans.append(
            AdversarialPlan(
                index=index,
                archetype=archetype,
                favored=favored,
                plan=FaultPlan(
                    name=f"adv-{index:03d}-{archetype}",
                    seed=plan_seed,
                    events=(event,),
                ),
            )
        )
    return plans
