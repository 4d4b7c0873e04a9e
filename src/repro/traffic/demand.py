"""Seeded demand generation: flow classes, arrival processes, surges.

The demand side of the fluid traffic engine.  A :class:`FlowClass`
describes an aggregate of statistically identical flows (web fetches,
video sessions, IoT keepalives, ...) with a Poisson arrival process, a
mean size, and an optional diurnal modulation.
A :class:`DemandModel` groups classes and layers :class:`SurgeWindow`
multipliers on top — the ``demand_surge`` fault kind is a pure data
mutation of the model, nothing is scheduled.

Everything is a deterministic function of (seed, time): a class's
arrival noise is the counter-based normal draw of its :meth:`stream
<DemandModel.stream>` at the interval's midpoint, so replaying a
scenario with the same seed reproduces the demand exactly.
:meth:`DemandModel.arrivals_between` states one interval of one class as
scalars (:func:`~repro.netsim.delaymodels.normal_at`); the fluid engine
evaluates every class of every direction at once on its rows
(:class:`~repro.traffic.vector.FluidRows`: the same expression tree, the
stream hashed once per bucket and the noise drawn a block of steps at a
time with :func:`~repro.netsim.delaymodels.normal_grid`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Optional

from repro.netsim.delaymodels import normal_at
from repro.validate import check_fields, finite, non_negative, positive, probability

_SECONDS_PER_DAY = 86_400.0


@dataclass(frozen=True)
class FlowClass:
    """An aggregate of statistically identical flows.

    ``arrival_rate_per_s`` is the base Poisson arrival rate; by Little's
    law the equilibrium concurrency is ``arrival_rate_per_s *
    mean_duration_s``, which is how the engine seeds ≥1M concurrent
    flows without simulating a warm-up.
    """

    name: str
    flow_label: int
    arrival_rate_per_s: float = field(metadata={"check": non_negative})
    mean_size_bytes: float = field(metadata={"check": positive})
    rate_bps: float = field(metadata={"check": positive})
    diurnal_fraction: float = field(default=0.0, metadata={"check": probability})
    diurnal_phase_s: float = field(default=0.0, metadata={"check": finite})
    seed: int = 0

    def __post_init__(self) -> None:
        check_fields(self)
        if self.diurnal_fraction == 1.0:
            raise ValueError(
                f"diurnal_fraction must be below 1, got {self.diurnal_fraction!r}"
            )

    @property
    def mean_duration_s(self) -> float:
        """Mean flow lifetime at the class transfer rate."""
        return self.mean_size_bytes * 8.0 / self.rate_bps

    @property
    def equilibrium_flows(self) -> float:
        """Little's-law steady-state concurrency at the base rate."""
        return self.arrival_rate_per_s * self.mean_duration_s

    def diurnal_factor(self, t: float) -> float:
        """Sinusoidal day curve around 1.0 (>= 0 by construction)."""
        if self.diurnal_fraction == 0.0:
            return 1.0
        phase = 2.0 * math.pi * (t + self.diurnal_phase_s) / _SECONDS_PER_DAY
        return 1.0 + self.diurnal_fraction * math.sin(phase)


@dataclass(frozen=True)
class SurgeWindow:
    """Multiplicative demand surge over [start, end).

    ``flow_label=None`` applies to every class; otherwise only the
    matching class is scaled.  Stacked windows multiply.
    """

    start: float = field(metadata={"check": finite})
    end: float = field(metadata={"check": finite})
    factor: float = field(metadata={"check": positive})
    flow_label: Optional[int] = None

    def __post_init__(self) -> None:
        check_fields(self)
        if self.end <= self.start:
            raise ValueError(f"end {self.end} must be after start {self.start}")

    def active(self, t: float) -> bool:
        return self.start <= t < self.end


@dataclass
class DemandModel:
    """Traffic matrix for one edge: flow classes plus surge overlays."""

    classes: tuple[FlowClass, ...]
    seed: int = 0
    surges: list[SurgeWindow] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not self.classes:
            raise ValueError("DemandModel needs at least one FlowClass")
        labels = [cls.flow_label for cls in self.classes]
        if len(set(labels)) != len(labels):
            raise ValueError("flow_label values must be unique per class")

    def add_surge(
        self,
        start: float,
        end: float,
        factor: float,
        flow_label: Optional[int] = None,
    ) -> SurgeWindow:
        """Register a surge window (the ``demand_surge`` fault hook; the
        injector refuses a ``flow_label`` no class carries)."""
        window = SurgeWindow(start=start, end=end, factor=factor, flow_label=flow_label)
        self.surges.append(window)
        return window

    def surge_factor(self, flow_label: int, t: float) -> float:
        factor = 1.0
        for window in self.surges:
            if window.active(t) and window.flow_label in (None, flow_label):
                factor *= window.factor
        return factor

    def arrival_rate(self, cls: FlowClass, t: float) -> float:
        """Instantaneous arrival rate: base x diurnal x surges."""
        return (
            cls.arrival_rate_per_s
            * cls.diurnal_factor(t)
            * self.surge_factor(cls.flow_label, t)
        )

    def arrivals_between(self, cls: FlowClass, t0: float, t1: float) -> float:
        """Expected arrivals in [t0, t1) with Poisson-scale jitter.

        Midpoint-rule mean plus a sqrt(lambda)-scaled deterministic
        normal perturbation — the fluid analogue of Poisson count
        variance, reproducible per (seed, class, interval).
        """
        if t1 <= t0:
            return 0.0
        mid = 0.5 * (t0 + t1)
        lam = self.arrival_rate(cls, mid) * (t1 - t0)
        if lam <= 0.0:
            return 0.0
        noise = normal_at(self.stream(cls), mid)
        return max(0.0, lam + math.sqrt(lam) * noise)

    def stream(self, cls: FlowClass) -> int:
        """The counter-RNG stream of ``cls``'s arrival noise in this model."""
        return _mix_seed(self.seed, cls.seed, cls.flow_label)

    def equilibrium_flows(self, cls: FlowClass, t: float) -> float:
        """Little's-law concurrency at the instantaneous rate."""
        return self.arrival_rate(cls, t) * cls.mean_duration_s

    def total_equilibrium_flows(self, t: float = 0.0) -> float:
        return sum(self.equilibrium_flows(cls, t) for cls in self.classes)

    def offered_bps(self, t: float = 0.0) -> float:
        """Aggregate equilibrium offered load across all classes."""
        return sum(
            self.equilibrium_flows(cls, t) * cls.rate_bps for cls in self.classes
        )


@lru_cache(maxsize=4096)
def _mix_seed(*parts: int) -> int:
    """Fold seed components into one 64-bit stream id (SplitMix-style).
    Cached: :meth:`DemandModel.arrivals_between` asks for a class's
    stream again every interval."""
    acc = 0x9E3779B97F4A7C15
    for part in parts:
        acc ^= (part & 0xFFFFFFFFFFFFFFFF) + 0x9E3779B97F4A7C15 + ((acc << 6) & 0xFFFFFFFFFFFFFFFF) + (acc >> 2)
        acc &= 0xFFFFFFFFFFFFFFFF
    return acc


def standard_flow_classes(
    target_concurrent_flows: float = 1_050_000.0,
    seed: int = 0,
) -> tuple[FlowClass, ...]:
    """The standard web/video/iot mix, scaled to a target concurrency.

    At scale 1.0 the mix models ~1.05M concurrent flows offering ~14
    Gbps: 40k web fetches (100 kbps), 10k video sessions (800 kbps),
    and 1M thin long-lived IoT/background flows (2 kbps).  The offered
    load sits well under the ~36 Gbps Vultr aggregate capacity so
    congestion comes from surges and skewed splits, not raw demand.
    """
    positive("target_concurrent_flows", target_concurrent_flows)
    scale = target_concurrent_flows / 1_050_000.0
    web = FlowClass(
        name="web",
        flow_label=1,
        arrival_rate_per_s=26_667.0 * scale,
        mean_size_bytes=18_750.0,
        rate_bps=100e3,
        diurnal_fraction=0.2,
        seed=seed,
    )
    video = FlowClass(
        name="video",
        flow_label=2,
        arrival_rate_per_s=83.3 * scale,
        mean_size_bytes=12e6,
        rate_bps=800e3,
        diurnal_fraction=0.3,
        diurnal_phase_s=21_600.0,
        seed=seed + 1,
    )
    iot = FlowClass(
        name="iot",
        flow_label=3,
        arrival_rate_per_s=2_500.0 * scale,
        mean_size_bytes=100e3,
        rate_bps=2e3,
        seed=seed + 2,
    )
    return (web, video, iot)
