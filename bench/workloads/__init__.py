"""Workload registry and the shapes every workload speaks.

A workload turns a seed into *generated inputs* (a fault plan, demand
seeds, a federation seed), builds fresh simulator state from them, runs
one timed window, and reports what came out.  The program under test
only ever sees the generated inputs, never the seed's provenance.
"""

from __future__ import annotations

import hashlib
import statistics
from dataclasses import dataclass, field
from typing import Iterable, Protocol, Union

__all__ = [
    "Check",
    "Outcome",
    "Workload",
    "WORKLOADS",
    "get_workload",
    "median",
    "digest_of",
    "count_changes",
    "store_rows_and_grows",
]


@dataclass(frozen=True)
class Check:
    """One output check: one attempted operation of ``fail_share``."""

    name: str
    ok: bool
    detail: str = ""


@dataclass
class Outcome:
    """What one repetition produced, gathered after the timed window."""

    #: sha256 over the run's deterministic output; equal across reps.
    digest: str
    checks: list[Check]
    #: Median simulated seconds fault onset -> first quarantine (0.0
    #: where the workload injects no path fault).
    sim_detect_s: float
    #: Delivered / offered (1.0 where the workload carries no traffic).
    sim_delivered_share: float
    #: Per-layer values that are not window deltas (peaks, ratios,
    #: outcome-derived counts), keyed by per-layer metric name.
    gauges: dict[str, float] = field(default_factory=dict)


class Workload(Protocol):
    """The five steps the runner drives, in order, once per repetition."""

    name: str

    def plan(self, seed: int, smoke: bool) -> object:
        """Generate this run's inputs from the seed (pure data)."""

    def setup(self, plan: object) -> object:
        """Build fresh state up to the start of the timed window."""

    def run(self, scenario: object) -> None:
        """The timed window."""

    def counters(self, scenario: object) -> dict[str, float]:
        """Cumulative always-on counters, keyed by per-layer metric name;
        the runner reports the difference across the timed window."""

    def finish(self, scenario: object) -> Outcome:
        """Check outputs and summarize (untimed)."""


def median(values: Iterable[float]) -> float:
    """Median, 0.0 of nothing (a workload with no detectable fault)."""
    samples = list(values)
    return statistics.median(samples) if samples else 0.0


def digest_of(parts: Iterable[Union[str, bytes]]) -> str:
    """sha256 over text lines and raw byte blocks, in order."""
    digest = hashlib.sha256()
    for part in parts:
        digest.update(part.encode("utf-8") if isinstance(part, str) else part)
        digest.update(b"\n")
    return digest.hexdigest()


def count_changes(values) -> int:
    """How often consecutive entries of a recorded series differ."""
    return int((values[1:] != values[:-1]).sum()) if len(values) > 1 else 0


def store_rows_and_grows(stores: Iterable[object]) -> tuple[int, int]:
    """Total samples held and reallocations done by measurement stores."""
    rows = grows = 0
    for store in stores:
        for _path_id, series in store.items():
            rows += len(series)
            grows += series.grows
    return rows, grows


def _registry() -> dict[str, Workload]:
    from .chaos_replay import ChaosReplay
    from .federation import FederationEstablish, FederationLive
    from .fluid_many_tunnels import FluidManyTunnels

    workloads = (
        ChaosReplay(),
        FederationEstablish(),
        FederationLive(),
        FluidManyTunnels(),
    )
    return {w.name: w for w in workloads}


#: Workload names in report order (the registry itself imports ``repro``
#: lazily, so listing names needs no simulator on the path).
WORKLOADS = (
    "chaos_replay",
    "federation_establish",
    "federation_live",
    "fluid_many_tunnels",
)


def get_workload(name: str) -> Workload:
    try:
        return _registry()[name]
    except KeyError:
        raise ValueError(
            f"unknown workload {name!r}; have {', '.join(WORKLOADS)}"
        ) from None
