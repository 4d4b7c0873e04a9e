"""Named timers and per-subsystem counters.

The profiler measures *host* wall-clock time (how long the engine takes
to run), never simulation time, and nothing in the simulation consults
it — so it cannot perturb replay determinism.  The clock is held as an
injectable callable: tests pass a fake, and simulation-logic lint
(TNG001) stays meaningful because no simulation module calls a wall
clock directly.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Iterator, Optional

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..bgp.network import BgpNetwork
    from ..netsim.events import Simulator
    from ..netsim.ticks import TickScheduler
    from ..traffic.fluid import FluidEngine

__all__ = ["TimerStat", "Profiler"]


@dataclass
class TimerStat:
    """Accumulated wall-clock statistics for one named timer."""

    calls: int = 0
    total_s: float = 0.0
    max_s: float = 0.0

    def add(self, elapsed: float) -> None:
        self.calls += 1
        self.total_s += elapsed
        if elapsed > self.max_s:
            self.max_s = elapsed

    def as_dict(self) -> dict[str, float]:
        return {
            "calls": self.calls,
            "total_s": self.total_s,
            "max_s": self.max_s,
        }


@dataclass
class Profiler:
    """Collects named timers and integer counters.

    Attach one to a :class:`~repro.bgp.network.BgpNetwork`, a
    :class:`~repro.core.discovery.PathDiscovery`, a simulator, or a
    controller (each exposes an optional ``profiler`` attribute) and the
    subsystem wraps its hot entry points in :meth:`time` spans; the
    always-on cheap counters those subsystems maintain are pulled in with
    the ``capture_*`` helpers.

    Args:
        clock: a ``() -> float`` monotonic second counter.  Defaults to
            the host's performance counter; tests inject a fake.
    """

    clock: Callable[[], float] = field(default=time.perf_counter)
    counters: dict[str, int] = field(default_factory=dict)
    timers: dict[str, TimerStat] = field(default_factory=dict)

    # -- recording ------------------------------------------------------------

    def count(self, name: str, n: int = 1) -> None:
        """Add ``n`` to the named counter."""
        self.counters[name] = self.counters.get(name, 0) + n

    def set_counter(self, name: str, value: int) -> None:
        """Set the named counter to an absolute value."""
        self.counters[name] = value

    def record(self, name: str, elapsed_s: float) -> None:
        """Fold an externally measured duration into the named timer."""
        stat = self.timers.get(name)
        if stat is None:
            stat = self.timers[name] = TimerStat()
        stat.add(elapsed_s)

    @contextmanager
    def time(self, name: str) -> Iterator[None]:
        """Time a block: ``with profiler.time("bgp.converge"): ...``."""
        start = self.clock()
        try:
            yield
        finally:
            self.record(name, self.clock() - start)

    # -- counter capture ------------------------------------------------------

    def capture_network(self, network: "BgpNetwork", prefix: str = "bgp") -> None:
        """Pull a network's always-on counters (and its routers')."""
        self.set_counter(f"{prefix}.convergences", network.convergence_count)
        self.set_counter(f"{prefix}.total_waves", network.total_rounds)
        self.set_counter(f"{prefix}.updates_delivered", network.updates_delivered)
        self.set_counter(
            f"{prefix}.withdrawals_delivered", network.withdrawals_delivered
        )
        self.set_counter(f"{prefix}.routers_scanned", network.routers_scanned)
        self.set_counter(f"{prefix}.snapshot_restores", network.snapshot_restores)
        self.set_counter(
            f"{prefix}.decisions_run",
            sum(router.decisions_run for router in network.routers.values()),
        )

    def capture_simulator(self, sim: "Simulator", prefix: str = "sim") -> None:
        """Pull a simulator's always-on counters."""
        self.set_counter(f"{prefix}.events_processed", sim.events_processed)
        self.set_counter(f"{prefix}.compactions", sim.compactions)
        self.set_counter(f"{prefix}.tombstones_reaped", sim.tombstones_reaped)

    def capture_traffic_engine(
        self, engine: "FluidEngine", prefix: str = "fluid"
    ) -> None:
        """Pull a fluid engine's always-on counters (scalar or vector)."""
        self.set_counter(f"{prefix}.steps_total", engine.steps)
        self.set_counter(
            f"{prefix}.peak_concurrent_flows", int(engine.peak_concurrent_flows)
        )
        self.set_counter(f"{prefix}.splits_recomputed", engine.splits_recomputed)

    def capture_scheduler(
        self, scheduler: "TickScheduler", prefix: str = "ticks"
    ) -> None:
        """Pull a tick scheduler's always-on counters."""
        self.set_counter(f"{prefix}.rounds", scheduler.rounds)
        self.set_counter(f"{prefix}.callbacks_run", scheduler.callbacks_run)
        self.set_counter(f"{prefix}.registered", scheduler.registered)

    # -- emission -------------------------------------------------------------

    def as_dict(self) -> dict[str, object]:
        """JSON-ready view: counters plus per-timer statistics."""
        return {
            "counters": dict(sorted(self.counters.items())),
            "timers": {
                name: stat.as_dict()
                for name, stat in sorted(self.timers.items())
            },
        }

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.as_dict(), indent=indent, sort_keys=True)

    def format_table(self) -> str:
        """Human-readable timer/counter table for the CLI."""
        lines = []
        if self.timers:
            lines.append(f"{'timer':<36} {'calls':>7} {'total s':>10} {'max s':>10}")
            for name, stat in sorted(self.timers.items()):
                lines.append(
                    f"{name:<36} {stat.calls:>7} "
                    f"{stat.total_s:>10.4f} {stat.max_s:>10.4f}"
                )
        if self.counters:
            if lines:
                lines.append("")
            lines.append(f"{'counter':<48} {'value':>12}")
            for name, value in sorted(self.counters.items()):
                lines.append(f"{name:<48} {value:>12}")
        return "\n".join(lines)
