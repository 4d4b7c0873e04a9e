"""Per-node wall clocks over simulation time.

Tango's measurement soundness rests on a simple observation from the paper
(Section 3): the sending and receiving switches need not share a synchronized
clock, because the *offset* between two free-running clocks is (approximately)
constant, so one-way delays measured through them are all distorted by the
same additive amount and remain comparable *relative to each other*.

This module models that explicitly:

* Simulation time is :attr:`repro.netsim.events.Simulator.now`, written
  only by the simulator's event loop.  All physics (link delays, event
  timing) happen in simulation time.
* :class:`NodeClock` is a node's *wall clock*: the clock an eBPF program or
  a switch ASIC would read.  It maps simulation time to local time through a
  constant offset and an optional frequency drift.  Timestamps carried in
  Tango tunnel headers are wall-clock values, never simulation time, so the
  measurement pipeline sees exactly the distortion a real deployment sees.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from .events import Simulator

__all__ = ["NodeClock"]


@dataclass
class NodeClock:
    """A node's free-running wall clock.

    Attributes:
        sim: the simulator whose time this wall clock derives from.
        offset: constant offset in seconds added to simulation time.  Two
            Tango endpoints typically have different offsets; the difference
            is the constant distortion the paper discusses.
        drift_ppm: frequency error in parts-per-million.  Real oscillators
            drift by tens of ppm; the paper's constant-offset argument holds
            only approximately under drift, which the telemetry layer's
            relative comparisons tolerate.  Defaults to a perfect oscillator.
    """

    sim: "Simulator" = field(repr=False)
    offset: float = 0.0
    drift_ppm: float = 0.0
    _epoch: float = field(default=0.0, repr=False)

    def now(self) -> float:
        """Wall-clock reading in seconds for the current simulation time:
        :meth:`at` of ``sim.now``, written out (it runs per packet)."""
        sim_time = self.sim.now
        elapsed = sim_time - self._epoch
        return sim_time + self.offset + elapsed * (self.drift_ppm * 1e-6)

    def at(self, sim_time: float) -> float:
        """Wall-clock reading for an arbitrary simulation time."""
        elapsed = sim_time - self._epoch
        return sim_time + self.offset + elapsed * (self.drift_ppm * 1e-6)

    def now_ns(self) -> int:
        """Wall-clock reading in integer nanoseconds.

        Tango's tunnel header carries nanosecond timestamps (the eBPF
        prototype reads ``bpf_ktime_get_ns``); quantizing here reproduces
        the precision of the real data plane.
        """
        return round(self.now() * 1e9)

    def set_drift(self, drift_ppm: float, at: float) -> None:
        """Change the oscillator's frequency error at simulation time ``at``.

        The drift accumulated so far is folded into ``offset`` and the
        drift epoch is reset, so the wall-clock reading is continuous at
        the change point — an oscillator retrained by a thermal event does
        not step, it *bends*.  Step changes are a separate operation
        (:meth:`step`).
        """
        self.offset += (at - self._epoch) * (self.drift_ppm * 1e-6)
        self._epoch = at
        self.drift_ppm = drift_ppm

    def step(self, seconds: float) -> None:
        """Discontinuous jump of the wall clock (e.g. an NTP slam)."""
        self.offset += seconds
