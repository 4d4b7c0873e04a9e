"""Fluid mass conservation, checked against the generated demand.

The fluid engines account every offered packet as delivered or lost in
the sender's sequence tracker.  What they were *offered* is a function
of the demand model alone (Little's-law seeding, then arrivals minus
mean-field departures per step), so the benchmark recomputes it here
from the generated inputs and compares it with what the ledgers hold.
"""

from __future__ import annotations

from typing import Iterable

from repro.traffic.demand import DemandModel

__all__ = ["offered_packets", "ledger_totals", "conserved"]

_PACKET_BITS = 1500 * 8.0


def offered_packets(
    demand: DemandModel, start_s: float, step_s: float, steps: int
) -> float:
    """Packets the demand offers over ``steps`` engine steps from
    ``start_s`` (the engine's default 1500-byte packets)."""
    flows = {
        cls.flow_label: demand.equilibrium_flows(cls, start_s)
        for cls in demand.classes
    }
    bits = 0.0
    now = start_s
    for _ in range(steps):
        previous, now = now, now + step_s
        dt = now - previous
        for cls in demand.classes:
            count = flows[cls.flow_label]
            rate = count * cls.rate_bps * demand.surge_factor(cls.flow_label, now)
            if rate > 0:
                bits += rate * dt
            arrivals = demand.arrivals_between(cls, now - dt, now)
            departures = count * dt / cls.mean_duration_s
            flows[cls.flow_label] = max(0.0, count + arrivals - departures)
    return bits / _PACKET_BITS


def ledger_totals(trackers: Iterable[object]) -> tuple[int, int]:
    """(delivered, lost) packets summed over sequence trackers."""
    delivered = lost = 0
    for tracker in trackers:
        for stats in tracker.all_paths().values():
            delivered += stats.received
            lost += stats.presumed_lost
    return delivered, lost


def conserved(offered: float, delivered: int, lost: int, n_tunnels: int) -> bool:
    """``offered = carried + lost`` within 1e-9 relative, plus the
    ledgers' integer carry (under one packet per counter per tunnel)."""
    slack = 1e-9 * offered + 2.0 * n_tunnels
    return abs(offered - (delivered + lost)) <= slack
