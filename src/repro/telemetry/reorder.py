"""Reordering metrics (RFC 4737 flavoured).

Why Tango cares (paper Section 5): during instability, GTT still delivered
*some* packets at the 28 ms floor, but spiked packets arrive late and TCP's
in-order delivery turns one slow packet into a stalled stream.  Quantifying
reordering per path lets policies avoid paths that will wreck transport
performance even when their mean delay looks fine.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["ReorderingReport", "reordering_from_arrivals"]


@dataclass(frozen=True)
class ReorderingReport:
    """Summary of reordering over an arrival sequence."""

    packets: int
    reordered: int
    max_extent: int
    mean_late_time_s: float

    @property
    def reordered_fraction(self) -> float:
        return self.reordered / self.packets if self.packets else 0.0


def reordering_from_arrivals(
    seqs: np.ndarray, arrival_times: np.ndarray
) -> ReorderingReport:
    """Classify arrivals against RFC 4737's "Type-P-Reordered" definition.

    A packet is reordered iff its sequence number is smaller than one seen
    earlier.  ``max_extent`` is the largest number of in-flight later
    packets that overtook a reordered one; ``mean_late_time_s`` averages
    how long after its in-order slot each reordered packet arrived (using
    the arrival of the next-higher already-arrived sequence as reference).
    """
    seqs = np.asarray(seqs, dtype=np.int64)
    arrival_times = np.asarray(arrival_times, dtype=np.float64)
    if seqs.shape != arrival_times.shape:
        raise ValueError("seqs and arrival_times must align")
    packets = int(seqs.size)
    reordered = 0
    max_extent = 0
    late_times: list[float] = []
    highest = -1
    highest_time = 0.0
    for seq, t in zip(seqs, arrival_times):
        seq = int(seq)
        if seq > highest:
            highest = seq
            highest_time = float(t)
            continue
        reordered += 1
        # Extent: how many higher sequence numbers already arrived.
        extent = int(np.sum(seqs[: np.searchsorted(arrival_times, t, "right")] > seq))
        max_extent = max(max_extent, extent)
        late_times.append(float(t) - highest_time)
    mean_late = float(np.mean(late_times)) if late_times else 0.0
    return ReorderingReport(
        packets=packets,
        reordered=reordered,
        max_extent=max_extent,
        mean_late_time_s=mean_late,
    )
