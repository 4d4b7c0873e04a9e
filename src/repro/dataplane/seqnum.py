"""Per-tunnel sequence numbers: loss and reordering detection.

The paper (Section 3): "adding tunnel-specific sequence numbers on packets
can allow Tango to additionally compute loss and reordering."  The sender
stamps a monotonically increasing sequence per tunnel; the receiver tracks
gaps (presumed losses) and late arrivals (reordering), reconciling a
presumed loss back into a reordering event if the packet shows up late.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Sequence

__all__ = ["SequenceStamper", "SequenceTracker", "SequenceStats"]


class SequenceStamper:
    """Sender side: hands out the next sequence number per path."""

    def __init__(self) -> None:
        self._next: dict[int, int] = {}

    def next_for(self, path_id: int) -> int:
        """Next sequence number for ``path_id`` (starts at 0)."""
        value = self._next.get(path_id, 0)
        self._next[path_id] = value + 1
        return value

    def current(self, path_id: int) -> int:
        """How many packets have been stamped on ``path_id``."""
        return self._next.get(path_id, 0)


@dataclass
class SequenceStats:
    """Receiver-side counters for one path."""

    received: int = 0
    duplicates: int = 0
    reordered: int = 0
    presumed_lost: int = 0
    highest_seen: int = -1

    @property
    def loss_fraction(self) -> float:
        """Fraction of sent packets (by sequence space) presumed lost."""
        sent = self.highest_seen + 1
        if sent <= 0:
            return 0.0
        return self.presumed_lost / sent


@dataclass
class _PathState:
    stats: SequenceStats = field(default_factory=SequenceStats)
    missing: set[int] = field(default_factory=set)


class SequenceTracker:
    """Receiver side: classifies arrivals per path.

    Semantics (per path):

    * An arrival above ``highest_seen`` opens a gap: the skipped sequence
      numbers become *presumed lost*.
    * An arrival inside a known gap is a *reordering*: the presumed loss
      is reconciled away.
    * An arrival at or below ``highest_seen`` that is not in a gap is a
      *duplicate*.

    The missing-set is unbounded in theory; ``max_gap_tracking`` bounds it
    (oldest entries are forgotten and remain counted as lost), which is
    what a switch implementation with finite state would do.
    """

    def __init__(self, max_gap_tracking: int = 4096) -> None:
        if max_gap_tracking <= 0:
            raise ValueError("max_gap_tracking must be positive")
        #: Indexing creates on first sight only; pure reads use ``get``.
        self._paths: defaultdict[int, _PathState] = defaultdict(_PathState)
        self._max_gap_tracking = max_gap_tracking

    def observe(self, path_id: int, seq: int) -> str:
        """Record an arrival.  Returns its classification:
        ``"in-order"``, ``"reordered"``, or ``"duplicate"``.
        """
        state = self._paths[path_id]
        stats = state.stats
        stats.received += 1
        if seq > stats.highest_seen:
            for gap_seq in range(stats.highest_seen + 1, seq):
                state.missing.add(gap_seq)
                stats.presumed_lost += 1
            stats.highest_seen = seq
            self._trim(state)
            return "in-order"
        if seq in state.missing:
            state.missing.discard(seq)
            stats.presumed_lost -= 1
            stats.reordered += 1
            return "reordered"
        stats.duplicates += 1
        return "duplicate"

    def record_aggregate(self, path_id: int, delivered: int, lost: int) -> None:
        """Fold an aggregate observation into one path's counters.

        The fluid traffic engine (:mod:`repro.traffic.fluid`) models
        millions of packets per step and cannot stamp individual
        sequence numbers; it reports per-step delivered/lost packet
        totals instead.  Aggregate losses are final — they are *not*
        added to the missing-set, so they can never be reconciled back
        into reorderings — but they advance the sequence space exactly
        as ``delivered + lost`` individually observed packets would,
        keeping :attr:`SequenceStats.loss_fraction` and the downstream
        ``LossMonitor`` bins consistent between packet and fluid modes.
        """
        if delivered < 0 or lost < 0:
            raise ValueError("delivered and lost must be >= 0")
        if delivered == 0 and lost == 0:
            return
        state = self._paths[path_id]
        stats = state.stats
        stats.received += delivered
        stats.presumed_lost += lost
        stats.highest_seen += delivered + lost

    def record_aggregate_many(
        self,
        path_ids: Sequence[int],
        delivered: Sequence[int],
        lost: Sequence[int],
    ) -> None:
        """Fold aligned per-path aggregate observations into the counters.

        The batched twin of :meth:`record_aggregate` for the vectorized
        fluid engine: paths are processed in the given order and
        all-zero pairs are skipped, so the resulting counters are
        identical to an equivalent loop of scalar calls guarded by
        ``if delivered or lost``.
        """
        if not (len(path_ids) == len(delivered) == len(lost)):
            raise ValueError(
                f"length mismatch: {len(path_ids)} paths vs "
                f"{len(delivered)} delivered / {len(lost)} lost"
            )
        paths = self._paths
        for path_id, delivered_n, lost_n in zip(path_ids, delivered, lost):
            if delivered_n < 0 or lost_n < 0:
                raise ValueError("delivered and lost must be >= 0")
            if delivered_n == 0 and lost_n == 0:
                continue
            stats = paths[path_id].stats
            stats.received += delivered_n
            stats.presumed_lost += lost_n
            stats.highest_seen += delivered_n + lost_n

    def _trim(self, state: _PathState) -> None:
        if len(state.missing) <= self._max_gap_tracking:
            return
        overflow = len(state.missing) - self._max_gap_tracking
        for seq in sorted(state.missing)[:overflow]:
            state.missing.discard(seq)

    def stats_for(self, path_id: int) -> SequenceStats:
        """Counters for one path (zeros if never seen)."""
        state = self._paths.get(path_id)
        return state.stats if state else SequenceStats()

    def all_paths(self) -> dict[int, SequenceStats]:
        return {path_id: s.stats for path_id, s in self._paths.items()}
