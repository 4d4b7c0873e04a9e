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
from typing import Mapping, Sequence

import numpy as np

from ..validate import int_in

__all__ = ["SequenceStamper", "SequenceTracker", "SequenceStats"]

#: Rows an aggregate writer may run ahead of its readers before they are
#: folded in anyway, so an unread tracker never owes more than this.
_WRITE_BEHIND_DEPTH = 256


def _check_count(name: str, count: float) -> None:
    """Refuse a negative, NaN, infinite or fractional ``count``."""
    if not (count >= 0 and count % 1 == 0):
        raise ValueError(f"{name} must be a whole count >= 0, got {count!r}")


def _check_counts(name: str, counts: list) -> None:
    """:func:`_check_count` over a list: two C loops for a list of ints
    (their sum is an int only if every count is one)."""
    if type(sum(counts)) is int and min(counts) >= 0:
        return
    for count in counts:
        _check_count(name, count)


def _check_count_array(name: str, counts: np.ndarray) -> None:
    """:func:`_check_count` over an array: an integer array costs its
    ``min`` and nothing more."""
    kind = counts.dtype.kind
    if kind in "iub":
        whole = counts.min() >= 0
    elif kind == "f":
        with np.errstate(invalid="ignore"):  # inf % 1 is NaN, as it should be
            whole = ((counts >= 0) & (counts % 1 == 0)).all()
    else:
        whole = False
    if not whole:
        for count in counts.tolist():
            _check_count(name, count)


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

    Aggregate batches (:meth:`record_aggregate_many`) are write-behind
    when nobody is reading: rows that arrive faster than the counters
    are read are kept whole and summed in by the next call of any other
    method here, so every answer is current.
    """

    def __init__(self, max_gap_tracking: int = 4096) -> None:
        int_in(1)("max_gap_tracking", max_gap_tracking)
        #: Indexing creates on first sight only; pure reads use ``get``.
        self._paths: defaultdict[int, _PathState] = defaultdict(_PathState)
        self._max_gap_tracking = max_gap_tracking
        #: An aggregate batch has landed since the counters were last read.
        self._written = False
        # The open write-behind block: the path ids every staged row is
        # for (a copy — callers grow their id lists in place) and the
        # rows themselves, kept by reference.
        self._block_ids: list[int] = []
        self._block_delivered: list[np.ndarray] = []
        self._block_lost: list[np.ndarray] = []

    def observe(self, path_id: int, seq: int) -> str:
        """Record an arrival.  Returns its classification:
        ``"in-order"``, ``"reordered"``, or ``"duplicate"``.
        """
        if self._written:
            self._sync()
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
        _check_count("delivered", delivered)
        _check_count("lost", lost)
        if self._written:
            self._sync()
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

        The batched twin of :meth:`record_aggregate` for the fluid
        kernel: the counters end up identical to a loop of scalar calls
        in the given path order guarded by ``if delivered or lost`` (an
        all-zero pair never creates a path).  ``delivered`` and ``lost``
        may be numpy integer vectors; they are kept, not copied, so the
        caller must not write to them afterwards.  A batch is all or
        nothing: a length mismatch or a count that is negative, NaN or
        fractional raises here with nothing kept.

        A writer whose previous batch has been read since is folded in
        at once; one that runs ahead of its readers is staged and summed
        a block of rows at a time — at the next read, a batch for other
        paths, or ``_WRITE_BEHIND_DEPTH`` rows.
        """
        count = len(path_ids)
        if not (count == len(delivered) == len(lost)):
            raise ValueError(
                f"length mismatch: {count} paths vs "
                f"{len(delivered)} delivered / {len(lost)} lost"
            )
        if not count:
            return
        if self._written:
            delivered, lost = np.asarray(delivered), np.asarray(lost)
            _check_count_array("delivered", delivered)
            _check_count_array("lost", lost)
            ids = path_ids if type(path_ids) is list else list(path_ids)
            if ids != self._block_ids:
                self._flush()
                self._block_ids = list(ids)
            self._block_delivered.append(delivered)
            self._block_lost.append(lost)
            if len(self._block_lost) == _WRITE_BEHIND_DEPTH:
                self._flush()
            return
        if isinstance(delivered, np.ndarray):
            delivered = delivered.tolist()
        if isinstance(lost, np.ndarray):
            lost = lost.tolist()
        _check_counts("delivered", delivered)
        _check_counts("lost", lost)
        self._fold(path_ids, delivered, lost)
        self._written = True

    def _fold(
        self, path_ids: Sequence[int], delivered: list[int], lost: list[int]
    ) -> None:
        paths = self._paths
        for path_id, delivered_n, lost_n in zip(path_ids, delivered, lost):
            if delivered_n == 0 and lost_n == 0:
                continue
            stats = paths[path_id].stats
            stats.received += delivered_n
            stats.presumed_lost += lost_n
            stats.highest_seen += delivered_n + lost_n

    def _sync(self) -> None:
        """Bring the counters up to date for a reader."""
        self._written = False
        self._flush()

    def _flush(self) -> None:
        """Fold the staged block in: one column sum per counter."""
        if not self._block_lost:
            return
        ids, paths = self._block_ids, self._paths
        delivered = np.array(self._block_delivered)
        lost = np.array(self._block_lost)
        self._block_delivered, self._block_lost = [], []
        totals = delivered.sum(axis=0).tolist(), lost.sum(axis=0).tolist()
        unseen = [
            column
            for column, path_id in enumerate(ids)
            if path_id not in paths and (totals[0][column] or totals[1][column])
        ]
        if unseen:
            # Paths are created in the order the scalar loop meets them:
            # by the first row that counts anything, then by position.
            first_row = ((delivered[:, unseen] + lost[:, unseen]) > 0).argmax(axis=0)
            for _row, column in sorted(zip(first_row.tolist(), unseen)):
                paths[ids[column]]
        self._fold(ids, *totals)

    def _trim(self, state: _PathState) -> None:
        if len(state.missing) <= self._max_gap_tracking:
            return
        overflow = len(state.missing) - self._max_gap_tracking
        for seq in sorted(state.missing)[:overflow]:
            state.missing.discard(seq)

    def stats_for(self, path_id: int) -> SequenceStats:
        """Counters for one path (zeros if never seen)."""
        if self._written:
            self._sync()
        state = self._paths.get(path_id)
        return state.stats if state else SequenceStats()

    def all_paths(self) -> dict[int, SequenceStats]:
        """A new ``{path id: counters}`` of every path seen."""
        return {path_id: s.stats for path_id, s in self.states().items()}

    def states(self) -> Mapping[int, _PathState]:
        """The live per-path states, current as of this call — for a
        reader that walks them every tick and must not copy them; paths
        are only ever added."""
        if self._written:
            self._sync()
        return self._paths
