"""Time-series storage for per-path measurements.

A :class:`TimeSeries` is an append-friendly (time, value) column pair that
exposes numpy views for analysis; a :class:`MeasurementStore` keys series
by Tango path id.  The store is the boundary between the data plane
(which appends one sample per received packet) and the policy/analysis
layers (which read windows and summaries).

Every written series is a column of a :class:`_ColumnBlock`: one time
column and one value matrix.  A lone series is a block of width 1; a wide
aggregate writer names the same paths at the same times, so its series
share one block and the store holds their times once.  A block's members
are fixed when it is made, and every member holds exactly the block's
rows.  So one rule serves every writer: a write that names only some of
a block's members splits the block first, at its capacity, into the
named and the unnamed, and then each block it names takes one row
write.  Every array holds about the rows written to it: a block starts at
``_INITIAL_CAPACITY`` rows and doubles.
"""

from __future__ import annotations

import sys
from bisect import bisect_left, bisect_right, insort
from collections import defaultdict
from operator import itemgetter
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

__all__ = ["TimeSeries", "MeasurementStore", "StoreCursor"]

#: Rows of a block's first arrays; every later allocation doubles them.
_INITIAL_CAPACITY = 128

#: A column block this wide starts at ``_WIDE_CAPACITY`` rows rather than
#: at ``_INITIAL_CAPACITY``: at 128 rows its matrix is already 128 KiB
#: (glibc's default mmap threshold), and a 256-wide block doubling from
#: 128 rows read 1.0 MB more peak RSS on ``fluid_many_tunnels`` than one
#: doubling from 1,024.
_WIDE_BLOCK = 128
_WIDE_CAPACITY = 1024

#: Rows an aggregate writer may run ahead of its readers before they are
#: written anyway, so an unread store never owes more than this.
_WRITE_BEHIND_DEPTH = 256

_INF = float("inf")
#: The last time of a series with no sample: the lowest finite float, so
#: one chained comparison ``last <= t < inf`` refuses a time that goes
#: backwards, NaN and both infinities.
_NO_TIME = -sys.float_info.max
#: The arrays of a series nothing has been written to.
_EMPTY = np.empty(0, dtype=np.float64)
_EMPTY.flags.writeable = False


def _time_error(t: float, last: float) -> ValueError:
    after = "" if last == _NO_TIME else f" after {last}"
    return ValueError(f"time went backwards or is NaN or infinite: {t}{after}")


class TimeSeries:
    """Append-optimized (time, value) series backed by numpy arrays.

    Appends are amortized O(1) via geometric over-allocation and a length
    cursor; reads return zero-copy views of the filled region.  A new
    series holds no arrays; its first write makes it a block of width 1
    with ``_INITIAL_CAPACITY`` rows.  The hot path keeps everything in
    Python scalars (the last time is cached as a float, the rows it may
    write on its own as an int), so one ``append`` is two array-cell
    stores plus comparisons — no numpy scalar boxing, no ``len()`` of the
    backing array.  Times must be non-decreasing and finite (they come
    from a monotonic simulation clock); violations raise immediately,
    because a disordered series silently corrupts windowed statistics.
    The guard is spelled ``last <= t < inf`` so that a NaN time, which
    compares False both ways and would switch it off for good, is
    rejected too, and so is an infinite one, after which no finite time
    could follow.
    """

    __slots__ = (
        "_times", "_values", "_size", "_capacity", "_last_t", "grows", "_columns"
    )

    def __init__(self) -> None:
        self._times = self._values = _EMPTY
        self._size = 0
        #: Rows this series may hold before a write of its own needs
        #: :meth:`_room`: its block's capacity while it is alone in it,
        #: else 0 (no block yet, or a wider one it must leave first).
        self._capacity = 0
        self._last_t = _NO_TIME
        #: Number of reallocations so far, the first arrays not counted
        #: (observable: growth must stay logarithmic in the appends).
        self.grows = 0
        #: The column block whose views ``_times`` / ``_values`` are;
        #: None until the first write.
        self._columns: Optional[_ColumnBlock] = None

    def append(self, t: float, value: float) -> None:
        """Add a sample at time ``t``."""
        if not (self._last_t <= t < _INF):
            raise _time_error(t, self._last_t)
        size = self._size
        if size >= self._capacity:
            self._room(size + 1)
        self._times[size] = t
        self._values[size] = value
        self._size = size + 1
        self._last_t = t

    def extend(self, times: np.ndarray, values: np.ndarray) -> None:
        """Bulk-append aligned 1-D arrays."""
        times = np.asarray(times, dtype=np.float64)
        values = np.asarray(values, dtype=np.float64)
        if times.shape != values.shape:
            raise ValueError(
                f"shape mismatch: times {times.shape} vs values {values.shape}"
            )
        if times.ndim != 1:
            raise ValueError(f"extend takes 1-D arrays, got shape {times.shape}")
        if times.size == 0:
            return
        if not np.all(np.diff(times) >= 0):
            raise ValueError("times must be non-decreasing")
        self._extend_ordered(times, values)

    def extend_from(self, other: "TimeSeries", start: int, end: int) -> None:
        """Append rows ``start:end`` of ``other`` (series-to-series copy).

        ``other``'s own invariant already orders the slice and keeps NaN
        out of it, so only the seam — its first row against this series'
        last — is checked; raw arrays go through :meth:`extend`.
        """
        if not 0 <= start <= end <= other._size:
            raise IndexError(f"rows {start}:{end} outside a series of {other._size}")
        if end > start:
            self._extend_ordered(other._times[start:end], other._values[start:end])

    def _extend_ordered(self, times: np.ndarray, values: np.ndarray) -> None:
        """Append a non-empty ordered run after checking its ends, through
        this series' own views as :meth:`append` writes: a mirror's copy
        is one call here, not one into its block."""
        if not (self._last_t <= times[0] and times[-1] < _INF):
            raise ValueError(
                "bulk append would go backwards in time or is NaN or infinite"
            )
        size = self._size
        needed = size + times.size
        if needed > self._capacity:
            self._room(needed)
        self._times[size:needed] = times
        self._values[size:needed] = values
        self._size = needed
        self._last_t = float(times[-1])

    def _room(self, needed: int) -> None:
        """Room for ``needed`` rows of this series' own, alone in a block:
        its first, or its own part of a wider one (split at that one's
        capacity), doubled until it holds them."""
        block = self._columns
        if block is None:
            block = _ColumnBlock([self], _INITIAL_CAPACITY)
        elif len(block.members) > 1:
            block = block.split([self])
        block.reserve(needed)

    @property
    def times(self) -> np.ndarray:
        """View of sample times (do not mutate)."""
        return self._times[: self._size]

    @property
    def values(self) -> np.ndarray:
        """View of sample values (do not mutate)."""
        return self._values[: self._size]

    def window(self, t0: float, t1: float) -> tuple[np.ndarray, np.ndarray]:
        """Samples with ``t0 <= time < t1`` as (times, values) views."""
        lo = self.count_before(t0)
        # A trailing window's end is past the last row: no search.
        hi = self._size if t1 > self._last_t else self.count_before(t1)
        return self._times[lo:hi], self._values[lo:hi]

    def count_before(self, t: float) -> int:
        """Rows with time ``< t``."""
        return int(self._times[: self._size].searchsorted(t))

    @property
    def last_time(self) -> Optional[float]:
        """Time of the most recent sample, or None when empty.

        The freshness primitive: staleness checks (controller health,
        quarantine decisions) are ``now - last_time`` comparisons.
        """
        return float(self._last_t) if self._size else None

    @property
    def last_value(self) -> Optional[float]:
        """Value of the most recent sample, or None when empty.

        The None-returning companion of :attr:`last_time` — callers that
        would otherwise index ``values[-1]`` (IndexError on an empty
        series) get the same consistent empty-series contract.
        """
        if not self._size:
            return None
        return float(self._values[self._size - 1])

    def mean(self) -> float:
        """Mean value over the whole series (nan when empty)."""
        if not self._size:
            return float("nan")
        # ``float(np.mean(...))`` bit for bit, as in ``recent_delay``.
        return float(np.add.reduce(self._values[: self._size])) / self._size

    def percentile(self, q: float) -> float:
        """Value percentile (q in [0, 100]; nan when empty)."""
        return float(np.percentile(self.values, q)) if self._size else float("nan")

    def __len__(self) -> int:
        return self._size

    def __repr__(self) -> str:
        if not self._size:
            return "TimeSeries(empty)"
        return (
            f"TimeSeries(n={self._size}, "
            f"t=[{self.times[0]:.3f}, {self.times[-1]:.3f}])"
        )

    def __getstate__(self) -> tuple:
        # No arrays: the block holds them, and a copied block binds its
        # copied members to its own (``_ColumnBlock.__setstate__``).
        return self._size, self._last_t, self.grows, self._columns

    def __setstate__(self, state: tuple) -> None:
        self._size, self._last_t, self.grows, self._columns = state
        if self._columns is None:
            self._times = self._values = _EMPTY
            self._capacity = 0


def _first_capacity(width: int) -> int:
    """Rows of a ``width``-path column block's first arrays."""
    return _WIDE_CAPACITY if width >= _WIDE_BLOCK else _INITIAL_CAPACITY


class _ColumnBlock:
    """One time column and one value matrix for a fixed list of series.

    Member ``j`` is a :class:`TimeSeries` whose ``_times`` is the block's
    time column and whose ``_values`` is column ``j`` of a row-major
    (capacity x width) matrix — a strided view — so every reader of a
    series runs unchanged.  Row-major keeps the unwritten capacity one
    contiguous tail that is never touched: numpy asks the kernel for
    transparent huge pages on a large array, and a column-major block's
    first write to each column faulted in that column's headroom too.

    Every member holds exactly the block's rows, so a write is one row
    (or one run of rows) for all of them, on the doubling schedule of a
    lone series: each member's ``grows`` is what its own arrays would
    have had.  A write for only some members :meth:`split`\\ s the block
    first; the block it leaves is dead (no members, no arrays), which is
    what tells a kept plan naming it that the plan is stale.
    """

    __slots__ = ("members", "times", "values", "capacity")

    def __init__(self, members: list[TimeSeries], capacity: int) -> None:
        """Empty arrays of ``capacity`` rows, each member's views of them
        (the caller copies any filled rows in)."""
        self.members, self.capacity = members, capacity
        self.times = np.empty(capacity, dtype=np.float64)
        self.values = np.empty((capacity, len(members)), dtype=np.float64)
        own = capacity if len(members) == 1 else 0
        for column, member in enumerate(members):
            member._times, member._values = self.times, self.values[:, column]
            member._capacity, member._columns = own, self

    @property
    def rows(self) -> int:
        """Rows written: every member's size."""
        return self.members[0]._size

    def reserve(self, needed: int) -> None:
        """Room for ``needed`` rows: the arrays double until they hold
        them, in one allocation.  No call inside, so a lone series'
        growth is two Python calls (``TimeSeries._room`` and this)."""
        capacity = self.capacity
        if needed <= capacity:
            return
        doublings = 0
        while needed > capacity:
            capacity *= 2
            doublings += 1
        members = self.members
        rows = members[0]._size
        times = np.empty(capacity, dtype=np.float64)
        values = np.empty((capacity, len(members)), dtype=np.float64)
        times[:rows] = self.times[:rows]
        values[:rows] = self.values[:rows]
        self.times, self.values, self.capacity = times, values, capacity
        own = capacity if len(members) == 1 else 0
        for column, member in enumerate(members):
            member._times, member._values = times, values[:, column]
            member._capacity = own
            member.grows += doublings

    def split(self, named: list[TimeSeries]) -> _ColumnBlock:
        """Two blocks at this one's capacity, holding its rows: ``named``
        (some of the members, columns in that order) and the others.
        Returns the named one; this block is dead from here on."""
        rows, keep = self.rows, set(map(id, named))
        where = {id(member): j for j, member in enumerate(self.members)}
        rest = [member for member in self.members if id(member) not in keep]
        for part in (rest, named):  # the named one last: it is returned
            block = _ColumnBlock(part, self.capacity)
            block.times[:rows] = self.times[:rows]
            # ``take`` writes the new block directly: a fancy-indexed copy
            # of a wide block is a temporary as large as the block
            # (``mode="clip"`` is what allows ``out``; the columns are in
            # range).
            columns = [where[id(member)] for member in part]
            np.take(
                self.values[:rows], columns, axis=1, out=block.values[:rows], mode="clip"
            )
        self.members, self.times, self.values = [], _EMPTY, _EMPTY
        return block

    def append_row(self, t: float, values: Sequence[float] | np.ndarray) -> None:
        """One sample per member at time ``t`` (checked by the caller),
        ``values`` in column order."""
        rows = self.rows
        if rows == self.capacity:
            self.reserve(rows + 1)
        self.times[rows] = t
        self.values[rows] = values
        rows += 1
        for member in self.members:
            member._size = rows
            member._last_t = t

    def write_rows(self, times: Sequence[float] | np.ndarray, rows: object) -> None:
        """Rows ``rows`` (one per time, each in column order) at times
        ``times`` (checked by the caller)."""
        start = self.rows
        end = start + len(times)
        self.reserve(end)
        self.times[start:end] = times
        self.values[start:end] = rows
        last = float(times[-1])
        for member in self.members:
            member._size = end
            member._last_t = last

    def __getstate__(self) -> tuple:
        # The filled rows and the capacity, not the arrays: the headroom
        # was never written, so it is neither copied nor compared.  The
        # members follow by reference and are bound in ``__setstate__``.
        rows = self.rows
        return self.members, self.times[:rows], self.values[:rows], self.capacity

    def __setstate__(self, state: tuple) -> None:
        members, times, values, capacity = state
        _ColumnBlock.__init__(self, members, capacity)
        self.times[: times.size] = times
        self.values[: times.size] = values


#: Where a batch writes in one block: the block, and the batch positions
#: of its columns — an ``itemgetter`` for one row, an index vector for a
#: run of rows — or None twice when the batch is the block, in order.
_Write = tuple[_ColumnBlock, Optional[itemgetter], Optional[np.ndarray]]


def _last_written(plan: list[_Write]) -> Optional[float]:
    """The latest sample time in ``plan``'s blocks, or None when one of
    them has been split since (the plan is stale)."""
    last = _NO_TIME
    for block, _, _ in plan:
        if not block.members:
            return None
        if block.members[0]._last_t > last:
            last = block.members[0]._last_t
    return last


class MeasurementStore:
    """Per-path one-way-delay series, plus arbitrary named series.

    The canonical consumer pattern: the Tango receiver program calls
    :meth:`record` per packet; path-selection policies call
    :meth:`recent_delay` / :meth:`series`; reports iterate
    :meth:`path_ids`.

    Aggregate writes (:meth:`record_aggregate_many`) are write-behind
    when nobody is reading: rows that arrive faster than the store is
    read are kept whole and folded into the series by the next call of
    any other method here (or of a :class:`StoreCursor`), so every
    answer is current.  A :class:`TimeSeries` handed out earlier is
    current as of the call that returned it.
    """

    #: An aggregate write has landed since the store was last read.
    #: The class-level value serves a subclass that builds ``_series``
    #: itself; ``__init__`` sets it again because the readers' test of
    #: it is 5 ns on an instance attribute and 25 ns through the class.
    _written = False

    def __init__(self) -> None:
        self._written = False
        #: The one get-or-create: indexing builds a series only on a
        #: miss; reads that must not create use ``get`` / ``in``.
        self._series: defaultdict[int, TimeSeries] = defaultdict(TimeSeries)
        #: Per batch id list, where it writes (:meth:`_plan`); a plan
        #: holds while none of its blocks has been split.
        self._plans: dict[tuple[int, ...], list[_Write]] = {}
        # The open write-behind block: the path ids every staged row is
        # for (a copy — callers grow their id lists in place), and per
        # row its time and its values, kept by reference.
        self._block_ids: list[int] = []
        self._block_times: list[float] = []
        self._block_rows: list[np.ndarray] = []

    def __getstate__(self) -> dict:
        # A copy plans its batches afresh: a kept plan may hold dead blocks.
        return {**self.__dict__, "_plans": {}}

    def record(self, path_id: int, t: float, owd_s: float) -> None:
        """Append one one-way-delay sample for ``path_id``."""
        if self._written:
            self._sync()
        self._series[path_id].append(t, owd_s)

    def extend(self, path_id: int, times: np.ndarray, owds: np.ndarray) -> None:
        """Bulk-append samples for ``path_id``."""
        if self._written:
            self._sync()
        self._series[path_id].extend(times, owds)

    def extend_block(
        self, path_ids: Sequence[int], times: np.ndarray, owds: np.ndarray
    ) -> None:
        """Bulk-append a (len(times) x len(path_ids)) matrix: column ``j``
        is ``path_ids[j]``'s samples, at ``times``.

        The series equal those of :meth:`extend` per column.  The paths
        with no sample yet become one column block — one time column, the
        values once — and a block the ids name only some members of is
        split first.  All or nothing: a shape mismatch, a repeated id, or
        times that are disordered, not finite or behind a named series
        raise here with nothing kept.
        """
        if self._written:
            self._sync()
        ids = list(path_ids)
        times = np.asarray(times, dtype=np.float64)
        owds = np.asarray(owds, dtype=np.float64)
        if times.ndim != 1 or owds.shape != (times.size, len(ids)):
            raise ValueError(
                f"shape mismatch: times {times.shape} and {len(ids)} paths "
                f"vs samples {owds.shape}"
            )
        if len(set(ids)) < len(ids):
            raise ValueError(f"a path id repeats in {ids}")
        if not times.size or not ids:
            return
        if not np.all(np.diff(times) >= 0):
            raise ValueError("times must be non-decreasing")
        last = self._last_of(ids)
        if not (last <= times[0] and times[-1] < _INF):
            raise _time_error(float(times[0]), last)
        self._write_rows(ids, times, owds)

    def record_aggregate_many(
        self,
        path_ids: Sequence[int],
        t: float,
        owds_s: Sequence[float],
    ) -> None:
        """Append one sample per path at a single time ``t``.

        The batched twin of :meth:`record` for aggregate engines (the
        fluid kernel records one delay per tunnel per step): the series
        end up byte-identical to the equivalent :meth:`record` loop in
        the given path order.  ``owds_s`` may be a numpy vector; it is
        kept, not copied, so the caller must not write to it afterwards.
        A batch is all or nothing: a length mismatch, or a ``t`` that is
        not finite or behind any member series, raises here with nothing
        kept.

        A writer whose previous batch has been read since is written
        through; one that runs ahead of its readers is staged and written
        a block of rows at a time — at the next read, a batch for other
        paths, or ``_WRITE_BEHIND_DEPTH`` rows.  Either way a batch is one
        row write per column block it names (:meth:`_plan`), a staged
        block one 2-D assignment per block.
        """
        count = len(path_ids)
        if count != len(owds_s):
            raise ValueError(
                f"length mismatch: {count} paths vs {len(owds_s)} samples"
            )
        if not count:
            return
        ids = path_ids if type(path_ids) is list else list(path_ids)
        plan: Optional[list[_Write]] = None
        if self._block_rows and ids == self._block_ids:
            last: Optional[float] = self._block_times[-1]
        else:
            if self._block_rows:
                self._flush()
            plan = self._plans.get(tuple(ids))
            last = None if plan is None else _last_written(plan)
            if last is None:
                plan, last = None, self._last_of(ids)
        if not (last <= t < _INF):
            raise _time_error(t, last)
        # Stage only behind an unread write, and only ids named once: a
        # repeated id's samples would be written out of their loop order.
        if self._written and (self._block_rows or len(set(ids)) == count):
            if not self._block_rows:
                self._block_ids = list(ids)
            self._block_times.append(t)
            self._block_rows.append(np.asarray(owds_s, dtype=np.float64))
            if len(self._block_rows) == _WRITE_BEHIND_DEPTH:
                self._flush()
            return
        self._written = True
        if plan is None:
            if len(set(ids)) < count:  # the record loop, in its order
                if isinstance(owds_s, np.ndarray):
                    owds_s = owds_s.tolist()
                for path_id, owd_s in zip(ids, owds_s):
                    self._series[path_id].append(t, owd_s)
                return
            plan = self._plan(ids)
        for block, pick, _ in plan:
            block.append_row(t, owds_s if pick is None else pick(owds_s))

    def _last_of(self, ids: list[int]) -> float:
        """The latest sample time among ``ids``' series."""
        series, last = self._series, _NO_TIME
        for path_id in ids:
            member = series.get(path_id)
            if member is not None and member._last_t > last:
                last = member._last_t
        return last

    def _plan(self, ids: list[int]) -> list[_Write]:
        """Where a batch naming ``ids`` (each once) writes: one entry per
        block, each named whole.  A block the batch names only some
        members of is split first, and the series it names that hold no
        block yet form one together.  Kept for the next batch naming
        ``ids``."""
        series = self._series
        # Keyed by the block's id(); the series with no block share
        # ``id(None)``.
        groups: dict[int, tuple[Optional[_ColumnBlock], list[int], list[TimeSeries]]]
        groups = {}
        for k, path_id in enumerate(ids):
            member = series[path_id]
            group = groups.get(id(member._columns))
            if group is None:
                group = groups[id(member._columns)] = (member._columns, [], [])
            group[1].append(k)
            group[2].append(member)
        plan: list[_Write] = []
        for block, take, named in groups.values():
            if block is None:
                block = _ColumnBlock(named, _first_capacity(len(named)))
            elif len(named) < len(block.members):
                block = block.split(named)
            else:  # its columns' positions, in column order
                where = dict(zip(map(id, named), take))
                take = [where[id(member)] for member in block.members]
            if take == list(range(len(ids))):
                plan.append((block, None, None))
            else:
                plan.append((block, itemgetter(*take), np.array(take, dtype=np.intp)))
        self._plans[tuple(ids)] = plan
        return plan

    def _sync(self) -> None:
        """Bring the series up to date for a reader."""
        self._written = False
        if self._block_rows:
            self._flush()

    def _flush(self) -> None:
        """Write the staged block."""
        times, rows = self._block_times, self._block_rows
        self._block_times, self._block_rows = [], []
        self._write_rows(self._block_ids, times, rows)

    def _write_rows(
        self, ids: list[int], times: Sequence[float] | np.ndarray, rows: object
    ) -> None:
        """Write checked rows (one per time, in ``ids`` order, each id
        once): one 2-D assignment per column block."""
        plan = self._plans.get(tuple(ids))
        if plan is None or _last_written(plan) is None:
            plan = self._plan(ids)
        for block, _, take in plan:
            if take is not None:
                rows = np.asarray(rows, dtype=np.float64)
                block.write_rows(times, rows[:, take])
            else:
                block.write_rows(times, rows)

    def series(self, path_id: int) -> TimeSeries:
        """The series for ``path_id`` (empty series if nothing recorded)."""
        if self._written:
            self._sync()
        return self._series[path_id]

    def path_ids(self) -> list[int]:
        """All path ids with at least one sample, sorted."""
        if self._written:
            self._sync()
        return sorted(p for p, s in self._series.items() if len(s))

    def recent_delay(
        self, path_id: int, window_s: float, now: float
    ) -> Optional[float]:
        """Mean delay over the trailing ``window_s`` seconds, or None when
        ``path_id`` has no sample in it.

        Raises:
            ValueError: ``window_s`` is NaN or negative, or ``now`` is not
                finite.
        """
        if not (window_s >= 0.0 and -_INF < now < _INF):
            name, value = ("now", now) if window_s >= 0.0 else ("window_s", window_s)
            raise ValueError(f"recent_delay: bad {name} {value}")
        if self._written:
            self._sync()
        series = self._series.get(path_id)
        if series is None or not len(series):
            return None
        _, values = series.window(now - window_s, now + 1e-12)
        if values.size == 0:
            return None
        # ``float(np.mean(values))`` bit for bit without its Python
        # wrapper: the same pairwise float64 ``add.reduce``, then one
        # division by the count.
        return float(np.add.reduce(values)) / values.size

    def last_time(self, path_id: int) -> Optional[float]:
        """Time of ``path_id``'s most recent sample, or None if unmeasured."""
        if self._written:
            self._sync()
        series = self._series.get(path_id)
        if series is None:
            return None
        return series.last_time

    def last_times(self, path_ids: Sequence[int]) -> list[Optional[float]]:
        """:meth:`last_time` of each of ``path_ids``, read in one pass."""
        if self._written:
            self._sync()
        get = self._series.get
        out: list[Optional[float]] = []
        for path_id in path_ids:
            series = get(path_id)
            out.append(
                float(series._last_t) if series is not None and series._size else None
            )
        return out

    def last_value(self, path_id: int) -> Optional[float]:
        """Value of ``path_id``'s most recent sample, or None if unmeasured."""
        if self._written:
            self._sync()
        series = self._series.get(path_id)
        if series is None:
            return None
        return series.last_value

    def items(self) -> Iterator[tuple[int, TimeSeries]]:
        """(path_id, series) pairs with at least one sample, sorted.

        Consistent with :meth:`path_ids`: empty series that exist only
        because :meth:`series` was called on an unmeasured path (it
        creates on read) are not reported.
        """
        if self._written:
            self._sync()
        return iter(
            (p, s) for p, s in sorted(self._series.items()) if len(s)
        )


class StoreCursor:
    """Which rows of a store one reader has not consumed yet.

    The one per-path cursor under ``TelemetryMirror`` and
    ``ReliableTelemetryChannel`` — the seam every receiver-side sample
    crosses on its way to the sender.  ``path_ids`` scopes the reader:
    a sorted list changed only by :meth:`extend_scope`; ``None`` follows
    every id in the store.  Paths are visited in ascending id order.

    Each followed path is one ``[path id, series, position]`` entry,
    resolved when its series first exists — the store creates a series
    once and keeps it — and re-resolved only after :meth:`extend_scope`
    or when the store gains a series.  A read then costs a size check
    per path, and a search over that path's unread rows only.
    """

    __slots__ = ("store", "_scoped", "_ids", "_followed", "_known")

    def __init__(
        self, store: MeasurementStore, path_ids: Optional[Iterable[int]] = None
    ) -> None:
        self.store = store
        self._scoped = path_ids is not None
        self._ids: list[int] = sorted(set(path_ids)) if self._scoped else []
        self._followed: list[list] = []
        #: Series in the store when ``_followed`` was resolved (-1: stale).
        self._known = -1

    @property
    def scope(self) -> Optional[frozenset[int]]:
        """The ids this reader is restricted to (``None``: unscoped)."""
        return frozenset(self._ids) if self._scoped else None

    def extend_scope(self, path_id: int) -> None:
        """Follow ``path_id`` too (no-op for an unscoped reader)."""
        if self._scoped and path_id not in self._ids:
            insort(self._ids, path_id)
            self._known = -1

    def _follow(self) -> list[list]:
        """The followed paths' entries, the store brought up to date."""
        store = self.store
        if store._written:
            store._sync()
        series_by_id = store._series
        if len(series_by_id) != self._known:
            # Scope and store only grow, so every entry is kept.
            entries = {entry[0]: entry for entry in self._followed}
            followed = []
            for path_id in self._ids if self._scoped else sorted(series_by_id):
                entry = entries.get(path_id)
                if entry is None:
                    series = series_by_id.get(path_id)
                    if series is None:
                        continue
                    entry = [path_id, series, 0]
                followed.append(entry)
            self._followed = followed
            self._known = len(series_by_id)
        return self._followed

    def take(
        self, through: float = np.inf
    ) -> Iterator[tuple[int, TimeSeries, int, int]]:
        """Consume unread rows with time ``<= through``: yields ``(path id,
        series, start, end)`` per path that has any.  A block counts as
        consumed once the caller asks for the next, so a consumer that
        raises leaves its block unread.  A NaN ``through`` is refused: no
        row compares against it, and a search would hand over every row."""
        if through != through:
            raise ValueError(f"take through a NaN time: {through}")
        for entry in self._follow():
            _, series, start = entry
            size = series._size
            if size > start:
                if series._last_t <= through:
                    end = size
                else:
                    end = bisect_right(series._times, through, start, size)
                    if end == start:
                        continue
                yield entry[0], series, start, end
                entry[2] = end

    def discard_before(self, t: float) -> int:
        """Skip the unread rows with time ``< t``; returns how many.  A NaN
        ``t`` is refused rather than taken to be later than every row."""
        if t != t:
            raise ValueError(f"discard before a NaN time: {t}")
        discarded = 0
        for entry in self._follow():
            _, series, start = entry
            size = series._size
            if size > start:
                cut = bisect_left(series._times, t, start, size)
                discarded += cut - start
                entry[2] = cut
        return discarded
