"""Time-series storage for per-path measurements.

A :class:`TimeSeries` is an append-friendly (time, value) column pair that
exposes numpy views for analysis; a :class:`MeasurementStore` keys series
by Tango path id.  The store is the boundary between the data plane
(which appends one sample per received packet) and the policy/analysis
layers (which read windows and summaries).

Every array holds about the rows written to it: a series starts at
``_INITIAL_CAPACITY`` rows and doubles.  A wide aggregate writer names
the same paths at the same times, so the store holds its samples once:
one time column and one value matrix (a :class:`_ColumnBlock`) whose
columns are the member series' arrays.  A batch that names only some of
a block's paths writes a row for those; the others keep their rows.
"""

from __future__ import annotations

import sys
from bisect import bisect_left, bisect_right, insort
from collections import defaultdict
from operator import itemgetter
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

__all__ = ["TimeSeries", "MeasurementStore", "StoreCursor"]

#: Rows of a series' first arrays; every later allocation doubles them.
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


def _doubled(capacity: int, needed: int) -> tuple[int, int]:
    """``capacity`` doubled until it holds ``needed`` rows, and how many
    doublings that took."""
    doublings = 0
    while needed > capacity:
        capacity *= 2
        doublings += 1
    return capacity, doublings


class TimeSeries:
    """Append-optimized (time, value) series backed by numpy arrays.

    Appends are amortized O(1) via geometric over-allocation and a length
    cursor; reads return zero-copy views of the filled region.  A new
    series holds no arrays; its first write allocates ``_INITIAL_CAPACITY``
    rows.  The hot path keeps everything in Python scalars (the last time
    is cached as a float, the capacity as an int), so one ``append`` is
    two array-cell stores plus comparisons — no numpy scalar boxing, no
    ``len()`` of the backing array.  Times must be non-decreasing and
    finite (they come from a monotonic simulation clock); violations raise
    immediately, because a disordered series silently corrupts windowed
    statistics.  The guard is spelled ``last <= t < inf`` so that a NaN
    time, which compares False both ways and would switch it off for
    good, is rejected too, and so is an infinite one, after which no
    finite time could follow.
    """

    __slots__ = (
        "_times", "_values", "_size", "_capacity", "_last_t", "grows", "_columns"
    )

    def __init__(self) -> None:
        self._times = self._values = _EMPTY
        self._size = 0
        self._capacity = 0
        self._last_t = _NO_TIME
        #: Number of reallocations so far, the first arrays not counted
        #: (observable: growth must stay logarithmic in the appends).
        self.grows = 0
        #: The column block whose views ``_times`` / ``_values`` are, or
        #: None.  A member's ``_capacity`` is its ``_size``, so any write
        #: of its own goes through :meth:`_grow`, which takes it out of
        #: the block.
        self._columns: Optional[_ColumnBlock] = None

    def append(self, t: float, value: float) -> None:
        """Add a sample at time ``t``."""
        if not (self._last_t <= t < _INF):
            raise _time_error(t, self._last_t)
        size = self._size
        if size == self._capacity:
            self._grow(size + 1)
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
        self._write(times, values)

    def extend_from(self, other: "TimeSeries", start: int, end: int) -> None:
        """Append rows ``start:end`` of ``other`` (series-to-series copy).

        ``other``'s own invariant already orders the slice and keeps NaN
        out of it, so only the seam — its first row against this series'
        last — is checked; raw arrays go through :meth:`extend`.
        """
        if not 0 <= start <= end <= other._size:
            raise IndexError(f"rows {start}:{end} outside a series of {other._size}")
        if end > start:
            self._write(other._times[start:end], other._values[start:end])

    def _write(self, times: np.ndarray, values: np.ndarray) -> None:
        """Store a non-empty ordered block after checking its ends."""
        if not (self._last_t <= times[0] and times[-1] < _INF):
            raise ValueError(
                "bulk append would go backwards in time or is NaN or infinite"
            )
        needed = self._size + times.size
        if needed > self._capacity:
            self._grow(needed)
        self._times[self._size : needed] = times
        self._values[self._size : needed] = values
        self._size = needed
        self._last_t = float(times[-1])

    def _grow(self, needed: int) -> None:
        """Room for ``needed`` rows.  A block member first leaves its
        block with arrays of its own; then the arrays double until they
        hold ``needed`` rows, in one allocation."""
        if self._columns is not None:
            self._columns.release(self)
            if needed <= self._capacity:
                return
        capacity, doublings = _doubled(self._capacity or _INITIAL_CAPACITY, needed)
        size = self._size
        times = np.empty(capacity, dtype=np.float64)
        values = np.empty(capacity, dtype=np.float64)
        times[:size] = self._times[:size]
        values[:size] = self._values[:size]
        self._times = times
        self._values = values
        self._capacity = capacity
        self.grows += doublings

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

    def __getstate__(self) -> dict:
        # The filled rows and the capacity, not the arrays: the headroom
        # was never written, so it is neither copied nor compared.
        state = {
            name: getattr(self, name)
            for name in TimeSeries.__slots__
            if name not in ("_times", "_values")
        }
        if self._columns is not None:
            # A member's arrays are views of its block's: a copy binds to
            # the copied block's arrays, not to copies of its views.
            state["_column"] = self._columns.members.index(self)
        else:
            state["_times"] = self._times[: self._size]
            state["_values"] = self._values[: self._size]
        return state

    def __setstate__(self, state: dict) -> None:
        for name in TimeSeries.__slots__:
            if name not in ("_times", "_values"):
                setattr(self, name, state[name])
        if "_column" in state:
            columns = state["_columns"]
            self._times = columns.times
            self._values = columns.values[:, state["_column"]]
        else:
            self._times = _with_headroom(state["_times"], self._capacity)
            self._values = _with_headroom(state["_values"], self._capacity)


def _with_headroom(rows: np.ndarray, capacity: int) -> np.ndarray:
    """``rows`` at the head of a new array of ``capacity`` rows; the rest
    is left unwritten, so its pages are never touched."""
    out = np.empty((capacity,) + rows.shape[1:], dtype=np.float64)
    out[: rows.shape[0]] = rows
    return out


def _take_columns(
    values: np.ndarray, rows: int, columns: list[int], out: np.ndarray
) -> None:
    """Rows ``:rows`` of ``values``' ``columns`` into ``out``'s head, with
    no temporary: a fancy-indexed copy of a wide block is as large as the
    block (``mode="clip"`` is what lets ``take`` write ``out`` directly;
    the columns are in range).  All of them is a plain copy: ``take``
    costs a 256-wide doubling block ~0.35 MB more peak RSS."""
    if len(columns) == values.shape[1]:
        out[:rows] = values[:rows]
    else:
        np.take(values[:rows], columns, axis=1, out=out[:rows], mode="clip")


def _first_capacity(width: int) -> int:
    """Rows of a ``width``-path column block's first arrays."""
    return _WIDE_CAPACITY if width >= _WIDE_BLOCK else _INITIAL_CAPACITY


class _ColumnBlock:
    """One time column and one value matrix for a wide writer's series.

    Member ``j`` of ``ids`` is a :class:`TimeSeries` whose ``_times`` is
    the block's time column and whose ``_values`` is column ``j`` of a
    row-major (capacity x width) matrix — a strided view — so every reader
    of a series runs unchanged.  Row-major keeps the unwritten capacity
    one contiguous tail that is never touched: numpy asks the kernel for
    transparent huge pages on a large array, and a column-major block's
    first write to each column faulted in that column's headroom too.

    A row is written for the members a batch names — one row per
    written-through batch, one 2-D assignment per staged block — on the
    doubling schedule of a lone series, so each member's ``grows`` is what
    its own arrays would have had.  A member a row leaves out keeps its
    rows: they are still the head of the time column, so it stays a
    member (its cell in that row is NaN, never read) until it is named
    again or the block reallocates.  Then the members that missed the
    same rows move on together to a block of their own (:meth:`split`),
    and one alone leaves with arrays of its own (:meth:`release`); either
    way at the block's capacity, which is their own arrays' capacity too.
    ``members`` holds None for a column whose member moved on, until the
    block reallocates without it: at its next doubling, or when a new
    plan would write to it.
    """

    __slots__ = ("ids", "members", "times", "values", "capacity", "rows", "plan")

    def __init__(self, ids: list[int], members: list[TimeSeries], needed: int) -> None:
        capacity, doublings = _doubled(_first_capacity(len(ids)), needed)
        self._allocate(ids, members, 0, capacity)
        for member in members:
            member._capacity = 0
            member.grows += doublings

    def _allocate(
        self, ids: list[int], members: list[TimeSeries], rows: int, capacity: int
    ) -> None:
        """Empty arrays of ``capacity`` rows for ``members`` (their first
        ``rows`` rows to be copied in by the caller), bound to them."""
        self.ids = ids
        self.members: list[Optional[TimeSeries]] = list(members)
        self.rows = rows
        #: The plan that wrote the last row, while every member it names
        #: is still current (None once a member moves on).
        self.plan: Optional[_RowPlan] = None
        self.times = np.empty(capacity, dtype=np.float64)
        self.values = np.empty((capacity, len(ids)), dtype=np.float64)
        self.capacity = capacity
        for column, member in enumerate(members):
            member._times, member._values = self.times, self.values[:, column]
            member._columns = self

    def reserve(self, needed: int, named: list[TimeSeries]) -> None:
        """Room for ``needed`` rows for the members ``named``: the others
        move on first, then the arrays double — holding the named members'
        columns only — until they hold ``needed`` rows."""
        keep = set(map(id, named))
        self.move_on([m for m in self.members if m is not None and id(m) not in keep])
        capacity, doublings = _doubled(self.capacity, needed)
        self.reallocate(capacity)
        for member in self.members:
            member.grows += doublings

    def reallocate(self, capacity: int) -> None:
        """Arrays of ``capacity`` rows holding the filled rows of the
        members still here: the columns of those that moved on go."""
        live = [j for j, member in enumerate(self.members) if member is not None]
        rows, times, values = self.rows, self.times, self.values
        self._allocate(
            [self.ids[j] for j in live], [self.members[j] for j in live], rows, capacity
        )
        self.times[:rows] = times[:rows]
        _take_columns(values, rows, live, self.values)

    def move_on(self, members: list[TimeSeries]) -> None:
        """Take ``members``, which missed rows, out of the block: those that
        missed the same rows (equal sizes) to a block of their own, one
        alone to arrays of its own."""
        by_size: dict[int, list[TimeSeries]] = {}
        for member in members:
            by_size.setdefault(member._size, []).append(member)
        for group in by_size.values():
            if len(group) == 1:
                self.release(group[0])
            else:
                self.split(group)

    def _leave(self, members: list[TimeSeries]) -> list[int]:
        """Drop ``members`` from the block; their columns."""
        columns = [self.members.index(member) for member in members]
        for column in columns:
            self.members[column] = None
        self.plan = None
        return columns

    def split(self, members: list[TimeSeries]) -> None:
        """``members``, of equal sizes — the same head of the time column —
        move to a new block holding their rows."""
        columns = self._leave(members)
        size = members[0]._size
        block = _ColumnBlock.__new__(_ColumnBlock)
        block._allocate([self.ids[j] for j in columns], members, size, self.capacity)
        block.times[:size] = self.times[:size]
        _take_columns(self.values, size, columns, block.values)

    def release(self, member: TimeSeries) -> None:
        """``member`` leaves with arrays of its own holding its rows."""
        self._leave([member])
        size, capacity = member._size, self.capacity
        times = np.empty(capacity, dtype=np.float64)
        values = np.empty(capacity, dtype=np.float64)
        times[:size] = self.times[:size]
        values[:size] = member._values[:size]
        member._times, member._values = times, values
        member._capacity, member._columns = capacity, None

    def append_row(
        self,
        t: float,
        values: Sequence[float] | np.ndarray,
        part: _Part,
        plan: _RowPlan,
    ) -> None:
        """One sample at time ``t`` per member ``part`` names, ``values`` in
        its order (room made and ``t`` checked by the caller)."""
        rows = self.rows
        self.times[rows] = t
        if part.cols is None:
            self.values[rows] = values
        else:
            if part.fill:
                self.values[rows] = np.nan
            self.values[rows, part.cols] = values
        self.rows = rows = rows + 1
        for member in part.named:
            member._size = member._capacity = rows
            member._last_t = t
        self.plan = plan

    def write_rows(
        self,
        times: Sequence[float] | np.ndarray,
        rows: object,
        part: _Part,
        plan: _RowPlan,
    ) -> None:
        """Rows ``rows`` (one per time, in ``part``'s member order) at
        times ``times`` (room made and checked by the caller)."""
        start = self.rows
        end = start + len(times)
        self.times[start:end] = times
        if part.cols is None:
            self.values[start:end] = rows
        else:
            if part.fill:
                self.values[start:end] = np.nan
            self.values[start:end, part.cols] = rows
        self.rows = end
        last = float(times[-1])
        for member in part.named:
            member._size = member._capacity = end
            member._last_t = last
        self.plan = plan

    def __reduce__(self) -> tuple:
        # The filled rows are constructor arguments, so a copy holds its
        # arrays before its members are copied and bind to them
        # (``__setstate__``).  A copy starts with no plan.
        rows = self.rows
        return (
            _restored_block,
            (self.ids, self.times[:rows], self.values[:rows], self.capacity),
            (None, {"members": self.members}),
        )


def _restored_block(
    ids: list[int], times: np.ndarray, values: np.ndarray, capacity: int
) -> _ColumnBlock:
    block = _ColumnBlock.__new__(_ColumnBlock)
    block.ids, block.rows, block.capacity = ids, times.size, capacity
    block.times = _with_headroom(times, capacity)
    block.values = _with_headroom(values, capacity)
    block.plan = None
    return block


class _Part:
    """The members of one block a batch names: its positions ``take``
    (None: all of them) go to the block's columns ``cols`` (None: every
    column, in order) for the members ``named``; ``fill`` says the row
    leaves a column out."""

    __slots__ = ("block", "named", "cols", "take", "pick", "fill")

    def __init__(
        self,
        block: _ColumnBlock,
        named: list[TimeSeries],
        cols: Optional[list[int]],
        take: Optional[list[int]],
    ) -> None:
        self.block, self.named = block, named
        self.cols = None if cols is None else np.array(cols, dtype=np.intp)
        self.fill = cols is not None and len(cols) < len(block.members)
        self.take = None if take is None else np.array(take, dtype=np.intp)
        #: ``take`` of one batch's values, a list or a vector, in one C call.
        self.pick = None if take is None else itemgetter(*take)

    def row(self, values: Sequence[float] | np.ndarray) -> object:
        """This block's share of one batch's ``values``."""
        return values if self.pick is None else self.pick(values)

    def rows(self, rows: object) -> object:
        """This block's share of staged rows (along the last axis)."""
        if self.take is None:
            return rows
        return np.asarray(rows, dtype=np.float64)[..., self.take]


class _RowPlan:
    """Where a batch naming ``ids`` writes: one row per block ``parts``
    names, then the positions in ``rest`` — paths in no block, a member
    that missed rows alone, a repeated id — per series."""

    __slots__ = ("ids", "parts", "rest", "whole")

    def __init__(
        self, ids: list[int], parts: list[_Part], rest: list[tuple[int, int]]
    ) -> None:
        self.ids, self.parts, self.rest = ids, parts, rest
        #: The one part, when the batch is its block's ids in column order.
        self.whole: Optional[_Part] = None
        if len(parts) == 1 and not rest and parts[0].cols is None:
            self.whole = parts[0]

    def current(self) -> bool:
        """The last row of each of its blocks is its own: every member it
        names is still current."""
        for part in self.parts:
            if part.block.plan is not self:
                return False
        return True

    def last(self, series: dict[int, TimeSeries]) -> float:
        """The latest sample time among the series the batch names."""
        last = _NO_TIME
        for part in self.parts:
            if part.named[0]._last_t > last:
                last = part.named[0]._last_t
        for _, path_id in self.rest:
            member = series.get(path_id)
            if member is not None and member._last_t > last:
                last = member._last_t
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
    #: A column block has formed here: only then can a batch name one.
    _columned = False

    def __init__(self) -> None:
        self._written = False
        self._columned = False
        #: The one get-or-create: indexing builds a series only on a
        #: miss; reads that must not create use ``get`` / ``in``.
        self._series: defaultdict[int, TimeSeries] = defaultdict(TimeSeries)
        # The open write-behind block: the path ids every staged row is
        # for (a copy — callers grow their id lists in place), and per
        # row its time and its values, kept by reference.
        self._block_ids: list[int] = []
        self._block_times: list[float] = []
        self._block_rows: list[np.ndarray] = []

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

        The series equal those of :meth:`extend` per column.  Two or more
        paths none of which has a sample yet become one column block — one
        time column, the values once.  All or nothing: a shape mismatch, a
        repeated id, or times that are disordered, not finite or behind a
        named series raise here with nothing kept.
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
        paths, or ``_WRITE_BEHIND_DEPTH`` rows.  A batch naming two or
        more distinct paths, none of which has a sample yet, forms a
        :class:`_ColumnBlock` for those ids: from then on a batch for
        them, or for some of them, is one row write, a staged block one
        2-D assignment.
        """
        count = len(path_ids)
        if count != len(owds_s):
            raise ValueError(
                f"length mismatch: {count} paths vs {len(owds_s)} samples"
            )
        if not count:
            return
        series = self._series
        ids = path_ids if type(path_ids) is list else list(path_ids)
        plan: Optional[_RowPlan] = None
        if self._block_rows and ids == self._block_ids:
            last = self._block_times[-1]
        else:
            if self._block_rows:
                self._flush()
            plan = self._plan(ids)
            if plan is None:
                last = self._last_of(ids)
            elif plan.whole is not None:
                last = plan.whole.named[0]._last_t
            else:
                last = plan.last(series)
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
            plan = self._form_columns(ids, 1)
        if plan is None:
            if isinstance(owds_s, np.ndarray):
                owds_s = owds_s.tolist()
            for path_id, owd_s in zip(ids, owds_s):
                series[path_id].append(t, owd_s)
            return
        whole = plan.whole
        if whole is not None and whole.block.rows < whole.block.capacity:
            whole.block.append_row(t, owds_s, whole, plan)
            return
        plan = self._room(plan, 1)
        for part in plan.parts:
            part.block.append_row(t, part.row(owds_s), part, plan)
        for k, path_id in plan.rest:
            series[path_id].append(t, float(owds_s[k]))

    def _last_of(self, ids: list[int]) -> float:
        """The latest sample time among ``ids``' series."""
        series, last = self._series, _NO_TIME
        for path_id in ids:
            member = series.get(path_id)
            if member is not None and member._last_t > last:
                last = member._last_t
        return last

    def _plan(self, ids: list[int]) -> Optional[_RowPlan]:
        """The row plan for a batch naming ``ids``: the last one of the
        first block it names, if made for ``ids`` and still current, else
        a new one (None: it names no block member)."""
        if not self._columned:
            return None
        series = self._series
        for path_id in ids:
            member = series.get(path_id)
            if member is not None and member._columns is not None:
                plan = member._columns.plan
                if plan is not None and plan.ids == ids and plan.current():
                    return plan
                return self._new_plan(ids)
        return None

    def _new_plan(self, ids: list[int]) -> Optional[_RowPlan]:
        """A part per block ``ids`` names current members of, and one per
        group of two or more members that missed the same rows of a block
        (moved to a block of their own here); the rest per series."""
        series = self._series
        groups: dict[tuple[int, int], tuple[_ColumnBlock, list, list]] = {}
        rest, seen = [], set()
        for k, path_id in enumerate(ids):
            member = series.get(path_id)
            block = member._columns if member is not None else None
            if block is None or path_id in seen:
                rest.append((k, path_id))  # a repeated id: after the row
                continue
            seen.add(path_id)
            key = (id(block), member._size)
            if key not in groups:
                groups[key] = (block, [], [])
            groups[key][1].append(k)
            groups[key][2].append(member)
        named_by_block = []
        for block, take, named in groups.values():
            if named[0]._size < block.rows:  # they missed rows: move on
                block.move_on(named)
                block = named[0]._columns
                if block is None:  # alone, with arrays of its own
                    rest.append((take[0], ids[take[0]]))
                    continue
            named_by_block.append((block, take, named))
        if not named_by_block:
            return None
        rest.sort()
        alone = len(named_by_block) == 1 and not rest
        parts = []
        for block, take, named in named_by_block:
            if None in block.members:
                block.reallocate(block.capacity)  # no column for one gone
            where = {id(member): j for j, member in enumerate(block.members)}
            cols = [where[id(member)] for member in named]
            whole = cols == list(range(len(block.members)))
            parts.append(
                _Part(block, named, None if whole else cols, None if alone else take)
            )
        return _RowPlan(list(ids), parts, rest)

    def _room(self, plan: _RowPlan, rows: int) -> _RowPlan:
        """``plan``, its blocks made room for ``rows`` more rows; a new
        plan if that reallocated one (its columns renumbered)."""
        for part in plan.parts:
            block = part.block
            if block.rows + rows > block.capacity:
                block.reserve(block.rows + rows, part.named)
                renumbered = self._new_plan(plan.ids)
                assert renumbered is not None  # its named members stay current
                return self._room(renumbered, rows)
        return plan

    def _form_columns(self, ids: list[int], rows: int) -> Optional[_RowPlan]:
        """A column block for ``ids``, room for ``rows`` rows, and its
        whole-row plan, if two or more distinct paths are named and none
        has samples yet (else None: plain series)."""
        series = self._series
        if len(ids) < 2:
            return None
        for path_id in ids:
            member = series.get(path_id)
            if member is not None and (member._size or member._columns is not None):
                return None
        if len(set(ids)) < len(ids):
            return None
        members = [series[path_id] for path_id in ids]
        block = _ColumnBlock(list(ids), members, rows)
        self._columned = True
        return _RowPlan(list(ids), [_Part(block, members, None, None)], [])

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
        """Write checked rows (one per time, in ``ids`` order): one 2-D
        assignment into the paths' column block when there is one, the
        rest per path."""
        series = self._series
        plan = self._plan(ids) or self._form_columns(ids, len(times))
        if plan is not None:
            plan = self._room(plan, len(times))
            for part in plan.parts:
                part.block.write_rows(times, part.rows(rows), part, plan)
            rest = plan.rest
            if not rest:
                return
        else:
            rest = list(enumerate(ids))
        if len(times) == 1:
            t, values = float(times[0]), rows[0].tolist()
            for k, path_id in rest:
                series[path_id].append(t, values[k])
            return
        block_times = np.array(times, dtype=np.float64)
        matrix = np.asarray(rows, dtype=np.float64)
        for k, path_id in rest:
            series[path_id]._write(block_times, matrix[:, k])

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
