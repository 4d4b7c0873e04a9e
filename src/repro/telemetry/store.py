"""Time-series storage for per-path measurements.

A :class:`TimeSeries` is an append-friendly (time, value) column pair that
exposes numpy views for analysis; a :class:`MeasurementStore` keys series
by Tango path id.  The store is the boundary between the data plane
(which appends one sample per received packet) and the policy/analysis
layers (which read windows and summaries).

A wide aggregate writer names the same paths at the same times, so the
store holds its samples once: one time column and one value matrix (a
:class:`_ColumnBlock`) whose columns are the member series' arrays.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right, insort
from collections import defaultdict
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

__all__ = ["TimeSeries", "MeasurementStore", "StoreCursor"]

_INITIAL_CAPACITY = 1024

#: Rows an aggregate writer may run ahead of its readers before they are
#: written anyway, so an unread store never owes more than this.
_WRITE_BEHIND_DEPTH = 256


class TimeSeries:
    """Append-optimized (time, value) series backed by numpy arrays.

    Appends are amortized O(1) via geometric over-allocation and a length
    cursor; reads return zero-copy views of the filled region.  The hot
    path keeps everything in Python scalars (the last time is cached as a
    float, the capacity as an int), so one ``append`` is two array-cell
    stores plus comparisons — no numpy scalar boxing, no ``len()`` of the
    backing array.  Times must be non-decreasing (they come from a
    monotonic simulation clock); violations raise immediately, because a
    disordered series silently corrupts windowed statistics.  The guards
    are spelled ``not (t >= last)`` so that a NaN time, which compares
    False both ways and would switch them off for good, is rejected too.
    """

    __slots__ = (
        "_times", "_values", "_size", "_capacity", "_last_t", "grows", "_columns"
    )

    def __init__(self) -> None:
        self._times = np.empty(_INITIAL_CAPACITY, dtype=np.float64)
        self._values = np.empty(_INITIAL_CAPACITY, dtype=np.float64)
        self._size = 0
        self._capacity = _INITIAL_CAPACITY
        self._last_t = -np.inf
        #: Number of reallocations so far (observable: growth must stay
        #: logarithmic in the number of appends).
        self.grows = 0
        #: The column block whose views ``_times`` / ``_values`` are, or
        #: None.  A member's ``_capacity`` is its ``_size``, so any write
        #: of its own goes through :meth:`_grow`, which dissolves the block.
        self._columns: Optional[_ColumnBlock] = None

    def append(self, t: float, value: float) -> None:
        """Add a sample at time ``t``."""
        if not (t >= self._last_t):
            raise ValueError(f"time went backwards or is NaN: {t} after {self._last_t}")
        size = self._size
        if size == self._capacity:
            self._grow()
        self._times[size] = t
        self._values[size] = value
        self._size = size + 1
        self._last_t = t

    def extend(self, times: np.ndarray, values: np.ndarray) -> None:
        """Bulk-append aligned arrays (used by the fast sampling campaign)."""
        times = np.asarray(times, dtype=np.float64)
        values = np.asarray(values, dtype=np.float64)
        if times.shape != values.shape:
            raise ValueError(
                f"shape mismatch: times {times.shape} vs values {values.shape}"
            )
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
        """Store a non-empty ordered block after checking the seam."""
        if not (times[0] >= self._last_t):
            raise ValueError("bulk append would go backwards in time or is NaN")
        needed = self._size + times.size
        while needed > self._capacity:
            self._grow()
        self._times[self._size : needed] = times
        self._values[self._size : needed] = values
        self._size = needed
        self._last_t = float(times[-1])

    def _grow(self) -> None:
        if self._columns is not None:
            self._columns.dissolve()
            if self._size < self._capacity:
                return
        capacity = max(self._capacity * 2, _INITIAL_CAPACITY)
        times = np.empty(capacity, dtype=np.float64)
        values = np.empty(capacity, dtype=np.float64)
        times[: self._size] = self._times[: self._size]
        values[: self._size] = self._values[: self._size]
        self._times = times
        self._values = values
        self._capacity = capacity
        self.grows += 1

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


class _ColumnBlock:
    """One time column and one value matrix for a wide writer's series.

    Member ``j`` of ``ids`` is a :class:`TimeSeries` whose ``_times`` is
    the block's time column and whose ``_values`` is column ``j`` of a
    row-major (capacity x width) matrix — a strided view — so every reader
    of a series runs unchanged.  Row-major keeps the unwritten capacity
    one contiguous tail that is never touched: numpy asks the kernel for
    transparent huge pages on a large array, and a column-major block's
    first write to each column faulted in that column's headroom too.
    Rows are written for all members at once — one row
    per written-through batch, one 2-D assignment per staged block — on
    the doubling schedule of a lone series, so each member's ``grows`` is
    what its own arrays would have had.  Any other write to a member
    dissolves the block: every member gets arrays of its own at the
    block's capacity, which is not a grow, and the block is dropped.
    """

    __slots__ = ("ids", "members", "times", "values", "capacity", "rows")

    def __init__(self, ids: list[int], members: list[TimeSeries]) -> None:
        self.ids = ids
        self.members = members
        self.rows = 0
        self._allocate(_INITIAL_CAPACITY)
        for member in members:
            member._capacity = 0
            member._columns = self

    def _allocate(self, capacity: int) -> None:
        """Move to arrays of ``capacity`` rows and rebind the members."""
        times = np.empty(capacity, dtype=np.float64)
        values = np.empty((capacity, len(self.ids)), dtype=np.float64)
        if self.rows:
            times[: self.rows] = self.times[: self.rows]
            values[: self.rows] = self.values[: self.rows]
        self.times, self.values, self.capacity = times, values, capacity
        for column, member in enumerate(self.members):
            member._times, member._values = times, values[:, column]

    def _make_room(self, needed: int) -> None:
        capacity, doublings = self.capacity, 0
        while needed > capacity:
            capacity *= 2
            doublings += 1
        self._allocate(capacity)
        for member in self.members:
            member.grows += doublings

    def append_row(self, t: float, values: Sequence[float] | np.ndarray) -> None:
        """One sample per member at time ``t`` (checked by the caller)."""
        rows = self.rows
        if rows == self.capacity:
            self._make_room(rows + 1)
        self.times[rows] = t
        self.values[rows] = values
        self.rows = rows = rows + 1
        for member in self.members:
            member._size = member._capacity = rows
            member._last_t = t

    def write_rows(self, times: list[float], rows: list[np.ndarray]) -> None:
        """Rows ``rows`` at times ``times`` (checked by the caller)."""
        start = self.rows
        end = start + len(times)
        if end > self.capacity:
            self._make_room(end)
        self.times[start:end] = times
        self.values[start:end] = rows
        self.rows = end
        last = float(times[-1])
        for member in self.members:
            member._size = member._capacity = end
            member._last_t = last

    def dissolve(self) -> None:
        """Give every member arrays of its own; the block is then unused."""
        rows, capacity = self.rows, self.capacity
        for member in self.members:
            times = np.empty(capacity, dtype=np.float64)
            values = np.empty(capacity, dtype=np.float64)
            times[:rows] = self.times[:rows]
            values[:rows] = member._values[:rows]
            member._times, member._values = times, values
            member._capacity, member._columns = capacity, None

    def __reduce__(self) -> tuple:
        # The filled rows are constructor arguments, so a copy holds its
        # arrays before its members are copied and bind to them
        # (``__setstate__``).
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
    return block


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
        NaN or behind any member series, raises here with nothing kept.

        A writer whose previous batch has been read since is written
        through; one that runs ahead of its readers is staged and written
        a block of rows at a time — at the next read, a batch for other
        paths, or ``_WRITE_BEHIND_DEPTH`` rows.  A batch naming two or
        more distinct paths, none of which has a sample yet, forms a
        :class:`_ColumnBlock` for those ids: from then on a batch for
        them is one row write, a staged block one 2-D assignment.
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
        columns: Optional[_ColumnBlock] = None
        if self._block_rows and ids == self._block_ids:
            last = self._block_times[-1]
        else:
            if self._block_rows:
                self._flush()
            columns = self._columns_of(ids)
            if columns is not None:
                last = columns.members[0]._last_t
            else:
                last = -np.inf
                for path_id in ids:
                    member = series.get(path_id)
                    if member is not None and member._last_t > last:
                        last = member._last_t
        if not (t >= last):
            raise ValueError(f"time went backwards or is NaN: {t} after {last}")
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
        if columns is None:
            columns = self._form_columns(ids)
        if columns is not None:
            columns.append_row(t, owds_s)
            return
        if isinstance(owds_s, np.ndarray):
            owds_s = owds_s.tolist()
        for path_id, owd_s in zip(ids, owds_s):
            series[path_id].append(t, owd_s)

    def _columns_of(self, ids: list[int]) -> Optional[_ColumnBlock]:
        """The column block written as ``ids``, if there is one."""
        first = self._series.get(ids[0])
        columns = first._columns if first is not None else None
        return columns if columns is not None and columns.ids == ids else None

    def _form_columns(self, ids: list[int]) -> Optional[_ColumnBlock]:
        """A column block for ``ids`` if two or more distinct paths are
        named and none has samples yet (else None: plain series)."""
        series = self._series
        if len(ids) < 2:
            return None
        for path_id in ids:
            member = series.get(path_id)
            if member is not None and (member._size or member._columns is not None):
                return None
        if len(set(ids)) < len(ids):
            return None
        return _ColumnBlock(list(ids), [series[path_id] for path_id in ids])

    def _sync(self) -> None:
        """Bring the series up to date for a reader."""
        self._written = False
        if self._block_rows:
            self._flush()

    def _flush(self) -> None:
        """Write the staged block: one 2-D assignment into the writer's
        column block when it has one, else per path."""
        series, ids = self._series, self._block_ids
        times, rows = self._block_times, self._block_rows
        columns = self._columns_of(ids) or self._form_columns(ids)
        if columns is not None:
            columns.write_rows(times, rows)
        elif len(rows) == 1:
            for path_id, owd_s in zip(ids, rows[0].tolist()):
                series[path_id].append(times[0], owd_s)
        else:
            block_times = np.array(times, dtype=np.float64)
            for path_id, column in zip(ids, np.array(rows).T):
                series[path_id]._write(block_times, column)
        self._block_times, self._block_rows = [], []

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
        """Mean delay over the trailing ``window_s`` seconds, or None."""
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
