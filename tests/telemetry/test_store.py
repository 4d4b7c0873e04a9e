"""Tests for the time-series store, including growth properties."""

import copy
import pickle
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.telemetry import store as store_module
from repro.telemetry.store import MeasurementStore, StoreCursor, TimeSeries

#: Rows of a series' first arrays, and of a narrow column block's.
FIRST = store_module._INITIAL_CAPACITY


class TestTimeSeries:
    def test_append_and_read_back(self):
        series = TimeSeries()
        series.append(1.0, 0.030)
        series.append(2.0, 0.031)
        np.testing.assert_array_equal(series.times, [1.0, 2.0])
        np.testing.assert_array_equal(series.values, [0.030, 0.031])

    def test_time_must_not_go_backwards(self):
        series = TimeSeries()
        series.append(5.0, 1.0)
        with pytest.raises(ValueError, match="backwards"):
            series.append(4.0, 1.0)

    def test_equal_times_allowed(self):
        series = TimeSeries()
        series.append(1.0, 1.0)
        series.append(1.0, 2.0)
        assert len(series) == 2

    def test_growth_beyond_initial_capacity(self):
        series = TimeSeries()
        for i in range(5000):
            series.append(float(i), float(i) * 2)
        assert len(series) == 5000
        assert series.values[4999] == 9998.0

    def test_window_half_open(self):
        series = TimeSeries()
        for i in range(10):
            series.append(float(i), float(i))
        times, values = series.window(2.0, 5.0)
        np.testing.assert_array_equal(times, [2.0, 3.0, 4.0])

    def test_window_outside_range_empty(self):
        series = TimeSeries()
        series.append(1.0, 1.0)
        times, values = series.window(5.0, 9.0)
        assert times.size == 0

    def test_mean_and_percentile(self):
        series = TimeSeries()
        for i in range(1, 101):
            series.append(float(i), float(i))
        assert series.mean() == pytest.approx(50.5)
        assert series.percentile(50) == pytest.approx(50.5)

    def test_empty_stats_are_nan(self):
        series = TimeSeries()
        assert np.isnan(series.mean())
        assert np.isnan(series.percentile(99))

    def test_extend_bulk(self):
        series = TimeSeries()
        series.extend(np.arange(5.0), np.ones(5))
        assert len(series) == 5

    def test_extend_rejects_disorder(self):
        series = TimeSeries()
        with pytest.raises(ValueError, match="non-decreasing"):
            series.extend(np.asarray([2.0, 1.0]), np.ones(2))

    def test_extend_rejects_backwards_relative_to_existing(self):
        series = TimeSeries()
        series.append(10.0, 1.0)
        with pytest.raises(ValueError, match="backwards"):
            series.extend(np.asarray([5.0]), np.ones(1))

    def test_extend_shape_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            TimeSeries().extend(np.arange(3.0), np.ones(2))

    def test_extend_empty_is_noop(self):
        series = TimeSeries()
        series.extend(np.asarray([]), np.asarray([]))
        assert len(series) == 0

    @given(
        st.lists(
            st.floats(min_value=0, max_value=1e6, allow_nan=False),
            min_size=1,
            max_size=300,
        )
    )
    @settings(max_examples=50)
    def test_appends_preserve_all_samples(self, raw_times):
        """Property: every appended sample is retrievable, in order."""
        times = sorted(raw_times)
        series = TimeSeries()
        for i, t in enumerate(times):
            series.append(t, float(i))
        assert len(series) == len(times)
        np.testing.assert_array_equal(series.times, times)

    @given(
        st.floats(min_value=0, max_value=100, allow_nan=False),
        st.floats(min_value=0, max_value=100, allow_nan=False),
    )
    @settings(max_examples=50)
    def test_window_subset_property(self, a, b):
        """Property: window() returns exactly samples in [t0, t1)."""
        t0, t1 = min(a, b), max(a, b)
        series = TimeSeries()
        all_times = np.arange(0.0, 100.0, 1.7)
        series.extend(all_times, all_times)
        times, _ = series.window(t0, t1)
        expected = all_times[(all_times >= t0) & (all_times < t1)]
        np.testing.assert_array_equal(times, expected)


class TestAmortizedGrowth:
    """Geometric over-allocation: append is O(1) amortized, and the
    grows counter makes the reallocation schedule observable."""

    def test_initial_capacity_absorbs_first_appends(self):
        series = TimeSeries()
        assert series._capacity == 0  # no arrays before the first write
        for i in range(FIRST):
            series.append(float(i), float(i))
        assert series.grows == 0 and series._capacity == FIRST == 128
        series.append(float(FIRST), 0.0)
        assert series.grows == 1 and series._capacity == 2 * FIRST

    def test_grows_counter_is_logarithmic(self):
        series = TimeSeries()
        n = 100_000
        for i in range(n):
            series.append(float(i), float(i))
        assert len(series) == n
        # Doubling from 128: 256, 512, ..., 131072 -> 10 reallocations.
        assert series.grows == 10

    def test_views_only_expose_written_prefix(self):
        series = TimeSeries()
        for i in range(10):
            series.append(float(i), float(i))
        assert series.times.size == 10
        assert series.values.size == 10
        np.testing.assert_array_equal(series.times, np.arange(10.0))

    def test_extend_reports_growth_too(self):
        series = TimeSeries()
        series.extend(np.arange(5000.0), np.ones(5000))
        assert len(series) == 5000
        assert series.grows >= 1

    def test_append_is_amortized_constant(self):
        # Doubling the appends must roughly double the wall time, never
        # square it (a realloc-per-append regression is ~50x here).
        def fill(n):
            series = TimeSeries()
            start = time.perf_counter()
            for i in range(n):
                series.append(float(i), 1.0)
            return time.perf_counter() - start, series

        fill(10_000)  # warm up
        small_s, _ = fill(50_000)
        big_s, big = fill(200_000)
        assert big.grows <= 11  # 128 doubled to 262,144
        assert big_s < small_s * 16, (
            f"append no longer amortized O(1): {small_s:.4f}s for 50k vs "
            f"{big_s:.4f}s for 200k"
        )


def wide_store(width, rows, start=0):
    """A store one aggregate writer wrote ``rows`` rows of ``width``
    paths to (a read between writes, so each row is written through)."""
    store = MeasurementStore()
    ids = list(range(width))
    for step in range(start, start + rows):
        store.record_aggregate_many(ids, step * 0.1, [step + p / 8 for p in ids])
        store.last_time(0)
    return store, ids


def lone(rows, path_id):
    """The series ``path_id`` of ``wide_store`` would be, appended alone."""
    series = TimeSeries()
    for step in range(rows):
        series.append(step * 0.1, step + path_id / 8)
    return series


def stated(first):
    """An empty lone series whose first arrays hold ``first`` rows."""
    series = TimeSeries()
    series._times, series._values = np.empty(first), np.empty(first)
    series._capacity = first
    return series


def same_series(ours, lone_series):
    assert ours.times.tobytes() == lone_series.times.tobytes()
    assert ours.values.tobytes() == lone_series.values.tobytes()
    assert ours.grows == lone_series.grows
    assert ours.last_time == lone_series.last_time


class TestColumnBlock:
    """A wide writer's series share one time column and one value matrix;
    each still reads, grows and copies as a series of its own would."""

    def test_members_are_views_of_one_block(self):
        store, ids = wide_store(4, 10)
        members = [store.series(p) for p in ids]
        block = members[0]._columns
        assert block is not None and block.ids == ids
        assert all(m._times is block.times for m in members)
        assert all(np.shares_memory(m._values, block.values) for m in members)
        for p, member in zip(ids, members):
            same_series(member, lone(10, p))

    def test_a_lone_or_repeated_path_is_not_a_block(self):
        store = MeasurementStore()
        store.record_aggregate_many([1], 0.0, [0.5])
        store.record_aggregate_many([2, 2], 0.0, [0.5, 0.6])
        assert store.series(1)._columns is None
        assert store.series(2)._columns is None

    def test_views_handed_out_before_a_grow_keep_their_bytes(self):
        store, ids = wide_store(3, FIRST)  # a full first block
        before = [(store.series(p).times, store.series(p).values) for p in ids]
        kept = [(t.tobytes(), v.tobytes()) for t, v in before]
        store.record_aggregate_many(ids, FIRST * 0.1, [7.0, 8.0, 9.0])  # grows
        assert store.series(0)._columns.capacity == 2 * FIRST
        assert [(t.tobytes(), v.tobytes()) for t, v in before] == kept
        for p in ids:
            assert store.series(p).grows == 1
            assert store.series(p).values[:FIRST].tobytes() == kept[p][1]

    def test_views_handed_out_before_a_member_leaves_keep_their_bytes(self):
        store, ids = wide_store(3, FIRST)
        block = store.series(0)._columns
        before = [store.series(p).values for p in ids]
        kept = [v.tobytes() for v in before]
        store.record(1, FIRST * 0.1, 5.0)  # one member written alone leaves
        assert [store.series(p)._columns for p in ids] == [block, None, block]
        store.record_aggregate_many(ids, (FIRST + 1) * 0.1, [7.0, 8.0, 9.0])
        assert [v.tobytes() for v in before] == kept
        assert [store.series(p).grows for p in ids] == [1, 1, 1]
        assert len(store.series(1)) == FIRST + 2
        assert len(store.series(0)) == len(store.series(2)) == FIRST + 1
        # The block's next arrays hold the members still in it, only.
        assert block.ids == [0, 2] and block.values.shape == (2 * FIRST, 2)

    @pytest.mark.parametrize("rows", [3, 1024])
    @pytest.mark.parametrize(
        "duplicate", [copy.deepcopy, lambda s: pickle.loads(pickle.dumps(s))]
    )
    def test_a_copy_writes_into_its_own_block(self, duplicate, rows):
        store, ids = wide_store(4, rows)
        copied = duplicate(store)
        block = copied.series(0)._columns
        assert block is not None and block is not store.series(0)._columns
        assert all(copied.series(p)._times is block.times for p in ids)
        for step in range(rows, rows + 3):  # staged, then written in the copy
            copied.record_aggregate_many(ids, step * 0.1, [step + p / 8 for p in ids])
        for p in ids:
            same_series(copied.series(p), lone(rows + 3, p))
            same_series(store.series(p), lone(rows, p))

    def test_a_block_survives_a_batch_for_a_subset_of_its_ids(self):
        store, ids = wide_store(4, 10)
        block = store.series(0)._columns
        store.record_aggregate_many(ids[:2], 10 * 0.1, [7.0, 8.0])
        assert [len(store.series(p)) for p in ids] == [11, 11, 10, 10]
        assert all(store.series(p)._columns is block for p in ids[2:])

    def test_after_an_outage_the_block_writes_one_row_per_group(self, monkeypatch):
        # Paths 2 and 3 miss rows 10-12 (a blackhole leaves them out of the
        # batch); named again, they move on together to a block of their
        # own, and from then on a batch for all four ids is one row write
        # per block: no per-path append, no copy at any other capacity.
        rows, appends = [], []
        append_row = store_module._ColumnBlock.append_row

        def counted_row(self, *args):
            rows.append(self)
            return append_row(self, *args)

        store, ids = wide_store(4, 10)
        block = store.series(0)._columns
        for step in (10, 11, 12):
            store.record_aggregate_many(ids[:2], step * 0.1, [7.0, 8.0])
            store.last_time(0)
        monkeypatch.setattr(store_module._ColumnBlock, "append_row", counted_row)
        monkeypatch.setattr(
            TimeSeries, "append", lambda *args: appends.append(args)
        )
        for step in (13, 14, 15):
            store.record_aggregate_many(ids, step * 0.1, [9.0, 9.5, 10.0, 10.5])
            store.last_time(0)
        moved = store.series(2)._columns
        assert moved is store.series(3)._columns and moved is not block
        assert block.members == [store.series(0), store.series(1)]
        assert moved.capacity == block.capacity == FIRST and moved.ids == [2, 3]
        assert block.values.shape == moved.values.shape == (FIRST, 2)
        assert rows == [block, moved] * 3 and appends == []
        assert [len(store.series(p)) for p in ids] == [16, 16, 13, 13]
        assert store.series(3).times.tolist()[-4:] == [s * 0.1 for s in (9, 13, 14, 15)]
        assert store.series(3).values.tolist()[-4:] == [9 + 3 / 8, 10.5, 10.5, 10.5]
        # Each block doubles on its own schedule.
        for step in range(16, FIRST + 1):
            store.record_aggregate_many(ids, step * 0.1, [0.0, 0.0, 0.0, 0.0])
        store.last_time(0)
        assert block.values.shape == (2 * FIRST, 2) and moved.capacity == FIRST
        assert [store.series(p).grows for p in ids] == [1, 1, 0, 0]

    def test_a_member_that_missed_rows_alone_leaves_alone(self):
        store, ids = wide_store(3, 10)
        store.record_aggregate_many([0, 1], 1.0, [7.0, 8.0])
        store.record_aggregate_many(ids, 1.1, [1.0, 2.0, 3.0])
        assert store.series(2)._columns is None
        assert store.series(2)._capacity == FIRST
        assert store.series(2).times.tolist()[-2:] == [9 * 0.1, 1.1]
        # The batch's plan writes into a block without its column.
        assert store.series(0)._columns.ids == [0, 1]
        assert store.series(0)._columns.values.shape == (FIRST, 2)

    def test_copies_of_a_block_with_missed_rows_are_equal_bytes(self):
        pickles = []
        for headroom in (1.0, np.nan):
            store, ids = wide_store(4, 10)
            block = store.series(0)._columns
            block.times[10:] = headroom
            block.values[10:] = headroom
            store.record_aggregate_many(ids[:2], 1.0, [7.0, 8.0])
            store.last_time(0)
            pickles.append(pickle.dumps(store))
        assert pickles[0] == pickles[1]
        copied = pickle.loads(pickles[0])
        assert copied.series(3)._columns is copied.series(0)._columns
        assert [len(copied.series(p)) for p in ids] == [11, 11, 10, 10]

    def test_the_matrix_is_row_major_and_members_are_its_columns(self):
        store, ids = wide_store(5, 10)
        block = store.series(0)._columns
        assert block.values.flags.c_contiguous and block.values.shape == (FIRST, 5)
        for j, p in enumerate(ids):
            column = store.series(p)._values
            assert column.base is block.values and column.strides == (5 * 8,)
            assert column.ctypes.data == block.values[:, j].ctypes.data

    @given(
        width=st.sampled_from([2, 3, 5, 256]),
        rows=st.one_of(
            st.sampled_from([1, 127, 128, 129, 255, 256, 257]),
            st.sampled_from([1023, 1024, 1025, 2047, 2048, 2049]),
            st.integers(1, 2100),
        ),
        read_every=st.sampled_from([1, 3, 300]),
        seed=st.integers(0, 2**32 - 1),
        data=st.data(),
    )
    @settings(max_examples=40, deadline=None)
    def test_a_member_reads_as_a_lone_series(
        self, width, rows, read_every, seed, data
    ):
        """Across the doubling edges, written through or staged: a
        member's reads, copies and leaving give the bytes a lone series
        fed the same rows gives — one stated with the block's first
        capacity, which is 1,024 rows for a 256-wide block."""
        rng = np.random.default_rng(seed)
        times = np.cumsum(rng.choice([0.0, 0.01, 0.25], size=rows)).tolist()
        matrix = rng.normal(0.05, 0.01, size=(rows, width))
        store, ids = MeasurementStore(), list(range(width))
        for k, t in enumerate(times):
            store.record_aggregate_many(ids, t, matrix[k])
            if k % read_every == 0:
                store.last_time(0)
        j = data.draw(st.integers(0, width - 1), label="member")
        alone = stated(store_module._first_capacity(width))
        for t, value in zip(times, matrix[:, j].tolist()):
            alone.append(t, value)
        t0 = data.draw(st.floats(-1.0, times[-1] + 1.0), label="t0")
        t1 = data.draw(st.floats(-1.0, times[-1] + 1.0), label="t1")
        q = data.draw(st.floats(0.0, 100.0), label="q")

        def reads(series):
            window_times, window_values = series.window(t0, t1)
            return (
                series.times.tobytes(),
                series.values.tobytes(),
                series.grows,
                series.last_value,
                series.mean().hex(),
                series.percentile(q).hex(),
                float(np.std(series.values)).hex(),
                window_times.tobytes(),
                window_values.tobytes(),
            )

        member = store.series(ids[j])
        assert member._columns is not None
        assert reads(member) == reads(alone)
        for copied in (copy.deepcopy(store), pickle.loads(pickle.dumps(store))):
            assert reads(copied.series(ids[j])) == reads(alone)
        store.record(ids[j], times[-1], 0.5)  # written alone: leaves
        alone.append(times[-1], 0.5)
        assert member._columns is None
        assert reads(member) == reads(alone)


class TestExtendBlock:
    """A bulk block write holds one time column and the values once, and
    its series are the ones a bulk append per column gives."""

    def matrix(self, rows=300, width=4):
        times = np.arange(rows) * 0.01
        values = np.random.default_rng(7).normal(0.05, 0.01, size=(rows, width))
        return times, values

    def test_equals_an_extend_per_column(self):
        times, values = self.matrix()
        ids = [5, 2, 9, 7]
        block, alone = MeasurementStore(), MeasurementStore()
        block.extend_block(ids, times, values)
        for j, path_id in enumerate(ids):
            alone.extend(path_id, times, values[:, j])
        columns = block.series(5)._columns
        assert columns is not None and columns.ids == ids and columns.capacity == 512
        for path_id in ids:
            same_series(block.series(path_id), alone.series(path_id))
        # A second write of the same ids is one more 2-D assignment.
        block.extend_block(ids, times + 3.0, values)
        for j, path_id in enumerate(ids):
            alone.extend(path_id, times + 3.0, values[:, j])
            same_series(block.series(path_id), alone.series(path_id))
        assert block.series(9)._columns is columns

    def test_one_path_or_a_measured_path_is_written_per_series(self):
        times, values = self.matrix(width=2)
        store = MeasurementStore()
        store.extend_block([1], times, values[:, :1])
        assert store.series(1)._columns is None and len(store.series(1)) == 300
        store.record(3, 0.0, 1.0)
        store.extend_block([3, 4], times + 1.0, values)
        assert store.series(3)._columns is None and len(store.series(3)) == 301

    @pytest.mark.parametrize(
        "ids, times, values",
        [
            ([1, 2], [0.0, 1.0], np.zeros((2, 3))),  # a column per path
            ([1, 2], [[0.0], [1.0]], np.zeros((2, 2))),  # 1-D times
            ([1, 1], [0.0, 1.0], np.zeros((2, 2))),  # distinct ids
            ([1, 2], [1.0, 0.0], np.zeros((2, 2))),  # ordered
            ([1, 2], [0.0, np.inf], np.zeros((2, 2))),  # finite
            ([1, 2], [np.nan, 1.0], np.zeros((2, 2))),
            ([2, 3], [0.0, 1.0], np.zeros((2, 2))),  # 2 holds 5.0 already
        ],
    )
    def test_a_bad_block_is_refused_whole(self, ids, times, values):
        store = MeasurementStore()
        store.record(2, 5.0, 1.0)
        with pytest.raises(ValueError):
            store.extend_block(ids, times, values)
        assert store.path_ids() == [2] and len(store.series(2)) == 1


class TestPicklesHoldOnlyTheFilledRows:
    """A copy is the filled rows and the capacity: the headroom was never
    written, so two series with the same samples pickle to the same bytes
    whatever their unwritten memory holds."""

    @staticmethod
    def ten_samples(headroom):
        series = TimeSeries()
        for i in range(10):
            series.append(i * 0.1, i + 0.5)
        series._times[10:] = headroom  # what np.empty may hand back
        series._values[10:] = headroom
        return series

    def test_equal_series_pickle_to_equal_bytes(self):
        a, b = self.ten_samples(1.0), self.ten_samples(np.nan)
        assert pickle.dumps(a) == pickle.dumps(b)
        assert len(pickle.dumps(a)) < 1024

    @pytest.mark.parametrize(
        "duplicate", [copy.deepcopy, lambda s: pickle.loads(pickle.dumps(s))]
    )
    def test_a_copy_keeps_its_capacity_and_growth(self, duplicate):
        series = TimeSeries()
        for i in range(1500):
            series.append(i * 0.1, float(i))
        copied = duplicate(series)
        assert copied._capacity == copied._times.size == copied._values.size == 2048
        assert copied.grows == series.grows == 4  # 128 doubled to 2,048
        assert copied.values.tobytes() == series.values.tobytes()
        copied.append(1500 * 0.1, 1.0)
        assert len(copied) == 1501 and len(series) == 1500

    def test_equal_blocks_pickle_to_equal_bytes(self):
        pickles = []
        for headroom in (1.0, np.nan):
            store, _ = wide_store(3, 10)
            block = store.series(0)._columns
            block.times[10:] = headroom
            block.values[10:] = headroom
            pickles.append(pickle.dumps(store))
        assert pickles[0] == pickles[1]

    def test_a_copied_block_keeps_its_capacity(self):
        store, _ = wide_store(3, 1500)
        copied = pickle.loads(pickle.dumps(store)).series(0)._columns
        assert copied.capacity == 2048 and copied.rows == 1500
        assert copied.values.shape == (2048, 3) and copied.values.flags.c_contiguous
        assert copied.times.size == 2048


class TestWindowAgainstTwoSearches:
    """``window`` takes the end of a trailing window past the last row
    without a search; it returns what two searches return."""

    @given(
        gaps=st.lists(st.sampled_from([0.0, 0.0, 0.25, 1.0]), max_size=30),
        data=st.data(),
        wide=st.booleans(),
    )
    @settings(max_examples=300, deadline=None)
    def test_window_is_the_two_search_slice(self, gaps, data, wide):
        times = np.cumsum(gaps).tolist()
        store = MeasurementStore()
        for i, t in enumerate(times):
            if wide:  # a column-block member
                store.record_aggregate_many([1, 2], t, [float(i), -float(i)])
            else:
                store.record(1, t, float(i))
        series = store.series(1)
        last = times[-1] if times else 0.0
        bound = st.one_of(
            st.sampled_from(
                [
                    last,  # a tie with the last row
                    last + 1e-12,
                    np.nextafter(last, np.inf),
                    np.nextafter(last, -np.inf),
                    -np.inf,
                    np.inf,
                    np.nan,
                ]
            ),
            st.floats(-1.0, last + 1.0),
        )
        t0, t1 = data.draw(bound, label="t0"), data.draw(bound, label="t1")
        lo, hi = series.count_before(t0), series.count_before(t1)
        got_times, got_values = series.window(t0, t1)
        assert got_times.tobytes() == series._times[lo:hi].tobytes()
        assert got_values.tobytes() == series._values[lo:hi].tobytes()


class TestRecordAggregateMany:
    def test_batched_equals_scalar_loop(self):
        batched, scalar = MeasurementStore(), MeasurementStore()
        pids = [4, 1, 3]
        for step in range(50):
            t = step * 0.1
            owds = [0.03 + 0.001 * step + 0.0001 * p for p in pids]
            batched.record_aggregate_many(pids, t, owds)
            for pid, owd in zip(pids, owds):
                scalar.record(pid, t, owd)
        assert batched.path_ids() == scalar.path_ids()
        for pid in pids:
            a, b = batched.series(pid), scalar.series(pid)
            assert a.times.tobytes() == b.times.tobytes()
            assert a.values.tobytes() == b.values.tobytes()

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="length"):
            MeasurementStore().record_aggregate_many([1, 2], 0.0, [0.03])

    def test_empty_batch_is_noop(self):
        store = MeasurementStore()
        store.record_aggregate_many([], 0.0, [])
        assert store.path_ids() == []


class TestMeasurementStore:
    def test_record_and_series(self):
        store = MeasurementStore()
        store.record(1, 0.0, 0.030)
        store.record(1, 0.01, 0.031)
        assert len(store.series(1)) == 2

    def test_path_ids_sorted_nonempty_only(self):
        store = MeasurementStore()
        store.record(3, 0.0, 1.0)
        store.record(1, 0.0, 1.0)
        store.series(7)  # created but empty
        assert store.path_ids() == [1, 3]

    def test_recent_delay_window(self):
        store = MeasurementStore()
        store.record(1, 0.0, 0.100)
        store.record(1, 9.0, 0.030)
        store.record(1, 9.5, 0.032)
        assert store.recent_delay(1, window_s=1.0, now=9.6) == pytest.approx(
            0.031
        )

    def test_recent_delay_none_when_no_fresh_samples(self):
        store = MeasurementStore()
        store.record(1, 0.0, 0.030)
        assert store.recent_delay(1, window_s=1.0, now=100.0) is None

    def test_recent_delay_unknown_path(self):
        assert MeasurementStore().recent_delay(9, 1.0, 0.0) is None


def bits(x):
    return np.float64(x).tobytes()


#: Series lengths around numpy's 8-wide summation unroll and its
#: 128-element pairwise block, where a different summation order would
#: show first.
LENGTHS = st.one_of(
    st.integers(1, 20),
    st.integers(120, 136),
    st.integers(250, 262),
    st.sampled_from([1000, 1024, 3000]),
)


@st.composite
def delay_series(draw):
    """Times on a 10 ms grid and delays over several magnitudes."""
    n = draw(LENGTHS)
    scale = draw(st.sampled_from([1e-3, 0.03, 1.0, 1e6]))
    seed = draw(st.integers(0, 2**32 - 1))
    values = np.random.default_rng(seed).random(n) * scale
    head = draw(
        st.lists(st.floats(-1e3, 1e3, allow_nan=False), max_size=min(n, 8))
    )
    values[: len(head)] = head
    return np.arange(n) * 0.01, values


class TestWindowMeansAreNumpyMeans:
    """``recent_delay`` and ``TimeSeries.mean`` skip ``np.mean``'s Python
    wrapper; they must still return its float, bit for bit."""

    @given(
        series=delay_series(),
        window_s=st.floats(1e-3, 40.0),
        now=st.floats(-1.0, 40.0),
    )
    @settings(max_examples=300, deadline=None)
    def test_recent_delay_is_the_window_mean(self, series, window_s, now):
        times, values = series
        store = MeasurementStore()
        store.extend(1, times, values)
        _, window = store.series(1).window(now - window_s, now + 1e-12)
        got = store.recent_delay(1, window_s, now)
        if window.size == 0:
            assert got is None
        else:
            assert type(got) is float
            assert bits(got) == bits(float(np.mean(window)))

    @given(series=delay_series())
    @settings(max_examples=200, deadline=None)
    def test_series_mean_is_the_numpy_mean(self, series):
        times, values = series
        ts = TimeSeries()
        for t, v in zip(times.tolist(), values.tolist()):
            ts.append(t, v)
        assert type(ts.mean()) is float
        assert bits(ts.mean()) == bits(float(np.mean(values)))


class TestLastTime:
    def test_empty_series_has_no_last_time(self):
        assert TimeSeries().last_time is None

    def test_last_time_tracks_appends(self):
        series = TimeSeries()
        series.append(1.0, 0.03)
        series.append(2.5, 0.031)
        assert series.last_time == 2.5

    def test_store_last_time_per_path(self):
        store = MeasurementStore()
        store.record(3, 1.25, 0.03)
        assert store.last_time(3) == 1.25
        assert store.last_time(7) is None


class TestEmptySeriesContract:
    """Empty series answer None everywhere, never raise or diverge."""

    def test_empty_series_has_no_last_value(self):
        assert TimeSeries().last_value is None

    def test_last_value_tracks_appends(self):
        series = TimeSeries()
        series.append(1.0, 0.03)
        series.append(2.5, 0.031)
        assert series.last_value == 0.031

    def test_store_last_value_per_path(self):
        store = MeasurementStore()
        store.record(3, 1.25, 0.03)
        assert store.last_value(3) == 0.03
        assert store.last_value(7) is None

    def test_created_but_empty_series_answers_none(self):
        store = MeasurementStore()
        store.series(9)  # created on read, never written
        assert store.last_time(9) is None
        assert store.last_value(9) is None

    def test_items_consistent_with_path_ids(self):
        """items() must not leak series that path_ids() hides."""
        store = MeasurementStore()
        store.record(3, 0.0, 1.0)
        store.record(1, 0.0, 1.0)
        store.series(7)  # created but empty
        assert [p for p, _ in store.items()] == store.path_ids() == [1, 3]


NAN = float("nan")


class TestNanTimesRejected:
    """A NaN time compares False both ways; it must not switch the
    monotonic guard off for the rest of the series."""

    def test_append_rejects_nan_and_keeps_guarding(self):
        series = TimeSeries()
        series.append(1.0, 0.0)
        with pytest.raises(ValueError, match="NaN"):
            series.append(NAN, 0.0)
        with pytest.raises(ValueError, match="backwards"):
            series.append(0.5, 0.0)  # [1.0, nan, 0.5] was accepted before
        np.testing.assert_array_equal(series.times, [1.0])

    def test_append_rejects_nan_as_first_sample(self):
        with pytest.raises(ValueError):
            TimeSeries().append(NAN, 0.0)

    @pytest.mark.parametrize("times", [[NAN], [NAN, 2.0], [2.0, NAN], [2.0, NAN, 3.0]])
    def test_extend_rejects_nan_anywhere(self, times):
        series = TimeSeries()
        series.append(1.0, 0.0)
        with pytest.raises(ValueError):
            series.extend(np.array(times), np.zeros(len(times)))
        assert len(series) == 1 and series.last_time == 1.0

    def test_extend_from_cannot_carry_nan(self):
        # The source's own guard keeps NaN out, so the seam check is enough.
        source, sink = TimeSeries(), TimeSeries()
        with pytest.raises(ValueError):
            source.append(NAN, 0.0)
        sink.extend_from(source, 0, len(source))
        assert len(sink) == 0

    def test_store_record_and_batch_reject_nan(self):
        store = MeasurementStore()
        store.record(1, 1.0, 0.03)
        with pytest.raises(ValueError):
            store.record(1, NAN, 0.03)
        with pytest.raises(ValueError):
            store.record_aggregate_many([2, 1], NAN, [0.03, 0.03])
        with pytest.raises(ValueError, match="backwards"):
            store.record(1, 0.5, 0.03)
        assert store.path_ids() == [1]
        assert store.recent_delay(1, window_s=1.0, now=1.0) == 0.03


class TestExtendFrom:
    def source(self):
        series = TimeSeries()
        for i in range(5):
            series.append(float(i), i * 10.0)
        return series

    def test_copies_the_slice(self):
        sink = TimeSeries()
        sink.append(0.5, -1.0)
        sink.extend_from(self.source(), 1, 4)
        np.testing.assert_array_equal(sink.times, [0.5, 1.0, 2.0, 3.0])
        np.testing.assert_array_equal(sink.values, [-1.0, 10.0, 20.0, 30.0])
        assert sink.last_time == 3.0

    def test_same_bytes_as_extend(self):
        source = self.source()
        by_copy, by_arrays = TimeSeries(), TimeSeries()
        by_copy.extend_from(source, 0, 5)
        by_arrays.extend(source.times, source.values)
        assert by_copy.times.tobytes() == by_arrays.times.tobytes()
        assert by_copy.values.tobytes() == by_arrays.values.tobytes()

    def test_empty_slice_is_noop(self):
        sink = TimeSeries()
        sink.extend_from(self.source(), 2, 2)
        assert len(sink) == 0 and sink.last_time is None

    @pytest.mark.parametrize("start,end", [(-1, 2), (3, 2), (0, 6), (6, 6)])
    def test_bounds_checked(self, start, end):
        with pytest.raises(IndexError):
            TimeSeries().extend_from(self.source(), start, end)

    def test_seam_checked(self):
        sink = TimeSeries()
        sink.append(2.5, 0.0)
        with pytest.raises(ValueError, match="backwards"):
            sink.extend_from(self.source(), 2, 5)
        sink.extend_from(self.source(), 3, 5)  # 3.0 >= 2.5
        assert len(sink) == 3

    def test_grows_past_capacity(self):
        source, sink = TimeSeries(), TimeSeries()
        for i in range(3000):
            source.append(float(i), 1.0)
        sink.extend_from(source, 0, 3000)
        # One allocation of 128 doubled five times.
        assert len(sink) == 3000 and sink.grows == 5 and sink._capacity == 4096


class TestCountBefore:
    def test_strict_with_ties(self):
        series = TimeSeries()
        for t in (1.0, 2.0, 2.0, 3.0):
            series.append(t, 0.0)
        assert series.count_before(2.0) == 1
        assert series.count_before(0.0) == 0
        assert series.count_before(float("inf")) == 4
        assert TimeSeries().count_before(1.0) == 0


class TestStoreCursor:
    def store(self):
        store = MeasurementStore()
        for path_id in (20, 3, 100):
            for t in (1.0, 2.0, 3.0):
                store.record(path_id, t, path_id + t)
        return store

    @staticmethod
    def blocks(cursor, *args):
        return [(p, start, end) for p, _s, start, end in cursor.take(*args)]

    def test_unscoped_takes_everything_in_ascending_id_order(self):
        cursor = StoreCursor(self.store())
        assert cursor.scope is None
        assert self.blocks(cursor) == [(3, 0, 3), (20, 0, 3), (100, 0, 3)]
        assert self.blocks(cursor) == []

    def test_take_through_is_inclusive_and_resumes(self):
        cursor = StoreCursor(self.store(), {20})
        assert self.blocks(cursor, 2.0) == [(20, 0, 2)]
        assert self.blocks(cursor, 2.5) == []
        assert self.blocks(cursor, 3.0) == [(20, 2, 3)]

    def test_scope_extends_in_order_and_ignores_unmeasured_ids(self):
        cursor = StoreCursor(self.store(), [20, 7])
        cursor.extend_scope(3)
        cursor.extend_scope(20)
        assert cursor.scope == {3, 7, 20}
        assert self.blocks(cursor) == [(3, 0, 3), (20, 0, 3)]

    def test_extend_scope_is_a_noop_when_unscoped(self):
        cursor = StoreCursor(self.store())
        cursor.extend_scope(3)
        assert cursor.scope is None

    def test_unscoped_picks_up_ids_that_appear_later(self):
        store = self.store()
        cursor = StoreCursor(store)
        self.blocks(cursor)
        store.series(5)  # created on read, still empty
        store.record(50, 4.0, 0.0)
        store.record(3, 4.0, 0.0)
        assert self.blocks(cursor) == [(3, 3, 4), (50, 0, 1)]

    def test_discard_before_is_strict_and_counts_unread_rows_only(self):
        cursor = StoreCursor(self.store(), {3, 20})
        assert self.blocks(cursor, 1.0) == [(3, 0, 1), (20, 0, 1)]
        assert cursor.discard_before(3.0) == 2  # the rows at 2.0; 3.0 survives
        assert cursor.discard_before(3.0) == 0
        assert self.blocks(cursor) == [(3, 2, 3), (20, 2, 3)]

    def test_a_consumer_that_raises_leaves_its_block_unread(self):
        cursor = StoreCursor(self.store(), {3, 20})
        with pytest.raises(RuntimeError):
            for path_id, _series, _start, _end in cursor.take():
                if path_id == 20:
                    raise RuntimeError("sink refused the block")
        assert self.blocks(cursor) == [(20, 0, 3)]

    @pytest.mark.parametrize("read", ["take", "discard_before"])
    def test_a_nan_time_is_refused_and_reads_nothing(self, read):
        # At the parent take(nan) handed over every row, future ones
        # included, and discard_before(nan) dropped every unread row.
        cursor = StoreCursor(self.store(), {3, 20})
        with pytest.raises(ValueError, match="nan"):
            list(getattr(cursor, read)(float("nan")))
        assert self.blocks(cursor, 1.0) == [(3, 0, 1), (20, 0, 1)]

    def test_a_scope_grown_below_its_ids_keeps_positions(self):
        store = self.store()
        cursor = StoreCursor(store, {20, 100})
        assert self.blocks(cursor, 2.0) == [(20, 0, 2), (100, 0, 2)]
        cursor.extend_scope(3)
        store.record(20, 4.0, 0.0)
        assert self.blocks(cursor) == [(3, 0, 3), (20, 2, 4), (100, 2, 3)]

    def test_a_scoped_id_is_followed_once_its_series_appears(self):
        store = self.store()
        cursor = StoreCursor(store, {7, 20})
        assert self.blocks(cursor) == [(20, 0, 3)]
        store.record(7, 4.0, 0.0)
        assert self.blocks(cursor) == [(7, 0, 1)]
