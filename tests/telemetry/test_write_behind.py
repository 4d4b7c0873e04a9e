"""Write-behind aggregate telemetry, against the loops it replaced.

``MeasurementStore.record_aggregate_many`` and
``SequenceTracker.record_aggregate_many`` used to be one Python loop per
call — a ``TimeSeries.append`` / a counter update per path.  They now
keep a writer's rows whole while nobody reads and fold a block of them
in at once.  The loops are kept *here* as the reference model (made
all-or-nothing, which the product now is too) and hypothesis drives both
with the same calls.  After every rule a *copy* of the product object is
read through its public API and must equal the model — a copy, so that
checking does not itself count as the reader that switches staging off;
separate rules read the real object in place.

The store machine also runs the report road over both stores: the
product ``StoreCursor`` / ``TelemetryMirror`` on the product store, and
the parent's cursor and mirror (``tests/telemetry/oracle.py``) on the
loop model, each into its own sink.  After every step the sinks, the
read positions and the counters must be equal — through rows newer than
the horizon, staged blocks in source and sink, discards past the horizon,
a scope grown below its ids, and a sink that refuses a row mid-sync.

The store machine also drives a wide writer whose batches form a column
block (one time column and one value matrix for its series), a
blackholed subset of its ids (the members left out keep their rows, then
move on together to a block of their own or alone to arrays of their
own), a member written on its own, and a deep copy of the store that
every later rule writes to — with two-row initial arrays, so blocks and
series grow, split and grow again.

The exact work counts at the bottom pin what write-behind and the column
block are for: on a 256-wide engine nobody reads, a step costs no
per-path Python at all, and a written-through step is one row write.
"""

import copy

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.core.session import TelemetryMirror
from repro.dataplane import seqnum as seqnum_module
from repro.dataplane.seqnum import SequenceTracker
from repro.telemetry import store as store_module
from repro.telemetry.loss import LossMonitor
from repro.telemetry.store import (
    MeasurementStore,
    StoreCursor,
    TimeSeries,
    _ColumnBlock,
)
from repro.traffic.vector import VectorFluidEngine
from tests.telemetry.oracle import OracleCursor, OracleMirror
from tests.traffic.test_vector import standin

NAN = float("nan")

# -- the parent's loops (commit fe404f2), validated before they write --------------


class LoopStore(MeasurementStore):
    def record_aggregate_many(self, path_ids, t, owds_s):
        if len(path_ids) != len(owds_s):
            raise ValueError("length mismatch")
        for path_id in path_ids:
            member = self._series.get(path_id)
            if t != t or (member is not None and not (t >= member._last_t)):
                raise ValueError("time went backwards or is NaN")
        for path_id, owd_s in zip(path_ids, owds_s):
            self.record(path_id, t, float(owd_s))


class LoopTracker(SequenceTracker):
    def record_aggregate_many(self, path_ids, delivered, lost):
        if not (len(path_ids) == len(delivered) == len(lost)):
            raise ValueError("length mismatch")
        if any(n < 0 for n in (*delivered, *lost)):
            raise ValueError("delivered and lost must be >= 0")
        for path_id, delivered_n, lost_n in zip(path_ids, delivered, lost):
            if delivered_n or lost_n:
                self.record_aggregate(path_id, int(delivered_n), int(lost_n))


# -- the machines ------------------------------------------------------------------

IDS = [20, 3, 200, 7, 64, 11]
#: A wide writer's paths, unnamed by any other writer: a batch for all of
#: them before anything else touches them forms a column block.
WIDE = [30, 9, 300, 13, 70]
STEPS = [0.0, 0.05, 0.1, 0.35]
path_ids = st.sampled_from(IDS)
delays = st.floats(0.001, 0.5, allow_nan=False)
#: Zero-heavy: an all-zero pair must not create its path, and which row
#: first counts something decides the order paths are created in.
counts = st.sampled_from([0, 0, 0, 1, 2, 9])
as_array = st.booleans()


def outcome(call):
    """``call()``'s result, or the type of what it raised."""
    try:
        return call()
    except (ValueError, IndexError) as error:
        return type(error)


#: (name, latency, scope): scoped above the ids a scope may grow by.
MIRRORS = (("scoped", 0.1, {20, 64, 200}), ("unscoped", 0.0, None))
MIRROR_NAMES = st.sampled_from([name for name, _, _ in MIRRORS])
#: Sink rows against the mirror's horizon: behind it (mostly refused by
#: the sink), at it (staged under rows still to be mirrored) or ahead.
SINK_AHEAD = st.lists(st.sampled_from([-0.5, 0.0, 0.0, 0.3]), min_size=2, max_size=3)

WRITES = st.sampled_from(
    [
        "same ids object",
        "same ids object",
        "equal fresh ids",
        "masked subset",
        "other ids",
        "ids changed in place",
    ]
)


class _WriteBehindMachine(RuleBasedStateMachine):
    """A product object and its loop model fed the same calls; the
    writer's id list is one object, handed over again and again and
    sometimes changed in place, as ``FluidRows._pids`` is."""

    module = None  # whose depth shrinks, so blocks fill within a run

    def __init__(self):
        super().__init__()
        self.ids = [20, 3, 200]
        self._depth = self.module._WRITE_BEHIND_DEPTH
        self.module._WRITE_BEHIND_DEPTH = 3

    def teardown(self):
        self.module._WRITE_BEHIND_DEPTH = self._depth

    def both(self, call):
        """Apply ``call`` to product and model; same result or error type."""
        ours = outcome(lambda: call(self.ours))
        assert ours == outcome(lambda: call(self.model))
        return ours

    def write(self, kind, data):
        """One aggregate write, its paths named the ``kind`` way."""
        if kind == "ids changed in place":
            spare = [p for p in IDS if p not in self.ids]
            if spare and data.draw(st.booleans(), label="grow"):
                self.ids.append(spare[0])
            elif spare:
                self.ids[data.draw(st.integers(0, len(self.ids) - 1))] = spare[-1]
        ids = self.ids
        if kind == "equal fresh ids":
            ids = list(self.ids)
        elif kind == "masked subset":
            width = len(ids)
            mask = data.draw(st.lists(st.booleans(), min_size=width, max_size=width))
            ids = [p for p, keep in zip(self.ids, mask) if keep]
        elif kind == "other ids":  # may repeat one
            ids = data.draw(st.lists(path_ids, max_size=4))
        self.aggregate(ids, list(ids), data)

    @rule(kind=WRITES, data=st.data())
    def aggregate_write(self, kind, data):
        self.write(kind, data)

    @rule(kinds=st.lists(WRITES, min_size=2, max_size=6), data=st.data())
    def writer_runs_ahead(self, kinds, data):
        # Steps nobody reads in place — what stages rows.
        for kind in kinds:
            self.write(kind, data)
            self.a_reader_would_see_the_model()


class StoreMachine(_WriteBehindMachine):
    module = store_module

    def __init__(self):
        super().__init__()
        # Two-row arrays, so series and column blocks grow within a run.
        self._capacity = store_module._INITIAL_CAPACITY
        store_module._INITIAL_CAPACITY = 2
        self.wide = list(WIDE)
        self.now = 0.0
        self.ours, self.model = MeasurementStore(), LoopStore()
        self.cursors = StoreCursor(self.ours), OracleCursor(self.model)
        self.mirrors = {
            which: (
                TelemetryMirror(self.ours, MeasurementStore(), latency, scope),
                OracleMirror(self.model, LoopStore(), latency, scope),
            )
            for which, latency, scope in MIRRORS
        }

    def teardown(self):
        super().teardown()
        store_module._INITIAL_CAPACITY = self._capacity

    @rule(dt=st.sampled_from(STEPS))
    def advance(self, dt):
        self.now += dt

    def aggregate(self, ours_ids, model_ids, data):
        width = len(ours_ids)
        values = data.draw(st.lists(delays, min_size=width, max_size=width))
        self.now += data.draw(st.sampled_from(STEPS), label="dt")
        t = self.now - data.draw(st.sampled_from([0.0] * 6 + [0.2, NAN]), label="back")
        sent = np.array(values) if data.draw(as_array) else list(values)
        ours = outcome(lambda: self.ours.record_aggregate_many(ours_ids, t, sent))
        assert ours == outcome(
            lambda: self.model.record_aggregate_many(model_ids, t, values)
        )

    @rule(value=delays)
    def aggregate_length_mismatch(self, value):
        self.both(lambda s: s.record_aggregate_many(list(self.ids), self.now, [value]))

    @rule(data=st.data())
    def wide_write(self, data):
        # One id list object, as the vector engine's: its first batch
        # forms a column block, the rest write rows into it.
        self.aggregate(self.wide, list(self.wide), data)

    @rule(data=st.data())
    def wide_blackholed_subset(self, data):
        # The vector engine leaves blackholed rows out of a step's batch.
        dropped = data.draw(st.sets(st.sampled_from(WIDE), min_size=1, max_size=2))
        ids = [p for p in self.wide if p not in dropped]
        self.aggregate(ids, list(ids), data)

    @rule(
        path_id=st.sampled_from(WIDE),
        value=delays,
        source=st.sampled_from(IDS + WIDE),
        rows=st.tuples(st.integers(0, 4), st.integers(0, 4)),
    )
    def one_member_written(self, path_id, value, source, rows):
        # Written on its own, a member leaves its block.
        self.both(lambda s: s.record(path_id, self.now, value))
        self.both(
            lambda s: s.series(path_id).extend_from(s.series(source), *sorted(rows))
        )

    @rule()
    def deep_copy_between_writes(self):
        # Every later rule writes to and reads the copy (cursor and mirror
        # sources copied with it): its members must be views of its own
        # copied block, not stand-alone copies of the old views.
        ours = (self.ours, self.cursors[0], [m for m, _ in self.mirrors.values()])
        self.ours, cursor, mirrors = copy.deepcopy(ours)
        self.cursors = cursor, self.cursors[1]
        self.mirrors = {
            which: (mirror, oracle)
            for (which, (_, oracle)), mirror in zip(self.mirrors.items(), mirrors)
        }

    @rule(path_id=path_ids, value=delays, ahead=st.sampled_from([0.0, 0.0, 0.3]))
    def record(self, path_id, value, ahead):
        # ``ahead`` leaves one member series in front of the clock, so a
        # later batch is backwards for that path only.
        self.both(lambda s: s.record(path_id, self.now + ahead, value))

    @rule(path_id=path_ids, value=delays)
    def extend(self, path_id, value):
        times = np.array([self.now, self.now + 0.01])
        self.both(lambda s: s.extend(path_id, times, np.array([value, value])))

    @rule(path_id=path_ids, window=st.sampled_from([0.05, 0.2, 5.0]))
    def read(self, path_id, window):
        self.both(lambda s: s.recent_delay(path_id, window, self.now))
        self.both(lambda s: s.last_time(path_id))
        self.both(lambda s: s.last_value(path_id))
        self.both(lambda s: s.path_ids())
        self.both(lambda s: [(p, len(series)) for p, series in s.items()])
        self.both(lambda s: s.series(path_id).values.tobytes())

    @rule(back=st.sampled_from(STEPS))
    def cursor_take(self, back):
        taken = [
            [
                (path_id, series.times[start:end].tobytes())
                for path_id, series, start, end in cursor.take(self.now - back)
            ]
            for cursor in self.cursors
        ]
        assert taken[0] == taken[1]

    @rule(back=st.sampled_from(STEPS))
    def cursor_discard(self, back):
        ours, model = (c.discard_before(self.now - back) for c in self.cursors)
        assert ours == model

    @rule(which=MIRROR_NAMES)
    def mirror_sync(self, which):
        # A sink that is ahead of a path raises at that path: the paths
        # before it are copied, it and the rest stay unread.
        mirror, oracle = self.mirrors[which]
        assert outcome(lambda: mirror.sync(self.now)) == outcome(
            lambda: oracle.sync(self.now)
        )

    @rule(which=MIRROR_NAMES, back=st.sampled_from([-0.3, 0.0, *STEPS]))
    def mirror_discard(self, which, back):
        # back < latency discards past the horizon, < 0 past the clock.
        mirror, oracle = self.mirrors[which]
        t = self.now - back
        assert mirror.discard_before(t) == oracle.discard_before(t)

    @rule(path_id=path_ids)
    def mirror_extend_scope(self, path_id):
        for mirror in self.mirrors["scoped"]:
            mirror.extend_scope(path_id)

    @rule(
        which=MIRROR_NAMES,
        ids=st.lists(path_ids, min_size=1, max_size=3, unique=True),
        ahead=SINK_AHEAD,
        value=delays,
    )
    def sink_writes(self, which, ids, ahead, value):
        # Back to back, so the product sink stages all but the first; then
        # newer source rows for the same paths are mirrored over them.  A
        # sink row ahead of those rows makes the sync refuse its path.
        mirror, oracle = self.mirrors[which]
        for dt in ahead:
            self.now += 0.01
            t, values = self.now - mirror.latency_s + dt, [value] * len(ids)
            ours, model = (
                outcome(lambda: sink.record_aggregate_many(ids, t, values))
                for sink in (mirror.sink, oracle.sink)
            )
            assert ours == model
        for path_id in ids:
            self.both(lambda s: s.record(path_id, self.now + 0.01, value))
        self.now += mirror.latency_s + 0.01
        self.mirror_sync(which)

    def same_store(self, seen, model):
        assert seen.path_ids() == model.path_ids()
        assert not seen._block_rows and not seen._written
        for path_id in IDS + WIDE:
            ours, theirs = seen.series(path_id), model.series(path_id)
            assert ours.times.tobytes() == theirs.times.tobytes()
            assert ours.values.tobytes() == theirs.values.tobytes()
            assert ours.grows == theirs.grows
            assert ours.last_time == theirs.last_time

    @invariant()
    def a_reader_would_see_the_model(self):
        self.same_store(copy.deepcopy(self.ours), self.model)
        assert len(self.ours._block_rows) < store_module._WRITE_BEHIND_DEPTH

    @invariant()
    def the_mirrors_match_the_oracle(self):
        for mirror, oracle in self.mirrors.values():
            self.same_store(copy.deepcopy(mirror.sink), oracle.sink)
            assert mirror.path_ids == oracle.path_ids
            assert mirror.samples_mirrored == oracle.samples_mirrored
            assert mirror.samples_discarded == oracle.samples_discarded
            assert positions(mirror._cursor) == positions(oracle._cursor)
        assert positions(self.cursors[0]) == positions(self.cursors[1])


def positions(cursor):
    """Rows of each id a cursor has consumed or discarded."""
    if isinstance(cursor, OracleCursor):
        return [cursor._positions.get(path_id, 0) for path_id in IDS + WIDE]
    entries = {entry[0]: entry for entry in cursor._followed}
    return [entries[p][2] if p in entries else 0 for p in IDS + WIDE]


class TrackerMachine(_WriteBehindMachine):
    module = seqnum_module

    def __init__(self):
        super().__init__()
        self.now = 0.0
        self.ours, self.model = SequenceTracker(), LoopTracker()
        self.monitors = LossMonitor(self.ours), LossMonitor(self.model)

    def aggregate(self, ours_ids, model_ids, data):
        width = st.lists(counts, min_size=len(ours_ids), max_size=len(ours_ids))
        delivered, lost = data.draw(width), data.draw(width)
        if lost and data.draw(st.sampled_from([False] * 7 + [True]), label="negative"):
            lost[-1] = -1
        sent = (np.array(delivered, dtype=np.int64), np.array(lost, dtype=np.int64))
        if not data.draw(as_array):
            sent = (list(delivered), list(lost))
        ours = outcome(lambda: self.ours.record_aggregate_many(ours_ids, *sent))
        assert ours == outcome(
            lambda: self.model.record_aggregate_many(model_ids, delivered, lost)
        )

    @rule()
    def aggregate_length_mismatch(self):
        self.both(lambda t: t.record_aggregate_many(list(self.ids), [1], [0]))

    @rule(path_id=path_ids, ahead=st.integers(-2, 3))
    def observe(self, path_id, ahead):
        self.both(
            lambda t: t.observe(path_id, t.stats_for(path_id).highest_seen + ahead)
        )

    @rule(path_id=path_ids, delivered=counts, lost=st.integers(-1, 2))
    def record_aggregate(self, path_id, delivered, lost):
        self.both(lambda t: t.record_aggregate(path_id, delivered, lost))

    @rule(path_id=path_ids)
    def read(self, path_id):
        self.both(lambda t: t.stats_for(path_id))
        self.both(lambda t: list(t.all_paths().items()))

    @rule()
    def sample(self):
        self.now += 0.1
        ours, model = (monitor.sample(self.now) for monitor in self.monitors)
        assert list(ours.items()) == list(model.items())
        for path_id in ours:
            a, b = (monitor.series[path_id] for monitor in self.monitors)
            assert a.values.tobytes() == b.values.tobytes()
            a, b = (monitor.recent_loss(path_id, 3) for monitor in self.monitors)
            assert a == b

    @invariant()
    def a_reader_would_see_the_model(self):
        seen = copy.deepcopy(self.ours)
        # Same counters, and the paths created in the same order.
        assert list(seen.all_paths().items()) == list(self.model.all_paths().items())
        assert not seen._block_lost and not seen._written
        assert len(self.ours._block_lost) < seqnum_module._WRITE_BEHIND_DEPTH


_SETTINGS = settings(max_examples=60, stateful_step_count=40, deadline=None)
TestStoreMatchesLoop = StoreMachine.TestCase
TestStoreMatchesLoop.settings = settings(
    _SETTINGS, max_examples=150, derandomize=True
)
TestTrackerMatchesLoop = TrackerMachine.TestCase
TestTrackerMatchesLoop.settings = _SETTINGS


# -- a rejected batch leaves nothing behind (half-written at the parent) -----------


def test_store_rejects_a_batch_whole():
    store = MeasurementStore()
    store.record(2, 5.0, 0.03)
    with pytest.raises(ValueError):
        store.record_aggregate_many([1, 2], 3.0, [0.01, 0.02])  # backwards for 2 only
    assert len(store.series(1)) == 0 and store.path_ids() == [2]
    # ... and the same batch once the writer runs ahead of its readers.
    store.record_aggregate_many([1, 2], 6.0, [0.01, 0.02])
    store.record_aggregate_many([1, 2], 7.0, [0.01, 0.02])
    for bad_t in (6.5, NAN):
        with pytest.raises(ValueError):
            store.record_aggregate_many([1, 2], bad_t, [0.01, 0.02])
    assert store.series(1).times.tolist() == [6.0, 7.0]


def test_tracker_rejects_a_batch_whole():
    tracker = SequenceTracker()
    for _ in range(2):  # written through, then staged
        with pytest.raises(ValueError):
            tracker.record_aggregate_many([1, 2], [5, -1], [0, 0])
        assert tracker.all_paths() == {}
        tracker.record_aggregate_many([3], [0], [0])
    with pytest.raises(ValueError):
        tracker.record_aggregate_many([1, 2], np.array([5, 1]), np.array([0, -1]))
    assert tracker.all_paths() == {}


# -- what a run of staged rows must not reorder -----------------------------------


def test_an_id_named_twice_in_a_batch_keeps_the_loop_order():
    store = MeasurementStore()
    for step in range(4):
        store.record_aggregate_many([1, 1], float(step), [0.1, 0.2])
    assert store.series(1).times.tolist() == [0.0, 0.0, 1.0, 1.0, 2.0, 2.0, 3.0, 3.0]
    assert store.series(1).values.tolist() == [0.1, 0.2] * 4


def test_paths_are_created_in_the_order_the_loop_meets_them():
    tracker = SequenceTracker()
    tracker.record_aggregate_many([1, 2, 3], [0, 0, 0], [0, 0, 0])  # creates nothing
    tracker.record_aggregate_many([1, 2, 3], np.array([0, 0, 4]), np.array([0, 0, 0]))
    tracker.record_aggregate_many([1, 2, 3], np.array([0, 5, 1]), np.array([0, 0, 0]))
    tracker.record_aggregate_many([1, 2, 3], np.array([0, 1, 1]), np.array([2, 0, 0]))
    created = tracker.all_paths().items()
    assert [(p, s.received, s.presumed_lost) for p, s in created] == [
        (3, 6, 0),
        (2, 6, 0),
        (1, 0, 2),
    ]


# -- exact work counts: 256 tunnels, 1,000 steps -----------------------------------

WIDTH, STEPS_RUN = 256, 1_000


def count_calls(monkeypatch, cls, name, weigh=lambda *args: 1):
    """Replace ``cls.name`` by a wrapper summing ``weigh(*args)`` per call."""
    original, tally = getattr(cls, name), [0]

    def counted(self, *args):
        tally[0] += weigh(*args)
        return original(self, *args)

    monkeypatch.setattr(cls, name, counted)
    return tally


@pytest.mark.parametrize("reader", [False, True], ids=["unread", "read-every-step"])
def test_a_wide_step_costs_per_path_python_only_when_read(monkeypatch, reader):
    deployment, demand = standin(WIDTH)
    fluid = VectorFluidEngine(
        deployment, "a", demand, default_capacity_bps=deployment.capacity_bps
    )
    store, tracker = fluid.receiver.inbound, fluid.sender.tracker
    appends = count_calls(monkeypatch, TimeSeries, "append")
    writes = count_calls(monkeypatch, TimeSeries, "_write")
    rows = count_calls(monkeypatch, _ColumnBlock, "append_row")
    blocks = count_calls(monkeypatch, _ColumnBlock, "write_rows")
    updates = count_calls(
        monkeypatch, SequenceTracker, "_fold", lambda ids, *_: len(ids)
    )
    fluid.start()
    for step in range(1, STEPS_RUN + 1):
        deployment.sim.run(until=step * fluid.step_s + fluid.step_s / 2)
        if reader:
            assert store.last_time(0) is not None
            assert tracker.stats_for(0).received > 0
    assert fluid.steps == STEPS_RUN

    def counts():
        return appends[0], writes[0], rows[0], blocks[0], updates[0]

    if reader:
        # Written through: one row into the column block per step (no
        # per-path append), and today's counter loop.
        every = WIDTH * STEPS_RUN
        assert counts() == (0, 0, STEPS_RUN, 0, every)
        return
    # One step written through as one row, then blocks: 999 rows = 3 full
    # blocks of 256 (one 2-D write / one counter update per path each) +
    # 231 owed.  No per-path append or _write at all.
    assert counts() == (0, 0, 1, 3, 4 * WIDTH)
    assert len(store._block_rows) == len(tracker._block_lost) == 231
    assert all(len(series) == STEPS_RUN for _, series in store.items())
    tracker.all_paths()
    assert counts() == (0, 0, 1, 4, 5 * WIDTH)
