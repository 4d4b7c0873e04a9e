"""The measurement feedback loop's contract, against the parent's code.

Receiver store → ``TelemetryMirror`` / ``ReliableTelemetryChannel`` →
sender store used to be four hand-written per-path loops over
``setdefault(path_id, TimeSeries())`` stores; it is now one
:class:`~repro.telemetry.store.StoreCursor` and a series-to-series copy.
The parent's implementation is kept *here*, as the reference model, and
hypothesis drives both with the same calls: after every step the sink
series bytes, the counters, ``path_ids()`` and the channel's send queue
must be equal.
"""

from collections import deque

import numpy as np
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.core.session import TelemetryMirror
from repro.netsim.events import Simulator
from repro.resilience.channel import ChannelConfig, ReliableTelemetryChannel
from repro.telemetry.store import MeasurementStore, TimeSeries

# -- the parent's implementation (commit c780bfb), verbatim in behaviour ----------


class ParentStore(MeasurementStore):
    """Get-or-create by ``setdefault`` with a throwaway series per call."""

    def __init__(self):
        self._series = {}

    def record(self, path_id, t, owd_s):
        self._series.setdefault(path_id, TimeSeries()).append(t, owd_s)

    def extend(self, path_id, times, owds):
        self._series.setdefault(path_id, TimeSeries()).extend(times, owds)

    def record_aggregate_many(self, path_ids, t, owds_s):
        for path_id, owd_s in zip(path_ids, owds_s):
            self.record(path_id, t, owd_s)

    def series(self, path_id):
        return self._series.setdefault(path_id, TimeSeries())


def parent_unread(source, positions, scope=None):
    """The loop head all four parent loops shared."""
    for path_id in source.path_ids():
        if scope is None or path_id in scope:
            yield path_id, source.series(path_id), positions.get(path_id, 0)


def parent_discard_before(source, positions, t, scope=None):
    discarded = 0
    for path_id, series, start in parent_unread(source, positions, scope):
        cut = int(np.searchsorted(series.times, t, side="left"))
        if cut > start:
            positions[path_id] = cut
            discarded += cut - start
    return discarded


class ParentMirror:
    def __init__(self, source, sink, latency_s, path_ids=None):
        self.source, self.sink, self.latency_s = source, sink, latency_s
        self.path_ids = set(path_ids) if path_ids is not None else None
        self._copied = {}
        self.samples_mirrored = self.samples_discarded = 0

    def extend_scope(self, path_id):
        if self.path_ids is not None:
            self.path_ids.add(path_id)

    def discard_before(self, t):
        discarded = parent_discard_before(
            self.source, self._copied, t, self.path_ids
        )
        self.samples_discarded += discarded
        return discarded

    def sync(self, now):
        horizon = now - self.latency_s
        copied = 0
        for path_id, series, start in parent_unread(
            self.source, self._copied, self.path_ids
        ):
            times = series.times
            end = int(np.searchsorted(times, horizon, side="right"))
            if end <= start:
                continue
            self.sink.extend(path_id, times[start:end], series.values[start:end])
            self._copied[path_id] = end
            copied += end - start
        self.samples_mirrored += copied
        return copied


class ParentCollector:
    """The channel's sender-side queue feed: ``_collect`` + ``discard_before``."""

    def __init__(self, source, queue_limit):
        self.source, self.queue_limit = source, queue_limit
        self._cursor = {}
        self.queue = deque()
        self.queue_drops = self.samples_discarded = 0

    def collect(self):
        for path_id, series, start in parent_unread(self.source, self._cursor):
            times, values = series.times, series.values
            for i in range(start, len(series)):
                if len(self.queue) >= self.queue_limit:
                    self.queue.popleft()
                    self.queue_drops += 1
                self.queue.append((path_id, float(times[i]), float(values[i])))
            self._cursor[path_id] = len(series)

    def discard_before(self, t):
        discarded = parent_discard_before(self.source, self._cursor, t)
        kept = [item for item in self.queue if item[1] >= t]
        discarded += len(self.queue) - len(kept)
        self.queue = deque(kept)
        self.samples_discarded += discarded
        return discarded


# -- the machines ------------------------------------------------------------------

#: Unordered on purpose: the loop must visit ascending ids whatever the
#: insertion order; 200 and 64 exercise multi-digit ordering.
IDS = [20, 3, 200, 7, 64]
SCOPE = {3, 20}
STEPS = [0.0, 0.05, 0.1, 0.35]
path_ids = st.sampled_from(IDS)
values = st.floats(0.001, 0.5, allow_nan=False)


class _LoopMachine(RuleBasedStateMachine):
    """One source store twice (current / parent), fed identically."""

    def __init__(self):
        super().__init__()
        self.now = 0.0
        self.source, self.parent_source = MeasurementStore(), ParentStore()
        self.sources = (self.source, self.parent_source)

    @rule(dt=st.sampled_from(STEPS))
    def advance(self, dt):
        self.now += dt

    @rule(path_id=path_ids, value=values)
    def record(self, path_id, value):
        for source in self.sources:
            source.record(path_id, self.now, value)

    @rule(ids=st.lists(path_ids, max_size=4, unique=True), value=values)
    def record_aggregate_many(self, ids, value):
        for source in self.sources:
            source.record_aggregate_many(ids, self.now, [value] * len(ids))

    @rule(path_id=path_ids)
    def read_unmeasured(self, path_id):
        # series() creates on read; an empty series is not a measured path.
        for source in self.sources:
            source.series(path_id)

    @invariant()
    def sources_agree(self):
        assert self.source.path_ids() == self.parent_source.path_ids()


class MirrorMachine(_LoopMachine):
    """A scoped and an unscoped mirror sharing one source store."""

    def __init__(self):
        super().__init__()
        self.pairs = {}
        for name, latency, scope in (("scoped", 0.1, SCOPE), ("unscoped", 0.05, None)):
            self.pairs[name] = (
                TelemetryMirror(self.source, MeasurementStore(), latency, scope),
                ParentMirror(self.parent_source, ParentStore(), latency, scope),
            )

    @rule(which=st.sampled_from(["scoped", "unscoped"]))
    def sync(self, which):
        mirror, parent = self.pairs[which]
        assert mirror.sync(self.now) == parent.sync(self.now)

    @rule(which=st.sampled_from(["scoped", "unscoped"]), back=st.sampled_from(STEPS))
    def discard_before(self, which, back):
        mirror, parent = self.pairs[which]
        t = self.now - back
        assert mirror.discard_before(t) == parent.discard_before(t)

    @rule(
        which=st.sampled_from(["scoped", "unscoped"]),
        gap=st.sampled_from(STEPS),
        ids=st.lists(path_ids, max_size=3),
        value=values,
    )
    def pause_gap(self, which, gap, ids, value):
        # telemetry_drop: no sync for ``gap`` while samples keep landing;
        # on resume everything already eligible is lost, then sync runs.
        for path_id in ids:
            self.now += gap / len(ids)
            self.record(path_id, value)
        mirror, parent = self.pairs[which]
        cut = self.now - mirror.latency_s
        assert mirror.discard_before(cut) == parent.discard_before(cut)
        assert mirror.sync(self.now) == parent.sync(self.now)

    @rule(which=st.sampled_from(["scoped", "unscoped"]), path_id=path_ids)
    def extend_scope(self, which, path_id):
        for mirror in self.pairs[which]:
            mirror.extend_scope(path_id)

    @invariant()
    def mirrors_agree(self):
        for mirror, parent in self.pairs.values():
            assert mirror.path_ids == parent.path_ids
            assert mirror.samples_mirrored == parent.samples_mirrored
            assert mirror.samples_discarded == parent.samples_discarded
            assert mirror.sink.path_ids() == parent.sink.path_ids()
            for path_id in IDS:
                ours, theirs = mirror.sink.series(path_id), parent.sink.series(path_id)
                assert ours.times.tobytes() == theirs.times.tobytes()
                assert ours.values.tobytes() == theirs.values.tobytes()
                assert ours.last_time == theirs.last_time


class CollectMachine(_LoopMachine):
    """The channel's send queue: path order and drop-oldest included."""

    QUEUE_LIMIT = 6

    def __init__(self):
        super().__init__()
        self.channel = ReliableTelemetryChannel(
            self.source,
            MeasurementStore(),
            Simulator(),
            config=ChannelConfig(queue_limit=self.QUEUE_LIMIT),
        )
        self.parent = ParentCollector(self.parent_source, self.QUEUE_LIMIT)

    @rule()
    def collect(self):
        self.channel._collect()
        self.parent.collect()

    @rule(back=st.sampled_from(STEPS))
    def discard_before(self, back):
        t = self.now - back
        assert self.channel.discard_before(t) == self.parent.discard_before(t)

    @rule(count=st.integers(1, 4))
    def transmit(self, count):
        # What _fill_window does to the queue, without the wire.
        for queue in (self.channel._queue, self.parent.queue):
            for _ in range(min(count, len(queue))):
                queue.popleft()

    @invariant()
    def queues_agree(self):
        queue = list(self.channel._queue)
        assert queue == list(self.parent.queue)
        assert all(type(t) is float and type(v) is float for _, t, v in queue)
        assert self.channel.stats.queue_drops == self.parent.queue_drops
        assert self.channel.stats.samples_discarded == self.parent.samples_discarded


_SETTINGS = settings(max_examples=60, stateful_step_count=40, deadline=None)
TestMirrorMatchesParent = MirrorMachine.TestCase
TestMirrorMatchesParent.settings = _SETTINGS
TestCollectMatchesParent = CollectMachine.TestCase
TestCollectMatchesParent.settings = _SETTINGS
