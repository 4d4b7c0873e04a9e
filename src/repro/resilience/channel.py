"""Reliable telemetry transport: a sequenced, acknowledged channel.

The plain :class:`~repro.core.session.TelemetryMirror` is a lossless
in-process copy — an idealization PR 1's fault injector could only
silence wholesale.  This module replaces the copy with a *transport*
simulated over the same unreliable WAN the tunnels traverse:

* every mirrored sample becomes a :class:`TelemetryRecord` carrying a
  per-channel sequence number (assigned at first transmission, so queue
  drops never leave an unfillable receiver gap);
* records travel in batched report frames over a lossy, delayed control
  link — frame loss is a pure function of (seed, frame index, time), so
  replays are bit-exact;
* the receiver suppresses duplicates, buffers out-of-order arrivals and
  delivers records *in sequence* into the sink store (which keeps every
  per-path series time-monotonic), acking cumulatively after each frame;
* the sender retransmits unacked records on a per-record timeout with
  exponential backoff plus deterministic jitter (capped), and fast
  -retransmits the first gap after ``dupack_threshold`` duplicate
  cumulative acks — the receiver's gap-detection signal;
* the send queue is bounded with drop-oldest overflow, and
  :meth:`ReliableTelemetryChannel.health` reports explicit per-edge
  staleness so the controller can *know* its peer feed is degraded
  rather than infer it.

Under loss, delay, reordering and duplication the sink converges to a
prefix of the source; once the wire heals it catches up completely.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass, field
from typing import Optional

from ..netsim.events import PeriodicTask, Simulator
from ..telemetry.store import MeasurementStore, StoreCursor
from ..validate import check_fields, finite, int_in, non_negative, positive, probability

__all__ = [
    "TelemetryRecord",
    "ChannelConfig",
    "ChannelStats",
    "ChannelHealth",
    "ReliableTelemetryChannel",
]

_MASK64 = (1 << 64) - 1


def _uniform(seed: int, index: int) -> float:
    """One deterministic uniform draw in [0, 1) per (seed, index).

    splitmix64-style mixing; the channel draws one per frame (loss) and
    one per retransmission (jitter), indexed so pause/resume cannot shift
    any other draw — the replay-exactness contract of ``repro.faults``,
    whose gray-loss adversary draws from it too.
    """
    x = (seed * 0x9E3779B97F4A7C15 + index * 0xBF58476D1CE4E5B9) & _MASK64
    x ^= x >> 30
    x = (x * 0xBF58476D1CE4E5B9) & _MASK64
    x ^= x >> 27
    x = (x * 0x94D049BB133111EB) & _MASK64
    x ^= x >> 31
    return x / float(1 << 64)


@dataclass(frozen=True)
class TelemetryRecord:
    """One mirrored sample in flight: (seq, path, sample time, value).

    ``tag`` carries the truncated MAC over (sample time, seq, path) when
    the channel authenticates its reports — the same protection the Tango
    header gives piggybacked telemetry, extended to the report frames.
    """

    seq: int
    path_id: int
    t: float
    value: float
    tag: Optional[bytes] = None

    @property
    def t_ns(self) -> int:
        """Sample time quantized to nanoseconds — the MAC'd field."""
        return round(self.t * 1e9)


@dataclass(frozen=True)
class ChannelConfig:
    """Transport tuning knobs.

    Attributes:
        report_interval_s: pump cadence — how often new source samples are
            collected, framed, and due retransmissions re-sent.
        latency_s: one-way control-link delay for frames and acks.
        loss_rate: baseline probability that a frame (or ack) is lost.
        rto_s: initial per-record retransmission timeout.
        rto_backoff: multiplier applied per failed attempt.
        max_rto_s: retransmission-timeout ceiling.
        jitter_frac: deterministic jitter added to each backoff, as a
            fraction of the timeout (decorrelates retransmit bursts).
        queue_limit: bound on the not-yet-transmitted send queue; overflow
            drops the *oldest* queued record (freshness beats history).
        window_records: max records awaiting ack before the sender stops
            dequeuing new ones (backpressure into the bounded queue).
        frame_records: max records batched into one report frame.
        dupack_threshold: duplicate cumulative acks that trigger a fast
            retransmit of the first unacked record.
        staleness_s: peer-feed health horizon for :meth:`health`.
    """

    report_interval_s: float = field(default=0.05, metadata={"check": positive})
    latency_s: float = field(default=0.04, metadata={"check": non_negative})
    loss_rate: float = field(default=0.0, metadata={"check": probability})
    rto_s: float = field(default=0.2, metadata={"check": positive})
    rto_backoff: float = field(default=2.0, metadata={"check": finite})
    max_rto_s: float = field(default=2.0, metadata={"check": finite})
    jitter_frac: float = field(default=0.1, metadata={"check": non_negative})
    queue_limit: int = field(default=4096, metadata={"check": int_in(1)})
    window_records: int = field(default=1024, metadata={"check": int_in(1)})
    frame_records: int = field(default=64, metadata={"check": int_in(1)})
    dupack_threshold: int = field(default=3, metadata={"check": int_in(1)})
    staleness_s: float = field(default=1.0, metadata={"check": positive})

    def __post_init__(self) -> None:
        check_fields(self)
        if self.loss_rate == 1.0:
            raise ValueError(f"loss_rate must be below 1, got {self.loss_rate!r}")
        if self.max_rto_s < self.rto_s:
            raise ValueError("max_rto_s below rto_s")
        if self.rto_backoff < 1.0:
            raise ValueError("rto_backoff must be >= 1")


@dataclass
class ChannelStats:
    """Transport counters (cumulative, deterministic per replay)."""

    records_sent: int = 0
    records_delivered: int = 0
    duplicates: int = 0
    out_of_order: int = 0
    retransmits: int = 0
    fast_retransmits: int = 0
    frames_sent: int = 0
    frames_lost: int = 0
    acks_sent: int = 0
    acks_lost: int = 0
    queue_drops: int = 0
    samples_discarded: int = 0
    records_forged: int = 0
    records_rejected: int = 0


@dataclass(frozen=True)
class ChannelHealth:
    """Explicit per-edge feed status — what the controller's degraded-mode
    decision reads instead of inferring staleness from store contents."""

    fresh: bool
    staleness_s: Optional[float]  # age of newest *delivered* sample; None if none
    queued: int
    unacked: int


@dataclass
class _Pending:
    """Sender-side per-record retransmission state."""

    record: TelemetryRecord
    attempts: int = 0
    deadline: float = 0.0


@dataclass(frozen=True)
class _LossWindow:
    start: float
    end: float
    rate: float


class ReliableTelemetryChannel:
    """Sequenced, acked telemetry between a source and a sink store.

    Drop-in for :class:`~repro.core.session.TelemetryMirror` at the
    session layer: it exposes ``latency_s``, ``samples_mirrored``,
    ``samples_discarded`` and :meth:`discard_before`, and its pump is a
    pausable :class:`~repro.netsim.events.PeriodicTask`, so the existing
    ``telemetry_drop`` fault silences it unchanged.

    Args:
        source: the far edge's inbound measurement store.
        sink: the near edge's outbound store (what policies read).
        sim: the deployment simulator (frames ride its event queue).
        config: transport knobs.
        seed: deterministic draw stream for loss and jitter.
        name: label used in diagnostics.
        authenticator: when set, every record is MAC-tagged at framing
            and verified (incl. replay-window check) before delivery;
            failures are acked (the transport made its best effort) but
            counted in ``stats.records_forged`` and never reach the sink.
        gate: optional plausibility filter (duck-typed: anything with
            ``admit(path_id, t, value, now) -> bool``); records it
            rejects are counted in ``stats.records_rejected`` and
            withheld from the sink.
    """

    def __init__(
        self,
        source: MeasurementStore,
        sink: MeasurementStore,
        sim: Simulator,
        config: ChannelConfig = ChannelConfig(),
        seed: int = 0,
        name: str = "telemetry-channel",
        authenticator=None,
        gate=None,
    ) -> None:
        self.source = source
        self.sink = sink
        self.sim = sim
        self.config = config
        self.seed = seed
        self.name = name
        self.authenticator = authenticator
        self.gate = gate
        self.stats = ChannelStats()
        self.task: Optional[PeriodicTask] = None
        # sender side
        self._cursor = StoreCursor(source)
        self._queue: deque[tuple[int, float, float]] = deque()
        self._next_seq = 0
        self._pending: dict[int, _Pending] = {}
        self._draws = itertools.count()
        self._loss_windows: list[_LossWindow] = []
        # receiver side
        self._expected = 0
        self._reorder: dict[int, TelemetryRecord] = {}
        self._last_cum_acked = -1
        self._dupacks = 0
        self._last_delivered_sample_t: Optional[float] = None

    # -- mirror-compatible surface -------------------------------------------------

    @property
    def latency_s(self) -> float:
        return self.config.latency_s

    @property
    def samples_mirrored(self) -> int:
        """Records delivered into the sink (the mirror-API name)."""
        return self.stats.records_delivered

    @property
    def samples_discarded(self) -> int:
        return self.stats.samples_discarded

    def discard_before(self, t: float) -> int:
        """Drop un-sent samples older than ``t`` — outage reports are lost.

        Mirrors :meth:`TelemetryMirror.discard_before`: samples at exactly
        ``t`` survive.  Already-transmitted (unacked) records stay in
        flight — they were on the wire when the outage cleared.
        """
        discarded = self._cursor.discard_before(t)
        kept = [item for item in self._queue if item[1] >= t]
        discarded += len(self._queue) - len(kept)
        self._queue = deque(kept)
        self.stats.samples_discarded += discarded
        return discarded

    # -- lifecycle -----------------------------------------------------------------

    def start(self) -> PeriodicTask:
        """Start the pump (collection + transmission + retransmission)."""
        if self.task is not None:
            raise RuntimeError("channel already started")
        self.task = self.sim.call_every(self.config.report_interval_s, self._pump)
        return self.task

    def stop(self) -> None:
        if self.task is not None:
            self.task.stop()
            self.task = None

    # -- fault-injection hooks -----------------------------------------------------

    def add_loss_window(self, start: float, end: float, rate: float) -> None:
        """Raise frame loss to ``rate`` inside [start, end) — the
        ``telemetry_loss`` fault's handle.  Pure function of time, so the
        override needs no scheduled state changes."""
        if end <= start:
            raise ValueError(f"need end > start, got [{start}, {end})")
        probability("rate", rate)
        self._loss_windows.append(_LossWindow(start, end, rate))

    def loss_rate(self, now: float) -> float:
        """Effective frame-loss probability at ``now``."""
        rate = self.config.loss_rate
        for window in self._loss_windows:
            if window.start <= now < window.end:
                rate = max(rate, window.rate)
        return rate

    # -- sender --------------------------------------------------------------------

    def _pump(self) -> None:
        now = self.sim.now
        self._collect()
        self._fill_window(now)
        self._transmit_due(now)

    def _collect(self) -> None:
        """Pull new source samples into the bounded send queue."""
        queue, limit = self._queue, self.config.queue_limit
        for path_id, series, start, end in self._cursor.take():
            times = series.times[start:end].tolist()
            values = series.values[start:end].tolist()
            for t, value in zip(times, values):
                if len(queue) >= limit:
                    queue.popleft()
                    self.stats.queue_drops += 1
                queue.append((path_id, t, value))

    def _fill_window(self, now: float) -> None:
        """Assign seqnums to queued records as window space allows."""
        while self._queue and len(self._pending) < self.config.window_records:
            path_id, t, value = self._queue.popleft()
            record = TelemetryRecord(self._next_seq, path_id, t, value)
            if self.authenticator is not None:
                record = TelemetryRecord(
                    record.seq,
                    path_id,
                    t,
                    value,
                    tag=self.authenticator.tag(record.t_ns, record.seq, path_id),
                )
            self._next_seq += 1
            self._pending[record.seq] = _Pending(record, attempts=0, deadline=now)
            self.stats.records_sent += 1

    def _transmit_due(self, now: float) -> None:
        """(Re)send every pending record whose deadline has passed."""
        due = sorted(
            seq for seq, p in self._pending.items() if p.deadline <= now
        )
        cfg = self.config
        for lo in range(0, len(due), cfg.frame_records):
            frame = [self._pending[seq].record for seq in due[lo : lo + cfg.frame_records]]
            self._send_frame(frame, now)
        for seq in due:
            pending = self._pending[seq]
            if pending.attempts > 0:
                self.stats.retransmits += 1
            pending.attempts += 1
            pending.deadline = now + self._rto(seq, pending.attempts)

    def _rto(self, seq: int, attempts: int) -> float:
        cfg = self.config
        rto = min(cfg.rto_s * cfg.rto_backoff ** (attempts - 1), cfg.max_rto_s)
        jitter = _uniform(self.seed ^ 0x5BD1E995, seq * 97 + attempts)
        return rto * (1.0 + cfg.jitter_frac * jitter)

    def _send_frame(self, records: list[TelemetryRecord], now: float) -> None:
        self.stats.frames_sent += 1
        if _uniform(self.seed, next(self._draws)) < self.loss_rate(now):
            self.stats.frames_lost += 1
            return
        self.sim.schedule_in(
            self.config.latency_s, lambda: self._on_frame(tuple(records))
        )

    # -- receiver ------------------------------------------------------------------

    def _on_frame(self, records: tuple[TelemetryRecord, ...]) -> None:
        for record in records:
            if record.seq < self._expected or record.seq in self._reorder:
                self.stats.duplicates += 1
                continue
            if record.seq != self._expected:
                self.stats.out_of_order += 1
            self._reorder[record.seq] = record
        while self._expected in self._reorder:
            self._deliver(self._reorder.pop(self._expected))
            self._expected += 1
        self._send_ack()

    def _deliver(self, record: TelemetryRecord) -> None:
        if self.authenticator is not None and not self.authenticator.verify(
            record.t_ns, record.seq, record.path_id, record.tag
        ):
            self.stats.records_forged += 1
            return
        if self.gate is not None and not self.gate.admit(
            record.path_id, record.t, record.value, self.sim.now
        ):
            self.stats.records_rejected += 1
            return
        self.sink.record(record.path_id, record.t, record.value)
        self.stats.records_delivered += 1
        self._last_delivered_sample_t = record.t

    def _send_ack(self) -> None:
        cum = self._expected - 1
        self.stats.acks_sent += 1
        if _uniform(self.seed, next(self._draws)) < self.loss_rate(self.sim.now):
            self.stats.acks_lost += 1
            return
        self.sim.schedule_in(self.config.latency_s, lambda: self._on_ack(cum))

    def _on_ack(self, cum: int) -> None:
        if cum > self._last_cum_acked:
            for seq in range(self._last_cum_acked + 1, cum + 1):
                self._pending.pop(seq, None)
            self._last_cum_acked = cum
            self._dupacks = 0
            return
        if cum == self._last_cum_acked:
            self._dupacks += 1
            if self._dupacks >= self.config.dupack_threshold and self._pending:
                first = min(self._pending)
                now = self.sim.now
                self._send_frame([self._pending[first].record], now)
                pending = self._pending[first]
                pending.attempts += 1
                pending.deadline = now + self._rto(first, pending.attempts)
                self.stats.fast_retransmits += 1
                self._dupacks = 0

    # -- health --------------------------------------------------------------------

    def health(self, now: Optional[float] = None) -> ChannelHealth:
        """Feed status at ``now`` (defaults to the simulation clock)."""
        if now is None:
            now = self.sim.now
        if self._last_delivered_sample_t is None:
            staleness = None
        else:
            staleness = now - self._last_delivered_sample_t
        fresh = staleness is not None and staleness <= self.config.staleness_s
        return ChannelHealth(
            fresh=fresh,
            staleness_s=staleness,
            queued=len(self._queue),
            unacked=len(self._pending),
        )

    def __repr__(self) -> str:
        return (
            f"ReliableTelemetryChannel({self.name}, sent={self.stats.records_sent}, "
            f"delivered={self.stats.records_delivered}, "
            f"retransmits={self.stats.retransmits})"
        )
