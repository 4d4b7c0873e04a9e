"""Unit tests: on-path adversary stages (tamper, replay, gray loss)."""

import pytest

from repro.faults.adversary import (
    AdversaryChain,
    GrayLoss,
    TelemetryReplay,
    TelemetryTamper,
)
from repro.netsim.packet import Packet, TangoHeader


def tango_packet(timestamp_ns=1_000_000, seq=0, path_id=2, tag=b"\x01" * 8):
    return Packet(
        headers=[
            TangoHeader(
                timestamp_ns=timestamp_ns, seq=seq, path_id=path_id, auth_tag=tag
            )
        ]
    )


def no_inject(packet):
    raise AssertionError("unexpected injection")


class TestTelemetryTamper:
    def test_bias_applied_tag_kept_stale(self):
        stage = TelemetryTamper(start=1.0, end=2.0, bias_s=0.012)
        packet = tango_packet(timestamp_ns=5_000_000, tag=b"\xaa" * 8)
        out = stage.process(packet, 1.5, no_inject)
        assert out is packet
        assert out.tango.timestamp_ns == 5_000_000 + 12_000_000
        # The stale MAC survives verbatim: under auth this is a forgery.
        assert out.tango.auth_tag == b"\xaa" * 8
        assert stage.tampered == 1

    def test_inactive_outside_window(self):
        stage = TelemetryTamper(start=1.0, end=2.0, bias_s=0.012)
        before = tango_packet(timestamp_ns=7)
        assert stage.process(before, 0.5, no_inject).tango.timestamp_ns == 7
        at_end = tango_packet(timestamp_ns=7)
        assert stage.process(at_end, 2.0, no_inject).tango.timestamp_ns == 7
        assert stage.tampered == 0

    def test_non_tango_packet_untouched(self):
        stage = TelemetryTamper(start=0.0, end=9.0, bias_s=0.012)
        plain = Packet(headers=[])
        assert stage.process(plain, 1.0, no_inject) is plain


class TestTelemetryReplay:
    def test_replays_only_aged_copies(self):
        stage = TelemetryReplay(start=0.0, end=99.0, delay_s=1.0, every=2)
        injected = []
        t = 0.0
        seq = 0
        while t < 3.0:
            stage.process(
                tango_packet(timestamp_ns=int(t * 1e9), seq=seq),
                t,
                injected.append,
            )
            seq += 1
            t = round(t + 0.1, 10)
        assert stage.replayed == len(injected) > 0
        for copy in injected:
            # Byte-identical aged capture: valid tag, stale timestamp.
            assert copy.tango.auth_tag == b"\x01" * 8
        # Every injected copy was at least delay_s old when re-injected:
        # the first eligible capture is the t=0 packet, replayable only
        # once now >= 1.0 — so nothing injected before that.
        assert injected[0].tango.timestamp_ns == 0

    def test_replay_is_a_distinct_packet(self):
        stage = TelemetryReplay(start=0.0, end=99.0, delay_s=0.5, every=1)
        injected = []
        original = tango_packet(seq=7)
        stage.process(original, 0.0, injected.append)
        stage.process(tango_packet(seq=8), 1.0, injected.append)
        assert len(injected) == 1
        assert injected[0] is not original
        assert injected[0].tango.seq == 7

    def test_validation(self):
        with pytest.raises(ValueError, match="delay"):
            TelemetryReplay(0.0, 1.0, delay_s=0.0, every=2)
        with pytest.raises(ValueError, match="^every must be an int >= 1"):
            TelemetryReplay(0.0, 1.0, delay_s=1.0, every=0)
        with pytest.raises(ValueError, match="window"):
            TelemetryTamper(start=2.0, end=1.0, bias_s=0.01)


class TestGrayLoss:
    def run_window(self, stage, count, t0=1.0, dt=0.01, path_id=2):
        survivors = []
        for i in range(count):
            out = stage.process(
                tango_packet(seq=i, path_id=path_id),
                t0 + i * dt,
                no_inject,
            )
            if out is not None:
                survivors.append(out)
        return survivors

    def test_drops_near_rate_and_hides_gap(self):
        stage = GrayLoss(start=0.0, end=99.0, rate=0.3, seed=11)
        survivors = self.run_window(stage, 500)
        assert stage.dropped == 500 - len(survivors)
        assert 0.2 < stage.dropped / 500 < 0.4
        # The receiver-visible sequence is perfectly contiguous: every
        # survivor's seq was rewritten down by the hidden count so far.
        seqs = [p.tango.seq for p in survivors]
        assert seqs == list(range(len(survivors)))

    def test_rewrite_persists_past_window_end(self):
        """If survivors reverted to true seq when dropping stops, the
        hidden gap would surface as one visible burst at window end."""
        stage = GrayLoss(start=0.0, end=2.0, rate=1.0, seed=3)
        assert self.run_window(stage, 10, t0=1.0, dt=0.01) == []
        after = stage.process(tango_packet(seq=10), 5.0, no_inject)
        assert after.tango.seq == 0

    def test_hidden_counts_are_per_path(self):
        stage = GrayLoss(start=0.0, end=99.0, rate=1.0, seed=5)
        assert stage.process(tango_packet(seq=0, path_id=1), 1.0, no_inject) is None
        stage.end = 1.5  # close the window; only rewrites remain
        other = stage.process(tango_packet(seq=4, path_id=3), 2.0, no_inject)
        assert other.tango.seq == 4  # path 3 lost nothing
        victim = stage.process(tango_packet(seq=4, path_id=1), 2.0, no_inject)
        assert victim.tango.seq == 3

    def test_deterministic_across_replays(self):
        a = GrayLoss(0.0, 99.0, rate=0.4, seed=21)
        b = GrayLoss(0.0, 99.0, rate=0.4, seed=21)
        kept_a = [p.tango.seq for p in self.run_window(a, 200)]
        kept_b = [p.tango.seq for p in self.run_window(b, 200)]
        assert kept_a == kept_b
        c = GrayLoss(0.0, 99.0, rate=0.4, seed=22)
        assert [p.tango.seq for p in self.run_window(c, 200)] != kept_a

    def test_validation(self):
        with pytest.raises(ValueError, match="rate"):
            GrayLoss(0.0, 1.0, rate=1.5, seed=0)


class TestAdversaryChain:
    class FakeLink:
        def __init__(self):
            self.interceptor = None

    def test_install_on_is_idempotent(self):
        link = self.FakeLink()
        chain = AdversaryChain.install_on(link)
        assert link.interceptor is chain
        assert AdversaryChain.install_on(link) is chain

    def test_stages_compose_in_order(self):
        chain = AdversaryChain()
        chain.add(TelemetryTamper(0.0, 9.0, bias_s=0.010))
        chain.add(GrayLoss(0.0, 9.0, rate=0.0, seed=0))
        out = chain.process(tango_packet(timestamp_ns=0), 1.0, no_inject)
        assert out.tango.timestamp_ns == 10_000_000

    def test_consuming_stage_short_circuits(self):
        chain = AdversaryChain()
        eater = GrayLoss(0.0, 9.0, rate=1.0, seed=0)
        tail = TelemetryTamper(0.0, 9.0, bias_s=0.010)
        chain.add(eater)
        chain.add(tail)
        assert chain.process(tango_packet(), 1.0, no_inject) is None
        assert tail.tampered == 0
