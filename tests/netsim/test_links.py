"""Tests for links: delay, loss, serialization, MTU."""

import ipaddress
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.netsim.delaymodels import ConstantDelay, RouteChangeEvent
from repro.netsim.events import Simulator
from repro.netsim.links import (
    ConstantLoss,
    Link,
    LossModel,
    OverrideLoss,
    WindowedLoss,
)
from repro.netsim.node import HostNode
from repro.netsim.packet import Ipv6Header, Packet


def make_packet(payload=100):
    return Packet(
        headers=[
            Ipv6Header(
                src=ipaddress.IPv6Address("::1"),
                dst=ipaddress.IPv6Address("::2"),
            )
        ],
        payload_bytes=payload,
    )


def make_link(sim, dst, **kwargs):
    src = HostNode("src", sim)
    defaults = dict(delay=ConstantDelay(0.010))
    defaults.update(kwargs)
    return Link("l", src, dst, **defaults)


class TestDelivery:
    def test_packet_arrives_after_delay(self):
        sim = Simulator()
        dst = HostNode("dst", sim)
        link = make_link(sim, dst, delay=ConstantDelay(0.025))
        arrivals = []
        dst._on_packet = lambda p, t: arrivals.append(t)
        assert link.transmit(sim, make_packet())
        sim.run()
        assert arrivals == [pytest.approx(0.025)]

    def test_stats_track_delivery(self):
        sim = Simulator()
        dst = HostNode("dst", sim)
        link = make_link(sim, dst)
        for _ in range(5):
            link.transmit(sim, make_packet())
        sim.run()
        assert link.stats.transmitted == 5
        assert link.stats.delivered == 5
        assert link.stats.loss_fraction == 0.0

    def test_bandwidth_adds_serialization_delay(self):
        sim = Simulator()
        dst = HostNode("dst", sim)
        link = make_link(
            sim, dst, delay=ConstantDelay(0.0), bandwidth_bps=8000.0
        )
        arrivals = []
        dst._on_packet = lambda p, t: arrivals.append(t)
        packet = make_packet(payload=100)  # 140 wire bytes -> 1120 bits
        link.transmit(sim, packet)
        sim.run()
        assert arrivals == [pytest.approx(1120 / 8000.0)]


WINDOW_START = st.floats(min_value=-10.0, max_value=100.0)
WINDOW_LENGTH = st.floats(min_value=0.0, max_value=30.0)


@st.composite
def windows(draw, max_size=4):
    return tuple(
        (start, start + length)
        for start, length in draw(
            st.lists(st.tuples(WINDOW_START, WINDOW_LENGTH), max_size=max_size)
        )
    )


@st.composite
def loss_stacks(draw):
    """``(model, window edges)``: a constant or windowed base under up to
    three fault overrides (blackholes, flaps, bursts)."""
    rates = st.floats(min_value=0.0, max_value=1.0)
    if draw(st.booleans()):
        model = ConstantLoss(draw(rates))
        edges = []
    else:
        spans = draw(windows())
        model = WindowedLoss(baseline=draw(rates), elevated=draw(rates), windows=spans)
        edges = [edge for span in spans for edge in span]
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        start, length = draw(WINDOW_START), draw(WINDOW_LENGTH)
        kind = draw(st.sampled_from(["blackhole", "flap", "burst"]))
        if kind == "blackhole":
            model = OverrideLoss.blackhole(model, start, start + length)
        elif kind == "flap":
            period = draw(st.floats(min_value=0.5, max_value=10.0))
            duty = draw(st.floats(min_value=0.05, max_value=1.0))
            model = OverrideLoss.flapping(model, start, start + length, period, duty)
        else:
            model = OverrideLoss.burst(model, start, start + length, draw(rates))
        edges += [edge for span in model.windows for edge in span]
    return model, edges


class TestLoss:
    def test_lossless_by_default(self):
        sim = Simulator()
        dst = HostNode("dst", sim)
        link = make_link(sim, dst)
        assert all(link.transmit(sim, make_packet()) for _ in range(50))

    def test_constant_loss_rate_approximately_honored(self):
        sim = Simulator()
        dst = HostNode("dst", sim)
        link = make_link(sim, dst, loss=ConstantLoss(0.3), seed=42)
        dropped = 0
        for i in range(2000):
            sim.clock.advance_to(i * 0.001)
            if not link.transmit(sim, make_packet()):
                dropped += 1
        assert dropped / 2000 == pytest.approx(0.3, abs=0.05)

    def test_loss_always_when_rate_one(self):
        sim = Simulator()
        dst = HostNode("dst", sim)
        link = make_link(sim, dst, loss=ConstantLoss(1.0))
        assert not link.transmit(sim, make_packet())
        assert link.stats.dropped_loss == 1

    def test_invalid_rate_rejected(self):
        with pytest.raises(ValueError):
            ConstantLoss(1.5)

    def test_windowed_loss_elevated_inside_window(self):
        loss = WindowedLoss(baseline=0.0, elevated=0.5, windows=((10.0, 20.0),))
        assert loss.loss_probability(5.0) == 0.0
        assert loss.loss_probability(15.0) == 0.5
        assert loss.loss_probability(20.0) == 0.0

    def test_windowed_loss_from_events(self):
        event = RouteChangeEvent(start=100.0, duration=60.0)
        loss = WindowedLoss.around_events([event], elevated=0.2)
        assert loss.loss_probability(130.0) == 0.2
        assert loss.loss_probability(99.0) == 0.0

    def test_windowed_loss_rejects_a_window_ending_before_it_starts(self):
        # Such a window would never be active; ``constant_until`` reads
        # windows as ordered edges.
        with pytest.raises(ValueError, match=r"end before start: \(20.0, 10.0\)"):
            WindowedLoss(elevated=0.5, windows=((0.0, 1.0), (20.0, 10.0)))
        empty = WindowedLoss(elevated=0.5, windows=((10.0, 10.0),))
        assert empty.loss_probability(10.0) == 0.0


class TestConstantUntil:
    """``constant_until(t)``: the value at ``t`` holds on ``[t, answer)``."""

    def test_each_model_names_its_next_change(self):
        windowed = WindowedLoss(elevated=0.5, windows=((10.0, 20.0),))
        assert ConstantLoss(0.2).constant_until(5.0) == math.inf
        assert [windowed.constant_until(t) for t in (5.0, 10.0, 15.0, 20.0)] == [
            10.0,
            20.0,
            20.0,
            math.inf,
        ]
        hole = OverrideLoss.blackhole(windowed, 12.0, 14.0)
        # Outside its window an override changes at its own next edge or
        # the inner model's, whichever is first; inside, the inner model
        # does not matter.
        assert [hole.constant_until(t) for t in (11.0, 12.5, 14.0)] == [
            12.0,
            14.0,
            20.0,
        ]

    def test_a_model_that_reads_live_state_promises_one_instant(self):
        class Live(LossModel):
            def loss_probability(self, t):
                return 0.0

        assert Live().constant_until(2.5) == math.nextafter(2.5, math.inf)

    @given(
        stack=loss_stacks(),
        t=st.floats(min_value=-20.0, max_value=120.0),
        data=st.data(),
    )
    @settings(max_examples=300, deadline=None)
    def test_value_holds_until_the_change_point(self, stack, t, data):
        model, edges = stack
        until = model.constant_until(t)
        assert until > t
        value = model.loss_probability(t)
        span = until - t if until < math.inf else 1e3
        fractions = data.draw(
            st.lists(st.floats(min_value=0.0, max_value=1.0), max_size=20)
        )
        points = [t + f * span for f in fractions] + [e for e in edges if e >= t]
        if until < math.inf:
            points.append(math.nextafter(until, -math.inf))
        for point in points:
            if point < until:
                assert model.loss_probability(point) == value, point


class TestMtu:
    def test_oversized_packet_dropped(self):
        sim = Simulator()
        dst = HostNode("dst", sim)
        link = make_link(sim, dst, mtu=100)
        assert not link.transmit(sim, make_packet(payload=200))
        assert link.stats.dropped_mtu == 1

    def test_exact_mtu_passes(self):
        sim = Simulator()
        dst = HostNode("dst", sim)
        link = make_link(sim, dst, mtu=140)
        assert link.transmit(sim, make_packet(payload=100))

    def test_invalid_mtu_rejected(self):
        sim = Simulator()
        dst = HostNode("dst", sim)
        with pytest.raises(ValueError):
            make_link(sim, dst, mtu=0)

    def test_invalid_bandwidth_rejected(self):
        sim = Simulator()
        dst = HostNode("dst", sim)
        with pytest.raises(ValueError):
            make_link(sim, dst, bandwidth_bps=0.0)


class TestDeterminism:
    def test_same_seed_same_drop_pattern(self):
        def run(seed):
            sim = Simulator()
            dst = HostNode("dst", sim)
            link = make_link(sim, dst, loss=ConstantLoss(0.5), seed=seed)
            fates = []
            for i in range(200):
                sim.clock.advance_to(i * 0.01)
                fates.append(link.transmit(sim, make_packet()))
            return fates

        assert run(7) == run(7)
        assert run(7) != run(8)
