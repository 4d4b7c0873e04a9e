"""Tests for links: delay, loss, serialization, MTU."""

import ipaddress
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.netsim.delaymodels import (
    ConstantDelay,
    DelayModel,
    DiurnalVariation,
    GaussianJitterDelay,
    RouteChangeEvent,
    SpikeProcess,
)
from repro.netsim.events import Simulator
from repro.netsim.links import (
    ConstantLoss,
    Link,
    LossModel,
    OverrideLoss,
    WindowedLoss,
    replace_models,
)
from repro.netsim.node import HostNode
from repro.netsim.packet import Ipv6Header, Packet
from repro.netsim.trace import DroneTelemetryWorkload, PacketFactory, ProbeGenerator


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
        dst.on_packet = lambda p, t: arrivals.append(t)
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
        dst.on_packet = lambda p, t: arrivals.append(t)
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

    def test_a_lossless_link_draws_no_coin_until_its_model_is_replaced(
        self, monkeypatch
    ):
        """A zero ``ConstantLoss`` skips the draw; ``replace_models`` to a
        lossy one (or from it to a zero one) is seen at the next packet."""
        draws = []
        drops = LossModel.drops

        def counted(model, seed, t, nonce=0):
            draws.append(model)
            return drops(model, seed, t, nonce)

        monkeypatch.setattr(LossModel, "drops", counted)
        sim = Simulator()
        link = make_link(sim, HostNode("dst", sim))
        assert link.transmit(sim, make_packet())
        assert draws == []
        replace_models(link, loss=ConstantLoss(1.0))
        assert not link.transmit(sim, make_packet())
        assert draws == [link.loss]
        replace_models(link, loss=ConstantLoss(0.0))
        assert link.transmit(sim, make_packet())
        assert len(draws) == 1

    def test_constant_loss_rate_approximately_honored(self):
        sim = Simulator()
        dst = HostNode("dst", sim)
        link = make_link(sim, dst, loss=ConstantLoss(0.3), seed=42)
        dropped = 0
        for i in range(2000):
            sim.advance_to(i * 0.001)
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
                sim.advance_to(i * 0.01)
                fates.append(link.transmit(sim, make_packet()))
            return fates

        assert run(7) == run(7)
        assert run(7) != run(8)


def _link(**kwargs):
    sim = Simulator()
    return make_link(sim, HostNode("dst", sim), **kwargs)


def _probes(interval):
    return ProbeGenerator(Simulator(), [], lambda packet: None, interval=interval)


NAN, INF = math.nan, math.inf

#: (constructor call, the field its error must name).  A NaN delay used
#: to fail mid-run inside ``schedule_at``; an infinite one stranded its
#: packet in flight; a NaN or fractional link or probe parameter ran on.
REFUSED_AT_CONSTRUCTION = {
    "ConstantDelay(nan)": (lambda: ConstantDelay(NAN), "base"),
    "ConstantDelay(inf)": (lambda: ConstantDelay(INF), "base"),
    "GaussianJitterDelay(base=nan)": (
        lambda: GaussianJitterDelay(base=NAN, sigma=0.001),
        "base",
    ),
    "GaussianJitterDelay(sigma=inf)": (
        lambda: GaussianJitterDelay(base=0.01, sigma=INF),
        "sigma",
    ),
    "DiurnalVariation(amplitude=nan)": (
        lambda: DiurnalVariation(amplitude=NAN),
        "amplitude",
    ),
    "DiurnalVariation(period=inf)": (
        lambda: DiurnalVariation(amplitude=0.001, period=INF),
        "period",
    ),
    "DiurnalVariation(phase=nan)": (
        lambda: DiurnalVariation(amplitude=0.001, phase=NAN),
        "phase",
    ),
    "SpikeProcess(rate_per_second=nan)": (
        lambda: SpikeProcess(NAN, min_magnitude=0.0, max_magnitude=0.01),
        "rate_per_second",
    ),
    "SpikeProcess(min_magnitude=nan)": (
        lambda: SpikeProcess(1.0, min_magnitude=NAN, max_magnitude=0.01),
        "min_magnitude",
    ),
    "SpikeProcess(max_magnitude=inf)": (
        lambda: SpikeProcess(1.0, min_magnitude=0.0, max_magnitude=INF),
        "max_magnitude",
    ),
    "Link(bandwidth_bps=nan)": (lambda: _link(bandwidth_bps=NAN), "bandwidth_bps"),
    "Link(bandwidth_bps=inf)": (lambda: _link(bandwidth_bps=INF), "bandwidth_bps"),
    "Link(mtu=1.5)": (lambda: _link(mtu=1.5), "mtu"),
    "Link(mtu=True)": (lambda: _link(mtu=True), "mtu"),
    "ProbeGenerator(interval=nan)": (lambda: _probes(NAN), "interval"),
    "ProbeGenerator(interval=inf)": (lambda: _probes(INF), "interval"),
    "DroneTelemetryWorkload(rate_hz=nan)": (
        lambda: DroneTelemetryWorkload(
            Simulator(), PacketFactory("::1", "::2"), lambda p: None, rate_hz=NAN
        ),
        "rate_hz",
    ),
}


@pytest.mark.parametrize("case", sorted(REFUSED_AT_CONSTRUCTION))
def test_non_finite_parameters_are_refused_at_construction(case):
    build, field_name = REFUSED_AT_CONSTRUCTION[case]
    with pytest.raises(ValueError, match=field_name):
        build()


def test_every_delay_model_is_in_the_table():
    """A new DelayModel subclass with a float field gets a row too."""
    covered = {case.split("(")[0] for case in REFUSED_AT_CONSTRUCTION}
    models = {cls.__name__ for cls in DelayModel.__subclasses__()}
    # CompositeDelay holds only models, each refused at its own construction.
    assert models - covered == {"CompositeDelay"}
