"""Tests for delay processes, including property-based determinism."""

import copy
import dataclasses
import json
import math
import pickle
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.netsim.delaymodels import (
    BLOCK_STEPS,
    AsymmetryEvent,
    CompositeDelay,
    ConstantDelay,
    DiurnalVariation,
    GaussianJitterDelay,
    GaussianJitterRows,
    InstabilityEvent,
    RouteChangeEvent,
    SpikeProcess,
    deterministic_normal,
    deterministic_uniform,
    hash_seeds,
    normal_at,
    normal_grid,
    overlay,
    plain_gaussian_jitter,
    uniform_at,
)
from repro.netsim.links import ConstantLoss, OverrideLoss


class TestDeterministicNoise:
    @given(
        seed=st.integers(min_value=0, max_value=2**62),
        t=st.floats(min_value=0.0, max_value=1e7, allow_nan=False),
    )
    @settings(max_examples=100)
    def test_noise_is_pure_function_of_seed_and_time(self, seed, t):
        times = np.asarray([t])
        a = deterministic_uniform(seed, times)
        b = deterministic_uniform(seed, times)
        assert a[0] == b[0]
        assert 0.0 < a[0] < 1.0

    def test_different_seeds_differ(self):
        times = np.arange(0, 10, 0.01)
        a = deterministic_uniform(1, times)
        b = deterministic_uniform(2, times)
        assert not np.allclose(a, b)

    def test_vectorized_matches_scalar(self):
        times = np.arange(0, 1, 0.01)
        vec = deterministic_uniform(5, times)
        assert vec.tolist() == [uniform_at(5, float(t)) for t in times]

    def test_uniform_distribution_roughly_flat(self):
        u = deterministic_uniform(9, np.arange(0, 100, 0.001))
        assert abs(float(np.mean(u)) - 0.5) < 0.01
        assert abs(float(np.std(u)) - (1 / 12) ** 0.5) < 0.01

    def test_normal_moments(self):
        z = deterministic_normal(11, np.arange(0, 100, 0.001))
        assert abs(float(np.mean(z))) < 0.02
        assert abs(float(np.std(z)) - 1.0) < 0.02


class TestConstantDelay:
    def test_constant_everywhere(self):
        model = ConstantDelay(0.030)
        assert model.delay_at(0.0) == 0.030
        assert model.delay_at(1e6) == 0.030
        assert model.floor == 0.030

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            ConstantDelay(-1.0)


class TestGaussianJitterDelay:
    def test_mean_converges_to_base(self):
        model = GaussianJitterDelay(0.028, 0.0003, seed=3)
        delays = model.delays(np.arange(0, 60, 0.01))
        assert float(np.mean(delays)) == pytest.approx(0.028, abs=1e-4)

    def test_std_converges_to_sigma(self):
        model = GaussianJitterDelay(0.028, 0.0003, seed=3)
        delays = model.delays(np.arange(0, 60, 0.01))
        assert float(np.std(delays)) == pytest.approx(0.0003, rel=0.1)

    def test_never_below_floor(self):
        model = GaussianJitterDelay(0.010, 0.005, seed=4)  # huge jitter
        delays = model.delays(np.arange(0, 100, 0.01))
        assert np.all(delays >= model.floor)

    def test_zero_sigma_is_constant(self):
        model = GaussianJitterDelay(0.020, 0.0, seed=5)
        delays = model.delays(np.arange(0, 1, 0.01))
        assert np.all(delays == 0.020)

    @given(seed=st.integers(min_value=0, max_value=1000))
    @settings(max_examples=25)
    def test_deterministic_across_calls(self, seed):
        model = GaussianJitterDelay(0.030, 0.001, seed=seed)
        times = np.arange(0, 1, 0.05)
        np.testing.assert_array_equal(model.delays(times), model.delays(times))


class TestDiurnalVariation:
    def test_nonnegative_and_bounded(self):
        model = DiurnalVariation(amplitude=0.002)
        delays = model.delays(np.arange(0, 86400, 60.0))
        assert np.all(delays >= 0.0)
        assert np.all(delays <= 0.002 + 1e-12)

    def test_period_repeats(self):
        model = DiurnalVariation(amplitude=0.002, period=3600.0)
        assert model.delay_at(100.0) == pytest.approx(model.delay_at(3700.0))

    def test_mean_is_half_amplitude(self):
        model = DiurnalVariation(amplitude=0.004, period=100.0)
        delays = model.delays(np.arange(0, 100, 0.01))
        assert float(np.mean(delays)) == pytest.approx(0.002, abs=1e-5)


class TestSpikeProcess:
    def test_spike_rate_approximately_honored(self):
        model = SpikeProcess(
            rate_per_second=50.0, min_magnitude=0.01, max_magnitude=0.05, seed=6
        )
        times = np.arange(0, 100, 0.0001)
        delays = model.delays(times)
        spike_fraction = float(np.mean(delays > 0))
        assert spike_fraction == pytest.approx(50.0 * 1e-4, rel=0.2)

    def test_magnitudes_in_range(self):
        model = SpikeProcess(
            rate_per_second=1000.0, min_magnitude=0.01, max_magnitude=0.05, seed=7
        )
        delays = model.delays(np.arange(0, 10, 0.0001))
        spikes = delays[delays > 0]
        assert spikes.size > 0
        assert np.all(spikes >= 0.01)
        assert np.all(spikes <= 0.05)

    def test_invalid_magnitudes_rejected(self):
        with pytest.raises(ValueError):
            SpikeProcess(1.0, min_magnitude=0.05, max_magnitude=0.01)


class TestRouteChangeEvent:
    def make(self):
        return RouteChangeEvent(
            start=100.0, duration=600.0, shift=0.005, transition=30.0
        )

    def test_zero_outside_window(self):
        event = self.make()
        times = np.asarray([0.0, 99.9, 700.1, 1e6])
        np.testing.assert_array_equal(event.extra_delays(times), 0.0)

    def test_plateau_is_exact_shift(self):
        event = self.make()
        times = np.arange(140.0, 690.0, 1.0)
        np.testing.assert_allclose(event.extra_delays(times), 0.005)

    def test_transition_is_erratic_but_bounded(self):
        event = self.make()
        times = np.arange(100.0, 130.0, 0.01)
        extra = event.extra_delays(times)
        assert np.all(extra >= 0.0)
        assert np.all(extra <= event.churn_max)
        assert float(np.std(extra)) > 0.0

    def test_transition_longer_than_duration_rejected(self):
        with pytest.raises(ValueError):
            RouteChangeEvent(start=0.0, duration=10.0, transition=20.0)


class TestInstabilityEvent:
    def make(self):
        return InstabilityEvent(
            start=1000.0,
            duration=300.0,
            spike_probability=0.05,
            spike_min=0.010,
            spike_max=0.050,
            minor_max=0.002,
            seed=8,
        )

    def test_zero_outside_window(self):
        event = self.make()
        np.testing.assert_array_equal(
            event.extra_delays(np.asarray([999.0, 1300.1])), 0.0
        )

    def test_spikes_reach_near_max(self):
        event = self.make()
        extra = event.extra_delays(np.arange(1000.0, 1300.0, 0.001))
        assert float(np.max(extra)) > 0.045

    def test_spike_fraction_near_probability(self):
        event = self.make()
        extra = event.extra_delays(np.arange(1000.0, 1300.0, 0.0001))
        fraction = float(np.mean(extra >= 0.010))
        assert fraction == pytest.approx(0.05, rel=0.15)

    def test_non_spike_samples_have_minor_bump(self):
        event = self.make()
        extra = event.extra_delays(np.arange(1000.0, 1300.0, 0.001))
        minor = extra[(extra > 0) & (extra < 0.010)]
        assert minor.size > 0
        assert np.all(minor <= 0.002)


class TestAsymmetryEvent:
    def test_constant_shift_inside_window_only(self):
        event = AsymmetryEvent(start=10.0, duration=5.0, shift=0.003)
        times = np.asarray([9.9, 10.0, 12.5, 14.99, 15.0])
        np.testing.assert_allclose(
            event.extra_delays(times), [0.0, 0.003, 0.003, 0.003, 0.0]
        )


class TestCompositeDelay:
    def test_sums_base_components_events(self):
        model = CompositeDelay(
            base=ConstantDelay(0.028),
            components=(ConstantDelay(0.001),),
            events=(AsymmetryEvent(start=0.0, duration=100.0, shift=0.002),),
        )
        assert model.delay_at(50.0) == pytest.approx(0.031)
        assert model.delay_at(200.0) == pytest.approx(0.029)

    def test_floor_comes_from_base(self):
        model = CompositeDelay(base=ConstantDelay(0.028))
        assert model.floor == 0.028

    def test_with_event_is_non_destructive(self):
        model = CompositeDelay(base=ConstantDelay(0.028))
        extended = model.with_event(
            AsymmetryEvent(start=0.0, duration=1.0, shift=0.01)
        )
        assert len(model.events) == 0
        assert len(extended.events) == 1


# -- scalar / vector contract ---------------------------------------------------
#
# ``delays(times)`` defines each process; ``delay_at(t)`` (and the
# ``uniform_at`` / ``normal_at`` kernel under it) is the packet path's
# numpy-free evaluation of the same function.  Replays are byte-compared,
# so the two must agree with ``==`` on the float, never ``approx``.

SEEDS = st.integers(min_value=-(2**40), max_value=2**70)


@st.composite
def grid_times(draw):
    """A 1e-4 noise-grid line, or the float just below / just above it."""
    line = draw(st.integers(min_value=-(10**7), max_value=10**8)) * 1e-4
    return draw(
        st.sampled_from(
            [line, math.nextafter(line, -math.inf), math.nextafter(line, math.inf)]
        )
    )


#: Event windows below open at -50 s and close by +250 s, so roughly half
#: of the first strategy's draws land inside them.
TIMES = st.one_of(
    st.floats(min_value=-300.0, max_value=500.0),
    st.floats(min_value=-1e6, max_value=1e7),
    grid_times(),
    st.sampled_from([-50.0, -40.0, 0.0, 10.0, 250.0]),
)


def surrounded(t):
    """``t`` at index 128 of a 257-sample array of nearby times."""
    offsets = (np.arange(257) - 128) * 3.7e-5
    times = t + offsets
    times[128] = t
    return times


def assert_scalar_is_vector(scalar_fn, vector_fn, t):
    value = scalar_fn(t)
    assert type(value) is float
    assert value == vector_fn(np.array([t]))[0]
    assert value == vector_fn(surrounded(t))[128]


def shipped_models(seed):
    return [
        ConstantDelay(0.028),
        GaussianJitterDelay(0.028, 0.0003, seed=seed),
        GaussianJitterDelay(0.010, 0.005, seed=seed),  # floor clip fires
        GaussianJitterDelay(0.020, 0.0, seed=seed),
        DiurnalVariation(amplitude=0.002, period=3600.0, phase=0.7 * (seed % 11)),
        DiurnalVariation(amplitude=0.004),
        SpikeProcess(3000.0, 0.001, 0.006, seed=seed),  # gate open ~30 %
        SpikeProcess(0.02, 0.001, 0.006, seed=seed),
    ]


def shipped_events(seed):
    return [
        RouteChangeEvent(start=-50.0, duration=300.0, transition=60.0, seed=seed),
        InstabilityEvent(start=-50.0, duration=300.0, spike_probability=0.3, seed=seed),
        AsymmetryEvent(start=-50.0, duration=300.0, shift=0.003),
    ]


def unmix(mixed):
    """The word the SplitMix64 finalizer maps to ``mixed`` (it is a
    bijection on 64-bit words: each xor-shift and odd multiply inverts)."""
    mask = 2**64 - 1

    def unshift(x, s):
        y = x
        for _ in range(64 // s + 1):
            y = x ^ (y >> s)
        return y

    x = unshift(mixed, 31)
    x = (x * pow(0x94D049BB133111EB, -1, 2**64)) & mask
    x = unshift(x, 27)
    x = (x * pow(0xBF58476D1CE4E5B9, -1, 2**64)) & mask
    x = unshift(x, 30)
    return (x - 0x9E3779B97F4A7C15) & mask


class TestScalarVectorIdentity:
    @given(seed=SEEDS, t=TIMES)
    @settings(max_examples=300, deadline=None)
    def test_kernel(self, seed, t):
        assert_scalar_is_vector(
            lambda x: uniform_at(seed, x),
            lambda xs: deterministic_uniform(seed, xs),
            t,
        )
        assert_scalar_is_vector(
            lambda x: normal_at(seed, x),
            lambda xs: deterministic_normal(seed, xs),
            t,
        )

    @given(seed=SEEDS, t=TIMES)
    @settings(max_examples=200, deadline=None)
    def test_every_shipped_model(self, seed, t):
        for model in shipped_models(seed):
            assert_scalar_is_vector(model.delay_at, model.delays, t)

    @given(seed=SEEDS, t=TIMES)
    @settings(max_examples=200, deadline=None)
    def test_every_shipped_event(self, seed, t):
        for event in shipped_events(seed):
            assert_scalar_is_vector(event.extra_at, event.extra_delays, t)

    @given(seed=SEEDS, t=TIMES)
    @settings(max_examples=200, deadline=None)
    def test_composites(self, seed, t):
        models = shipped_models(seed)
        events = shipped_events(seed + 100)
        full = CompositeDelay(
            base=models[1], components=tuple(models[4:]), events=tuple(events)
        )
        injected = overlay(overlay(models[2], events[2]), events[0])
        nested = CompositeDelay(base=full, components=(injected,))
        for model in (full, injected, nested):
            assert_scalar_is_vector(model.delay_at, model.delays, t)

    @given(
        seeds=st.lists(
            st.one_of(SEEDS, st.sampled_from([0, 2**63, 2**64 - 1, 2**64, -1])),
            min_size=1,
            max_size=40,
        ),
        t=TIMES,
    )
    @settings(max_examples=300, deadline=None)
    def test_draw_across_seeds(self, seeds, t):
        # The array kernel's draw: many streams at one time.  Negative
        # times, seeds past 2^63 and grid lines are all in the strategies.
        draws = normal_grid(hash_seeds(seeds), np.array([t]))[0]
        assert draws.tolist() == [normal_at(seed, t) for seed in seeds]

    @given(
        seeds=st.lists(
            st.one_of(SEEDS, st.sampled_from([0, 2**63, 2**64 - 1, 2**64, -1])),
            min_size=1,
            max_size=12,
        ),
        times=st.lists(
            st.one_of(TIMES, grid_times().map(lambda t: -abs(t))),
            min_size=1,
            max_size=12,
        ),
    )
    @settings(max_examples=300, deadline=None)
    def test_draw_across_seeds_and_times(self, seeds, times):
        # The fluid rows' arrival-noise block: one row per time, one
        # column per stream — negative times and grid lines +-1 ulp
        # included, since a block's predicted midpoints sit on the grid.
        draws = normal_grid(hash_seeds(seeds), np.array(times))
        assert draws.shape == (len(times), len(seeds))
        expected = [[normal_at(seed, t) for seed in seeds] for t in times]
        assert draws.tolist() == expected

    def test_draw_across_seeds_and_times_on_grid_edges(self):
        lines = [k * 1e-4 for k in (-30_000, -1, 0, 1, 15, 1_500, 10_000_001)]
        times = [
            near
            for line in lines
            for near in (
                math.nextafter(line, -math.inf),
                line,
                math.nextafter(line, math.inf),
            )
        ]
        seeds = [0, 7, 2**63, -1]
        draws = normal_grid(hash_seeds(seeds), np.array(times))
        assert draws.tolist() == [[normal_at(seed, t) for seed in seeds] for t in times]
        # -3.0 and the float below it land on different grid indices.
        assert draws[1].tolist() != draws[0].tolist()

    @pytest.mark.parametrize(
        "top",
        # The 53 bits a draw keeps: zero, either side of 1e-12, the middle,
        # either side of 1 - 1e-12, all ones.
        [0, 9006, 9008, 2**52, 2**53 - 9008, 2**53 - 9006, 2**53 - 1],
    )
    def test_clip_at_both_ends(self, top):
        # A seed whose draw at t mixes to the given word: the clip to
        # [1e-12, 1 - 1e-12] is one chance in 5e11 per draw otherwise.
        t = 0.5
        seed = unmix(unmix(top << 11 | 0x5A5) ^ math.floor(t / 1e-4))
        u = min(max(top / 2**53, 1e-12), 1.0 - 1e-12)
        assert uniform_at(seed, t) == u
        assert deterministic_uniform(seed, np.array([t]))[0] == u
        model = GaussianJitterDelay(0.028, 0.0003, seed=seed)
        assert model.delay_at(t) == model.delays(np.array([t]))[0]

    @given(seed=SEEDS, t=TIMES)
    @settings(max_examples=200, deadline=None)
    def test_jitter_rows(self, seed, t):
        models = [
            GaussianJitterDelay(0.028, 0.0003, seed=seed),
            GaussianJitterDelay(0.010, 0.005, seed=seed + 1),  # floor clip fires
            GaussianJitterDelay(0.020, 0.0, seed=seed + 2),
        ]
        rows = GaussianJitterRows(models, 0.1)
        assert rows.delays_at(t).tolist() == [m.delay_at(t) for m in models]

    def test_cached_parameters_leave_models_frozen_hashable_equal(self):
        a = GaussianJitterDelay(0.028, 0.0003, seed=3)
        b = GaussianJitterDelay(0.028, 0.0003, seed=3)
        assert a == b and hash(a) == hash(b)
        assert a.floor == 0.028 * 0.9
        assert repr(a) == "GaussianJitterDelay(base=0.028, sigma=0.0003, seed=3)"
        # The last draw a model keeps is no part of its value either.
        a.delay_at(1.25)
        assert a == b and hash(a) == hash(b) and {a, b} == {a}
        assert repr(a) == repr(b)
        with pytest.raises(AttributeError):
            a.sigma = 0.1
        spike = SpikeProcess(50.0, 0.01, 0.05, seed=6)
        assert spike == SpikeProcess(50.0, 0.01, 0.05, seed=6)
        assert hash(spike) == hash(SpikeProcess(50.0, 0.01, 0.05, seed=6))
        assert "_probability" not in repr(spike)


def fresh_draw(model, t):
    """``model``'s delay at ``t`` from a new model that has drawn nothing."""
    return GaussianJitterDelay(model.base, model.sigma, model.seed).delays(
        np.array([t])
    )[0]


@st.composite
def draw_sequences(draw):
    """Times for a run of scalar draws: fresh times, exact repeats, other
    times in the last time's noise quantum, and returns to earlier times."""
    times = [draw(TIMES)]
    for _ in range(draw(st.integers(0, 30))):
        last = times[-1]
        kind = draw(st.sampled_from(["time", "repeat", "quantum", "earlier"]))
        if kind == "time":
            times.append(draw(TIMES))
        elif kind == "repeat":
            times.append(last)
        elif kind == "quantum":
            grid = math.floor(last / 1e-4)
            times.append((grid + draw(st.floats(0.0, 0.999))) * 1e-4)
        else:
            times.append(draw(st.sampled_from(times)))
    return times


class TestDrawCache:
    """A jitter model answers a repeat of its last noise quantum from the
    draw it kept; no sequence of times can tell that apart from drawing
    afresh every time."""

    @given(seed=SEEDS, times=draw_sequences(), picks=st.lists(st.integers(0, 2)))
    @settings(max_examples=300, deadline=None)
    def test_every_draw_is_a_fresh_models_draw(self, seed, times, picks):
        # Three models on one seed: same noise, different delays.
        models = [
            GaussianJitterDelay(0.028, 0.0003, seed=seed),
            GaussianJitterDelay(0.010, 0.005, seed=seed),  # floor clip fires
            GaussianJitterDelay(0.020, 0.0, seed=seed),
        ]
        for k, t in enumerate(times):
            model = models[picks[k % len(picks)] if picks else 0]
            assert model.delay_at(t) == fresh_draw(model, t)

    @given(seed=SEEDS, times=draw_sequences(), later=draw_sequences())
    @settings(max_examples=150, deadline=None)
    def test_copies_of_a_model_that_has_drawn_draw_alike(self, seed, times, later):
        model = GaussianJitterDelay(0.028, 0.0003, seed=seed)
        for t in times:
            model.delay_at(t)
        clones = [
            copy.copy(model),
            copy.deepcopy(model),
            pickle.loads(pickle.dumps(model)),
            dataclasses.replace(model),
        ]
        for t in times[-1:] + later:
            expected = fresh_draw(model, t)
            assert model.delay_at(t) == expected
            for clone in clones:
                assert clone == model
                assert clone.delay_at(t) == expected
        # A replaced parameter must not be answered from the old draw.
        wider = dataclasses.replace(model, sigma=0.002)
        t = later[-1]
        assert wider.delay_at(t) == fresh_draw(wider, t)
        assert wider.delay_at(t) != model.delay_at(t)


def jitter_models(seed, width):
    """``width`` plain jitter models: calibrated, floor-clipping, flat."""
    shapes = [(0.028, 0.0003), (0.010, 0.005), (0.020, 0.0)]
    return [
        GaussianJitterDelay(*shapes[i % 3], seed=seed + i) for i in range(width)
    ]


class TestJitterBlocks:
    """``GaussianJitterRows`` draws a block of ``BLOCK_STEPS`` predicted
    step instants at a time; whatever the instants it is asked for, each
    answer is every model's own ``delay_at`` bit for bit, and a block is
    drawn only when the asked instant is not the next predicted one."""

    _OPS = st.lists(
        st.one_of(
            # Consecutive step instants, as the stepping loop computes them.
            st.tuples(st.just("step"), st.integers(1, 600)),
            # An instant off the grid (or anywhere), then stepping resumes
            # from there: a stop and a start one step after a late instant.
            st.tuples(st.just("jump"), TIMES),
            st.tuples(st.just("pause"), st.floats(1e-9, 50.0)),
            # A re-plan: new rows (another width and streams) at this instant.
            st.tuples(st.just("replan"), st.integers(1, 5)),
        ),
        max_size=10,
    )

    @given(seed=SEEDS, t=TIMES, step=st.sampled_from([0.1, 0.01, 0.25, 1e-3]), ops=_OPS)
    @settings(max_examples=150, deadline=None)
    def test_block_rows_equal_each_models_delay_at(self, seed, t, step, ops):
        models = jitter_models(seed, 3)
        rows = GaussianJitterRows(models, step)
        predicted = None  # the instant the rows' block serves next
        served = 0  # rows served from the current block
        draws = 0

        def ask(at):
            nonlocal predicted, served, draws
            if at == predicted and served < BLOCK_STEPS:
                served += 1
            else:
                draws, served = draws + 1, 1
            assert rows.delays_at(at).tolist() == [m.delay_at(at) for m in models]
            assert rows.blocks.draws == draws
            predicted = at + step

        ask(t)
        for op, arg in ops:
            if op == "step":
                for _ in range(arg):
                    t = t + step
                    ask(t)
            elif op == "jump":
                t = arg
                ask(t)
            elif op == "pause":
                t = t + arg
                ask(t)
            else:
                models = jitter_models(seed + 17 * arg, arg)
                rows = GaussianJitterRows(models, step)
                predicted, draws = None, 0
                ask(t)

    def test_a_long_run_on_the_grid_draws_one_block_per_block_steps(self):
        models = jitter_models(3, 4)
        rows = GaussianJitterRows(models, 0.1)
        t = 0.0
        for _ in range(3 * BLOCK_STEPS + 1):
            t = t + 0.1
            assert rows.delays_at(t).tolist() == [m.delay_at(t) for m in models]
        assert rows.blocks.draws == 4


class TestPlainGaussianJitter:
    """What the array kernel may draw in one call — and what it may not."""

    def test_bare_model_and_empty_composite_are_plain(self):
        jitter = GaussianJitterDelay(0.028, 0.0003, seed=3)
        assert plain_gaussian_jitter(jitter) is jitter
        assert plain_gaussian_jitter(CompositeDelay(base=jitter)) is jitter
        assert plain_gaussian_jitter(overlay(jitter)) is jitter

    def test_anything_layered_on_top_is_not(self):
        jitter = GaussianJitterDelay(0.028, 0.0003, seed=3)
        spike = AsymmetryEvent(start=1.0, duration=1.0, shift=0.01)
        swell = DiurnalVariation(amplitude=0.002)
        for model in (
            ConstantDelay(0.028),
            overlay(jitter, spike),
            CompositeDelay(base=jitter, components=(swell,)),
            CompositeDelay(base=CompositeDelay(base=jitter)),
            CompositeDelay(base=ConstantDelay(0.028)),
        ):
            assert plain_gaussian_jitter(model) is None

    def test_subclass_is_not_assumed_to_draw_alike(self):
        class Skewed(GaussianJitterDelay):
            def delay_at(self, t):
                return 2 * super().delay_at(t)

        assert plain_gaussian_jitter(Skewed(0.028, 0.0003)) is None


class TestLossDrawsMatchParent:
    """``LossModel.drops`` decisions, frozen before the scalar kernel."""

    TABLE = json.loads(
        (Path(__file__).parent / "golden" / "loss_drops.json").read_text(
            encoding="utf-8"
        )
    )

    def test_thousand_rows_decide_as_the_parent_did(self):
        base = ConstantLoss(0.3)
        override = OverrideLoss.burst(base, 10.0, 20.0, rate=0.5, seed=9)
        rows = self.TABLE["rows"]
        assert len(rows) == 1000
        for seed, t, nonce, base_drops, override_drops in rows:
            assert base.drops(seed, t, nonce) is base_drops
            assert override.drops(seed, t, nonce) is override_drops
