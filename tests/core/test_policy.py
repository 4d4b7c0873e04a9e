"""Tests for forwarding policies (path selectors)."""

import ipaddress

import pytest

from repro.core.policy import (
    ApplicationSelector,
    GuardedSelector,
    HysteresisSelector,
    JitterAwareSelector,
    LossAwareSelector,
    LowestDelaySelector,
    QuarantineSet,
    StaticSelector,
)
from repro.core.tunnels import TangoTunnel
from repro.dataplane.seqnum import SequenceTracker
from repro.netsim.packet import Ipv6Header, Packet
from repro.telemetry.loss import LossMonitor
from repro.telemetry.store import MeasurementStore


def tunnel(path_id):
    return TangoTunnel(
        path_id=path_id,
        label=f"p{path_id}",
        local_endpoint=ipaddress.IPv6Address(f"2001:db8:a{path_id}::1"),
        remote_endpoint=ipaddress.IPv6Address(f"2001:db8:b{path_id}::1"),
        remote_prefix=ipaddress.IPv6Network(f"2001:db8:b{path_id}::/48"),
    )


TUNNELS = [tunnel(i) for i in range(3)]


def packet(flow=0):
    return Packet(
        headers=[
            Ipv6Header(
                src=ipaddress.IPv6Address("2001:db8:10::1"),
                dst=ipaddress.IPv6Address("2001:db8:20::1"),
            )
        ],
        flow_label=flow,
    )


NAN, INF = float("nan"), float("inf")


def loss_aware(**kwargs):
    return LossAwareSelector(MeasurementStore(), LossMonitor(SequenceTracker()), **kwargs)


#: One row per numeric field: the selector it belongs to and the field.
NUMERIC_FIELDS = [
    (LowestDelaySelector, "window_s"),
    (HysteresisSelector, "window_s"),
    (HysteresisSelector, "margin_s"),
    (HysteresisSelector, "dwell_s"),
    (JitterAwareSelector, "window_s"),
    (JitterAwareSelector, "jitter_weight"),
    (LossAwareSelector, "window_s"),
    (LossAwareSelector, "loss_penalty_s"),
]


@pytest.mark.parametrize("value", [NAN, INF, -INF])
@pytest.mark.parametrize(
    ("cls", "field"), NUMERIC_FIELDS, ids=[f"{c.__name__}.{f}" for c, f in NUMERIC_FIELDS]
)
def test_non_finite_parameter_refused_naming_the_field(cls, field, value):
    # At the parent NaN passed every ``< 0`` / ``<= 0`` check: a NaN
    # window is always empty, a NaN margin or dwell never switches.
    build = loss_aware if cls is LossAwareSelector else (
        lambda **kwargs: cls(MeasurementStore(), **kwargs)
    )
    with pytest.raises(ValueError, match=f"^{field} must be finite"):
        build(**{field: value})


def store_with(means: dict[int, float], now=10.0, n=50, spread=0.0, seed=0):
    """Samples in the last second before `now` with given means."""
    import numpy as np

    store = MeasurementStore()
    times = now - 1.0 + np.arange(n) / n
    rng = np.random.default_rng(seed)
    for path_id, mean in means.items():
        noise = rng.normal(0.0, spread, n) if spread else np.zeros(n)
        store.extend(path_id, times, np.full(n, mean) + noise)
    return store


class TestStaticSelector:
    def test_always_same_tunnel(self):
        selector = StaticSelector(1)
        for _ in range(5):
            assert selector.select(TUNNELS, packet(), 0.0).path_id == 1

    def test_out_of_range_loud(self):
        with pytest.raises(IndexError):
            StaticSelector(9).select(TUNNELS, packet(), 0.0)

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError):
            StaticSelector(-1)


class TestLowestDelaySelector:
    def test_picks_lowest_mean(self):
        store = store_with({0: 0.036, 1: 0.033, 2: 0.028})
        selector = LowestDelaySelector(store, window_s=1.0)
        assert selector.select(TUNNELS, packet(), 10.0).path_id == 2

    def test_fallback_when_no_measurements(self):
        selector = LowestDelaySelector(MeasurementStore(), window_s=1.0)
        assert selector.select(TUNNELS, packet(), 10.0).path_id == 0

    def test_partial_measurements_considered(self):
        store = store_with({1: 0.033})
        selector = LowestDelaySelector(store, window_s=1.0)
        assert selector.select(TUNNELS, packet(), 10.0).path_id == 1

    def test_tracks_decision_and_switch_counts(self):
        store = store_with({0: 0.030, 1: 0.040})
        selector = LowestDelaySelector(store, window_s=1.0)
        selector.select(TUNNELS, packet(), 10.0)
        # Path 1 becomes better later.
        store.extend(0, [20.0], [0.050])
        store.extend(1, [20.0], [0.020])
        selector.select(TUNNELS, packet(), 20.5)
        assert selector.decisions == 2
        assert selector.switches == 1

    def test_stale_measurements_ignored(self):
        store = store_with({2: 0.001}, now=10.0)
        selector = LowestDelaySelector(store, window_s=1.0)
        # At t=100 the t~10 samples are far outside the window.
        assert selector.select(TUNNELS, packet(), 100.0).path_id == 0

    def test_invalid_window(self):
        with pytest.raises(ValueError):
            LowestDelaySelector(MeasurementStore(), window_s=0.0)


class TestHysteresisSelector:
    def test_small_improvement_does_not_switch(self):
        store = store_with({0: 0.0300, 1: 0.0295})
        selector = HysteresisSelector(store, margin_s=0.002, dwell_s=0.0)
        first = selector.select(TUNNELS, packet(), 10.0)
        assert first.path_id == 0  # 0.5 ms < 2 ms margin

    def test_large_improvement_switches(self):
        store = store_with({0: 0.036, 2: 0.028})
        selector = HysteresisSelector(store, margin_s=0.002, dwell_s=0.0)
        assert selector.select(TUNNELS, packet(), 10.0).path_id == 2

    def test_dwell_blocks_rapid_flapping(self):
        store = store_with({0: 0.036, 2: 0.028})
        selector = HysteresisSelector(store, margin_s=0.002, dwell_s=5.0)
        assert selector.select(TUNNELS, packet(), 10.0).path_id == 2
        # Path 0 becomes much better right away...
        store.extend(0, [10.5], [0.010])
        store.extend(2, [10.5], [0.030])
        # ...but we switched at t=10, dwell until t=15.
        assert selector.select(TUNNELS, packet(), 11.0).path_id == 2
        # Once the dwell expires (and fresh data is in the window), the
        # better path is taken.
        store.extend(0, [15.0], [0.010])
        store.extend(2, [15.0], [0.030])
        assert selector.select(TUNNELS, packet(), 15.5).path_id == 0

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            HysteresisSelector(MeasurementStore(), margin_s=-1.0)
        with pytest.raises(ValueError):
            HysteresisSelector(MeasurementStore(), dwell_s=-1.0)


class TestJitterAwareSelector:
    def test_prefers_stable_path_at_equal_mean(self):
        """The GTT-vs-Telia choice: same mean, different jitter."""
        store = store_with({0: 0.030}, spread=0.0005, seed=1)
        quiet = store_with({1: 0.030}, spread=0.000005, seed=2)
        for t, v in zip(quiet.series(1).times, quiet.series(1).values):
            store.record(1, t, v)
        selector = JitterAwareSelector(store, jitter_weight=10.0)
        assert selector.select(TUNNELS[:2], packet(), 10.0).path_id == 1

    def test_zero_weight_reduces_to_mean(self):
        store = store_with({0: 0.028, 1: 0.030}, spread=0.0001, seed=3)
        selector = JitterAwareSelector(store, jitter_weight=0.0)
        assert selector.select(TUNNELS[:2], packet(), 10.0).path_id == 0

    def test_fallback_without_data(self):
        selector = JitterAwareSelector(MeasurementStore())
        assert selector.select(TUNNELS, packet(), 0.0).path_id == 0


class TestLossAwareSelector:
    def make(self, means, losses):
        store = store_with(means)
        tracker = SequenceTracker()
        monitor = LossMonitor(tracker)
        for path_id, (received, lost) in losses.items():
            seq = 0
            for _ in range(received):
                tracker.observe(path_id, seq)
                seq += 1
            seq += lost  # skip -> presumed loss
            tracker.observe(path_id, seq)
        monitor.sample(10.0)
        return LossAwareSelector(store, monitor, loss_penalty_s=1.0)

    def test_lossy_fast_path_penalized(self):
        """1% loss at penalty 1.0 ~ 10 ms extra: the 28 ms lossy path
        loses to the clean 33 ms path."""
        selector = self.make(
            means={0: 0.033, 1: 0.028},
            losses={0: (99, 0), 1: (89, 10)},
        )
        assert selector.select(TUNNELS[:2], packet(), 10.0).path_id == 0

    def test_clean_fast_path_wins(self):
        selector = self.make(
            means={0: 0.033, 1: 0.028},
            losses={0: (99, 0), 1: (99, 0)},
        )
        assert selector.select(TUNNELS[:2], packet(), 10.0).path_id == 1


class TestApplicationSelector:
    def test_flow_classes_routed_separately(self):
        selector = ApplicationSelector(
            default=StaticSelector(0), classes={7: StaticSelector(2)}
        )
        assert selector.select(TUNNELS, packet(flow=7), 0.0).path_id == 2
        assert selector.select(TUNNELS, packet(flow=1), 0.0).path_id == 0

    def test_assign_binds_new_class(self):
        selector = ApplicationSelector(default=StaticSelector(0))
        selector.assign(9, StaticSelector(1))
        assert selector.select(TUNNELS, packet(flow=9), 0.0).path_id == 1

    def test_nested_measured_selector(self):
        store = store_with({0: 0.036, 2: 0.028})
        selector = ApplicationSelector(
            default=LowestDelaySelector(store, window_s=1.0),
            classes={5: StaticSelector(0)},
        )
        assert selector.select(TUNNELS, packet(flow=5), 10.0).path_id == 0
        assert selector.select(TUNNELS, packet(flow=1), 10.0).path_id == 2


class TestLastChoice:
    def test_static_selector_reports_its_index(self):
        selector = StaticSelector(1)
        assert selector.last_choice == 1
        selector.select(TUNNELS, packet(), 0.0)
        assert selector.last_choice == 1

    def test_measured_selector_starts_unset(self):
        store = store_with({0: 0.036, 2: 0.028})
        selector = LowestDelaySelector(store, window_s=1.0)
        assert selector.last_choice is None
        selector.select(TUNNELS, packet(), 10.0)
        assert selector.last_choice == 2

    def test_application_selector_mirrors_default(self):
        store = store_with({0: 0.036, 2: 0.028})
        selector = ApplicationSelector(
            default=LowestDelaySelector(store, window_s=1.0),
            classes={5: StaticSelector(0)},
        )
        assert selector.last_choice is None
        # Pinned-class traffic does not disturb the data-plane record.
        selector.select(TUNNELS, packet(flow=5), 10.0)
        assert selector.last_choice is None
        selector.select(TUNNELS, packet(flow=1), 10.0)
        assert selector.last_choice == 2


class TestQuarantineSet:
    MUTATIONS = {
        "add": lambda q: q.add(5),
        "discard": lambda q: q.discard(5),
        "remove": lambda q: q.remove(1),
        "pop": lambda q: q.pop(),
        "clear": lambda q: q.clear(),
        "update": lambda q: q.update([1, 2]),
        "difference_update": lambda q: q.difference_update([2]),
        "intersection_update": lambda q: q.intersection_update([1, 3]),
        "symmetric_difference_update": lambda q: q.symmetric_difference_update([3]),
        "|=": lambda q: q.__ior__({4}),
        "&=": lambda q: q.__iand__({1, 4}),
        "-=": lambda q: q.__isub__({4}),
        "^=": lambda q: q.__ixor__({6}),
    }

    @pytest.mark.parametrize("name", MUTATIONS)
    def test_every_mutator_counts_once(self, name):
        quarantined = QuarantineSet([1, 2, 3])
        assert quarantined.version == 0
        self.MUTATIONS[name](quarantined)
        assert quarantined.version == 1

    def test_reads_and_new_sets_count_nothing(self):
        quarantined = QuarantineSet([1, 2])
        assert 1 in quarantined and len(quarantined) == 2
        assert quarantined | {3} == {1, 2, 3} and quarantined - {1} == {2}
        assert sorted(quarantined) == [1, 2] and quarantined == {1, 2}
        assert quarantined.version == 0

    def test_in_place_operators_keep_the_object(self):
        quarantined = original = QuarantineSet([1])
        quarantined |= {2}
        quarantined -= {1}
        assert quarantined is original and quarantined.version == 2

    def test_guard_tokens_only_a_static_choice_over_a_quarantine_set(self):
        assert GuardedSelector(StaticSelector(1)).choice_token(TUNNELS) is not None
        assert GuardedSelector(StaticSelector(1), {0}).choice_token(TUNNELS) is None
        store = MeasurementStore()
        assert GuardedSelector(LowestDelaySelector(store)).choice_token(TUNNELS) is None


class TestGuardedSelector:
    def test_transparent_with_no_quarantine(self):
        store = store_with({0: 0.036, 1: 0.033, 2: 0.028})
        guard = GuardedSelector(LowestDelaySelector(store, window_s=1.0))
        assert guard.select(TUNNELS, packet(), 10.0).path_id == 2
        assert guard.last_choice == 2
        assert guard.fallbacks == 0

    def test_quarantined_path_excluded(self):
        store = store_with({0: 0.036, 1: 0.033, 2: 0.028})
        guard = GuardedSelector(
            LowestDelaySelector(store, window_s=1.0), quarantined={2}
        )
        assert guard.select(TUNNELS, packet(), 10.0).path_id == 1
        assert guard.fallbacks == 0

    def test_shared_set_mutations_apply_immediately(self):
        store = store_with({0: 0.036, 1: 0.033, 2: 0.028})
        quarantined = set()
        guard = GuardedSelector(
            LowestDelaySelector(store, window_s=1.0), quarantined=quarantined
        )
        assert guard.select(TUNNELS, packet(), 10.0).path_id == 2
        quarantined.add(2)
        assert guard.select(TUNNELS, packet(), 10.0).path_id == 1
        quarantined.discard(2)
        assert guard.select(TUNNELS, packet(), 10.0).path_id == 2

    def test_all_quarantined_degrades_to_bgp_best(self):
        store = store_with({0: 0.036, 1: 0.033, 2: 0.028})
        guard = GuardedSelector(
            LowestDelaySelector(store, window_s=1.0), quarantined={0, 1, 2}
        )
        assert guard.select(TUNNELS, packet(), 10.0).path_id == 0
        assert guard.fallbacks == 1
        assert guard.last_choice == 0

    def test_static_index_pushed_out_of_range_degrades(self):
        # StaticSelector(2) over a filtered two-candidate list raises
        # IndexError; the guard degrades to BGP-best instead of crashing.
        guard = GuardedSelector(StaticSelector(2), quarantined={0})
        assert guard.select(TUNNELS, packet(), 0.0).path_id == 1
