"""Tests for the convergence snapshot cache."""

import copy
import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from repro.bgp.attributes import Community, RouteAttributes
from repro.bgp.network import BgpNetwork
from repro.bgp.policy import Relationship
from repro.bgp.router import BgpRouter
from repro.bgp.snapshot import (
    SnapshotCache,
    _attr_token,
    capture_snapshot,
    network_fingerprint,
    restore_snapshot,
)

P = "2001:db8:1::/48"
Q = "2001:db8:2::/48"


def diamond() -> BgpNetwork:
    net = BgpNetwork()
    net.add_router(BgpRouter("origin", 65001))
    net.add_router(BgpRouter("left", 65002))
    net.add_router(BgpRouter("right", 65003))
    net.add_router(BgpRouter("sink", 65004))
    net.add_provider("origin", "left")
    net.add_provider("origin", "right")
    net.add_provider("sink", "left")
    net.add_provider("sink", "right")
    return net


class TestFingerprint:
    def test_deterministic_across_identical_builds(self):
        assert network_fingerprint(diamond()) == network_fingerprint(diamond())

    def test_changes_with_origination(self):
        net = diamond()
        before = network_fingerprint(net)
        net.router("origin").originate(P)
        assert network_fingerprint(net) != before

    def test_changes_with_session_set(self):
        net = diamond()
        before = network_fingerprint(net)
        net.disconnect("origin", "left")
        assert network_fingerprint(net) != before

    def test_insensitive_to_construction_order(self):
        a = diamond()
        b = BgpNetwork()
        b.add_router(BgpRouter("sink", 65004))
        b.add_router(BgpRouter("right", 65003))
        b.add_router(BgpRouter("left", 65002))
        b.add_router(BgpRouter("origin", 65001))
        b.add_provider("sink", "right")
        b.add_provider("sink", "left")
        b.add_provider("origin", "right")
        b.add_provider("origin", "left")
        assert network_fingerprint(a) == network_fingerprint(b)

    def test_custom_policies_are_uncacheable(self):
        net = diamond()
        net.router("left").import_policies.append(lambda name, prefix, attrs: True)
        assert network_fingerprint(net) is None


def fingerprint_from_scratch(network: BgpNetwork):
    """``network_fingerprint`` as the parent commit computed it: every
    line rebuilt on every call, nothing cached."""
    digest = hashlib.sha256()
    for name in sorted(network.routers):
        router = network.routers[name]
        if router.import_policies or router.export_policies:
            return None
        digest.update(
            f"R|{name}|{router.asn}|{int(router.allowas_in)}"
            f"|{int(router.strip_private_on_export)}\n".encode()
        )
        for prefix in sorted(router.originated, key=str):
            token = _attr_token(router.originated[prefix])
            digest.update(f"O|{name}|{prefix}|{token}\n".encode())
    for a, b in sorted(network._session_meta):
        rel, a_pref, b_pref = network._session_meta[(a, b)]
        digest.update(f"S|{a}|{b}|{rel.name}|{a_pref}|{b_pref}\n".encode())
    return digest.hexdigest()


_ROUTERS = ("origin", "left", "right", "sink")
_PREFIXES = (P, Q, "2001:db8:10::/48")
_OPERATIONS = st.one_of(
    st.tuples(
        st.just("originate"),
        st.sampled_from(_ROUTERS),
        st.sampled_from(_PREFIXES),
        st.integers(0, 2),
    ),
    st.tuples(
        st.just("withdraw"), st.sampled_from(_ROUTERS), st.sampled_from(_PREFIXES)
    ),
    st.tuples(st.just("toggle_session"), st.sampled_from(("left", "right"))),
    st.tuples(st.just("reset_session"), st.sampled_from(("left", "right"))),
    st.tuples(st.just("capture")),
    st.tuples(st.just("restore"), st.integers(0, 7)),
)


class TestFingerprintCache:
    """The cached fingerprint lines are invisible: whatever mutated the
    network, the digest is the one a from-scratch pass computes."""

    @given(st.lists(_OPERATIONS, max_size=25))
    @settings(max_examples=80, deadline=None)
    def test_cached_equals_from_scratch_after_any_interleaving(self, operations):
        net = diamond()
        snapshots = []
        assert network_fingerprint(net) == fingerprint_from_scratch(net)
        for op in operations:
            if op[0] == "originate":
                attrs = RouteAttributes(
                    communities=frozenset(Community(65000, v) for v in range(op[3]))
                )
                net.router(op[1]).originate(op[2], attrs)
            elif op[0] == "withdraw":
                net.router(op[1]).withdraw_origination(op[2])
            elif op[0] == "toggle_session":
                if op[1] in net.router("sink").neighbors:
                    net.disconnect("sink", op[1])
                else:
                    net.connect("sink", op[1], Relationship.PROVIDER)
            elif op[0] == "reset_session":
                if op[1] in net.router("sink").neighbors:
                    net.reset_session("sink", op[1])
            elif op[0] == "capture":
                net.converge()
                snapshots.append((capture_snapshot(net), set(net.session_pairs())))
            elif snapshots:
                snapshot, sessions = snapshots[op[1] % len(snapshots)]
                if sessions != set(net.session_pairs()):
                    continue  # a snapshot only restores onto its own topology
                restore_snapshot(net, snapshot)
                assert {
                    name: dict(state.originated)
                    for name, state in snapshot.routers.items()
                } == {name: r.originated for name, r in net.routers.items()}
            assert network_fingerprint(net) == fingerprint_from_scratch(net)

    def test_policy_added_after_caching_still_uncacheable(self):
        net = diamond()
        net.router("origin").originate(P)
        assert network_fingerprint(net) is not None  # lines now cached
        net.router("right").export_policies.append(lambda name, prefix, attrs: True)
        assert network_fingerprint(net) is None
        net.router("right").export_policies.clear()
        assert network_fingerprint(net) == fingerprint_from_scratch(net)

    def test_router_knob_changes_are_seen(self):
        net = diamond()
        before = network_fingerprint(net)
        net.router("left").allowas_in = True
        assert network_fingerprint(net) != before
        assert network_fingerprint(net) == fingerprint_from_scratch(net)


class TestCaptureRestore:
    def test_capture_rejects_queued_exports(self):
        """A state with work still queued is not a fixpoint; restoring it
        would discard the queue and declare the half-propagated RIBs
        authoritative."""
        net = diamond()
        net.converge()
        net.router("origin").originate(P)
        net.router("sink").originate(Q)
        with pytest.raises(ValueError, match=r"\['origin', 'sink'\].*pending"):
            capture_snapshot(net)
        net.converge()
        assert capture_snapshot(net).fingerprint == network_fingerprint(net)

    def test_capture_rejects_unsynced_sessions(self):
        net = diamond()
        net.converge()
        net.add_router(BgpRouter("late", 65009))
        net.add_provider("late", "left")
        with pytest.raises(ValueError, match=r"\['late', 'left'\].*pending"):
            capture_snapshot(net)

    def test_cache_path_never_trips_the_fixpoint_check(self):
        cache = SnapshotCache()
        net = diamond()
        for _ in range(2):
            for prefix in (P, Q):
                net.router("origin").originate(prefix)
                cache.converge(net)
            for prefix in (P, Q):
                net.router("origin").withdraw_origination(prefix)
                cache.converge(net)
        assert (cache.hits, cache.misses, cache.bypasses) == (4, 4, 0)

    def test_restore_round_trips_all_tables(self):
        net = diamond()
        net.router("origin").originate(P)
        net.converge()
        snap = capture_snapshot(net)
        expected = {
            name: net.routers[name].loc_rib.snapshot() for name in net.routers
        }
        net.router("origin").withdraw_origination(P)
        net.router("sink").originate(Q)
        net.converge()
        restore_snapshot(net, snap)
        for name in sorted(net.routers):
            assert net.routers[name].loc_rib.snapshot() == expected[name], name
        # The restored state is a true fixpoint: nothing left to do.
        assert net.converge() == 1

    def test_restore_rejects_mismatched_router_set(self):
        net = diamond()
        net.converge()
        snap = capture_snapshot(net)
        other = BgpNetwork()
        other.add_router(BgpRouter("origin", 65001))
        with pytest.raises(ValueError):
            restore_snapshot(other, snap)

    def test_restored_state_is_isolated_from_later_mutation(self):
        """Copy-on-write: converging after a restore must not corrupt
        the cached snapshot."""
        net = diamond()
        net.router("origin").originate(P)
        net.converge()
        snap = capture_snapshot(net)
        restore_snapshot(net, snap)
        net.router("origin").withdraw_origination(P)
        net.converge()
        restore_snapshot(net, snap)
        assert net.best_path("sink", P) is not None


def _tables(net: BgpNetwork) -> dict:
    """A deep copy of every router's four tables, read without marking
    anything shared."""
    return copy.deepcopy(
        {
            name: (
                r.adj_rib_in._table,
                r.loc_rib._table,
                r.adj_rib_out._sent,
                r.originated,
            )
            for name, r in net.routers.items()
        }
    )


_COW_OPERATIONS = st.one_of(
    st.tuples(
        st.just("originate"),
        st.sampled_from(_ROUTERS),
        st.sampled_from(_PREFIXES),
        st.integers(0, 2),
    ),
    st.tuples(
        st.just("withdraw"), st.sampled_from(_ROUTERS), st.sampled_from(_PREFIXES)
    ),
    st.tuples(st.just("toggle_session"), st.sampled_from(("left", "right"))),
    st.tuples(st.just("converge")),
    st.tuples(st.just("capture")),
    st.tuples(st.just("restore"), st.integers(0, 7)),
)


class TestCopyOnWrite:
    """A snapshot shares the tables it captures and a restore adopts
    them; whatever runs afterwards copies before it writes."""

    @given(st.lists(_COW_OPERATIONS, max_size=30))
    @settings(max_examples=120, deadline=None)
    def test_captured_snapshots_are_never_written(self, operations):
        net = diamond()
        #: (snapshot, its sessions, deep copy at capture, tables its
        #: first restore gave or None)
        captured = []
        for op in operations:
            if op[0] == "originate":
                attrs = RouteAttributes(
                    communities=frozenset(Community(65000, v) for v in range(op[3]))
                )
                net.router(op[1]).originate(op[2], attrs)
            elif op[0] == "withdraw":
                net.router(op[1]).withdraw_origination(op[2])
            elif op[0] == "toggle_session":
                if op[1] in net.router("sink").neighbors:
                    net.disconnect("sink", op[1])
                else:
                    net.connect("sink", op[1], Relationship.PROVIDER)
            elif op[0] == "converge":
                net.converge()
            elif op[0] == "capture":
                net.converge()
                snapshot = capture_snapshot(net)
                sessions = set(net.session_pairs())
                captured.append(
                    [snapshot, sessions, copy.deepcopy(snapshot.routers), None]
                )
            elif captured:
                entry = captured[op[1] % len(captured)]
                snapshot, sessions, _, first = entry
                if sessions != set(net.session_pairs()):
                    continue  # a snapshot only restores onto its own topology
                restore_snapshot(net, snapshot)
                for name, state in snapshot.routers.items():
                    router = net.routers[name]
                    assert router.adj_rib_in._table is state.adj_rib_in
                    assert router.loc_rib._table is state.loc_rib
                    assert router.adj_rib_out._sent is state.adj_rib_out
                    assert router.originated is state.originated
                tables = _tables(net)
                if first is None:
                    entry[3] = tables
                else:
                    assert tables == first
            for snapshot, _, at_capture, _ in captured:
                assert snapshot.routers == at_capture

    def test_restore_copies_a_table_on_its_first_write_only(self):
        net = diamond()
        net.router("origin").originate(P)
        net.converge()
        snap = capture_snapshot(net)
        sink = net.router("sink")
        restore_snapshot(net, snap)
        sink.originate(Q)
        held = sink.originated
        assert held is not snap.routers["sink"].originated
        sink.originate("2001:db8:10::/48")
        assert sink.originated is held  # written in place from now on
        assert Q not in snap.routers["sink"].originated


def held_bundles(routers, snapshots):
    """Every bundle the routers' four tables and the snapshots hold."""
    tables = [
        (r.adj_rib_in._table, r.loc_rib._table, r.adj_rib_out._sent, r.originated)
        for r in routers
    ]
    for snapshot in snapshots:
        tables.extend(
            (s.adj_rib_in, s.loc_rib, s.adj_rib_out, s.originated)
            for s in snapshot.routers.values()
        )
    for adj_rib_in, loc_rib, adj_rib_out, originated in tables:
        for row in adj_rib_in.values():
            for entry in row:
                yield entry.attributes
        for entry in loc_rib.values():
            yield entry.attributes
        for sent in adj_rib_out.values():
            for announcement in sent.values():
                yield announcement.attributes
        yield from originated.values()


class _SharingMachine(RuleBasedStateMachine):
    """``TestCopyOnWrite``'s operations as rules, every converge and
    restore followed by the sharing check: two equal bundles or paths
    the network's tables, or a snapshot it captured, hold are one
    object."""

    def __init__(self):
        super().__init__()
        self.net = diamond()
        #: (snapshot, its sessions, deep copy at capture)
        self.captured = []

    @rule(
        router=st.sampled_from(_ROUTERS),
        prefix=st.sampled_from(_PREFIXES),
        size=st.integers(0, 2),
    )
    def originate(self, router, prefix, size):
        attrs = RouteAttributes(
            communities=frozenset(Community(65000, v) for v in range(size))
        )
        self.net.router(router).originate(prefix, attrs)

    @rule(router=st.sampled_from(_ROUTERS), prefix=st.sampled_from(_PREFIXES))
    def withdraw(self, router, prefix):
        self.net.router(router).withdraw_origination(prefix)

    @rule(peer=st.sampled_from(("left", "right")))
    def toggle_session(self, peer):
        if peer in self.net.router("sink").neighbors:
            self.net.disconnect("sink", peer)
        else:
            self.net.connect("sink", peer, Relationship.PROVIDER)

    @rule()
    def converge(self):
        self.net.converge()
        self._check_sharing()

    @rule()
    def capture(self):
        self.converge()
        snapshot = capture_snapshot(self.net)
        sessions = set(self.net.session_pairs())
        self.captured.append((snapshot, sessions, copy.deepcopy(snapshot.routers)))

    @precondition(lambda self: self.captured)
    @rule(index=st.integers(0, 7))
    def restore(self, index):
        snapshot, sessions, _ = self.captured[index % len(self.captured)]
        if sessions == set(self.net.session_pairs()):
            restore_snapshot(self.net, snapshot)
            self._check_sharing()

    @invariant()
    def snapshots_are_never_written(self):
        for snapshot, _, at_capture in self.captured:
            assert snapshot.routers == at_capture

    def _check_sharing(self):
        snapshots = [snapshot for snapshot, _, _ in self.captured]
        bundles, paths = {}, {}
        for attrs in held_bundles(self.net.routers.values(), snapshots):
            assert bundles.setdefault(attrs, attrs) is attrs
            assert paths.setdefault(attrs.as_path, attrs.as_path) is attrs.as_path


TestEqualValuesAreOneObject = _SharingMachine.TestCase
TestEqualValuesAreOneObject.settings = settings(
    max_examples=60, stateful_step_count=30, deadline=None
)


class TestSnapshotCache:
    def test_second_converge_of_same_state_is_a_hit(self):
        cache = SnapshotCache()
        net = diamond()
        net.router("origin").originate(P)
        cache.converge(net)
        assert (cache.hits, cache.misses) == (0, 1)
        # Perturb and come back to the same configuration.
        net.router("origin").withdraw_origination(P)
        cache.converge(net)
        net.router("origin").originate(P)
        waves = cache.converge(net)
        assert waves == 0
        assert cache.hits == 1
        assert net.best_path("sink", P) is not None

    def test_uncacheable_networks_bypass(self):
        cache = SnapshotCache()
        net = diamond()
        net.router("left").import_policies.append(lambda name, prefix, attrs: True)
        net.router("origin").originate(P)
        waves = cache.converge(net)
        assert waves >= 1
        assert cache.bypasses == 1
        assert len(cache) == 0

    def test_capacity_evicts_least_recently_used(self):
        cache = SnapshotCache(capacity=2)
        net = diamond()
        prefixes = (P, Q, "2001:db8:3::/48")
        for prefix in prefixes:
            net.router("origin").originate(prefix)
            cache.converge(net)
            net.router("origin").withdraw_origination(prefix)
            cache.converge(net)
        assert len(cache) == 2

    def test_hit_restores_bitexact_fixpoint(self):
        cache = SnapshotCache()
        reference = diamond()
        reference.router("origin").originate(P)
        reference.converge()
        net = diamond()
        net.router("origin").originate(P)
        cache.converge(net)
        net.router("origin").withdraw_origination(P)
        cache.converge(net)
        net.router("origin").originate(P)
        cache.converge(net)  # hit: restore
        for name in sorted(net.routers):
            assert (
                net.routers[name].loc_rib.snapshot()
                == reference.routers[name].loc_rib.snapshot()
            ), name

    def test_clear_drops_entries_and_stats_survive(self):
        cache = SnapshotCache()
        net = diamond()
        cache.converge(net)
        cache.clear()
        assert len(cache) == 0
        assert cache.misses == 1
