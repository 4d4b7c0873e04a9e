"""Tests for the three RIBs."""

import ipaddress

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from repro.bgp.attributes import AsPath, RouteAttributes
from repro.bgp.messages import Announcement
from repro.bgp.policy import Relationship
from repro.bgp.rib import AdjRibIn, AdjRibOut, LocRib, RibEntry

P1 = ipaddress.ip_network("2001:db8:1::/48")
P2 = ipaddress.ip_network("2001:db8:2::/48")


def entry(prefix=P1, neighbor="n1", path=(1,)):
    return RibEntry(
        prefix=prefix,
        attributes=RouteAttributes(as_path=AsPath(tuple(path))),
        neighbor=neighbor,
        relationship=Relationship.PROVIDER,
    )


class TestAdjRibIn:
    def test_upsert_reports_change(self):
        rib = AdjRibIn()
        assert rib.upsert(entry())
        assert not rib.upsert(entry())  # identical
        assert rib.upsert(entry(path=(1, 2)))  # changed attributes

    def test_candidates_across_neighbors(self):
        rib = AdjRibIn()
        rib.upsert(entry(neighbor="a"))
        rib.upsert(entry(neighbor="b", path=(2,)))
        rib.upsert(entry(prefix=P2, neighbor="a"))
        assert len(rib.candidates(P1)) == 2
        assert len(rib.candidates(P2)) == 1

    def test_remove(self):
        rib = AdjRibIn()
        rib.upsert(entry())
        assert rib.remove("n1", P1)
        assert not rib.remove("n1", P1)
        assert rib.candidates(P1) == []

    def test_remove_neighbor_flushes_session(self):
        rib = AdjRibIn()
        rib.upsert(entry(neighbor="a"))
        rib.upsert(entry(prefix=P2, neighbor="a"))
        rib.upsert(entry(neighbor="b"))
        assert rib.remove_neighbor("a") == 2
        assert len(rib) == 1

    def test_prefixes_from(self):
        rib = AdjRibIn()
        rib.upsert(entry(neighbor="a"))
        rib.upsert(entry(prefix=P2, neighbor="b"))
        assert rib.prefixes_from("a") == {P1}
        assert rib.prefixes() == {P1, P2}


class TestLocRib:
    def test_set_best_change_detection(self):
        rib = LocRib()
        assert rib.set_best(P1, entry())
        assert not rib.set_best(P1, entry())
        assert rib.set_best(P1, entry(path=(9,)))

    def test_clear_best(self):
        rib = LocRib()
        rib.set_best(P1, entry())
        assert rib.set_best(P1, None)
        assert not rib.set_best(P1, None)
        assert rib.best(P1) is None

    def test_routes_snapshot(self):
        rib = LocRib()
        rib.set_best(P1, entry())
        snapshot = rib.snapshot()
        rib.set_best(P2, entry(prefix=P2))
        assert P2 not in snapshot


class TestAdjRibOut:
    def test_record_and_diff(self):
        rib = AdjRibOut()
        ann = Announcement(prefix=P1, attributes=RouteAttributes())
        assert rib.last_sent("n", P1) is None
        rib.record("n", ann)
        assert rib.last_sent("n", P1) == ann
        assert rib.prefixes_to("n") == {P1}

    def test_forget(self):
        rib = AdjRibOut()
        rib.record("n", Announcement(prefix=P1, attributes=RouteAttributes()))
        rib.forget("n", P1)
        assert rib.last_sent("n", P1) is None
        rib.forget("n", P1)  # idempotent


# -- the RIB contract, stated once ---------------------------------------------


class TestCandidateOrder:
    def test_neighbor_name_order_whatever_the_insertion_order(self):
        names = ["m", "a", "z", "edge10", "edge2", "b"]
        for order in (names, names[::-1], sorted(names)):
            rib = AdjRibIn()
            for name in order:
                rib.upsert(entry(neighbor=name))
                rib.upsert(entry(prefix=P2, neighbor=name))
            rib.upsert(entry(neighbor="m", path=(7, 8)))  # replace in place
            rib.remove("z", P1)
            got = [e.neighbor for e in rib.candidates(P1)]
            assert got == sorted(set(names) - {"z"})
            assert [e.neighbor for e in rib.candidates(P2)] == sorted(names)


class _IncomparablePrefix(ipaddress.IPv6Network):
    """A prefix that refuses to be ordered or compared with another."""

    def __lt__(self, other):
        raise AssertionError(f"ordered {self} against {other}")

    def __eq__(self, other):
        if other is self:
            return True
        raise AssertionError(f"compared {self} with {other}")

    __hash__ = ipaddress.IPv6Network.__hash__


class TestDecisionTouchesOnePrefix:
    """One neighbor, two prefixes: sorting the whole table (what the flat
    ``(neighbor, prefix)``-keyed RIB did) has to order the two prefixes
    against each other; the prefix index never looks at the other one."""

    def test_candidates_never_compare_other_prefixes(self):
        first = _IncomparablePrefix("2001:db8:dead::/48")
        second = _IncomparablePrefix("2001:db8:beef::/48")
        rib = AdjRibIn()
        rib.upsert(entry(prefix=first, neighbor="n"))
        rib.upsert(entry(prefix=second, neighbor="n"))
        assert [e.prefix for e in rib.candidates(first)] == [first]
        assert [e.prefix for e in rib.candidates(second)] == [second]

    def test_router_decision_never_compares_other_prefixes(self):
        from repro.bgp.router import BgpRouter

        first = _IncomparablePrefix("2001:db8:dead::/48")
        second = _IncomparablePrefix("2001:db8:beef::/48")
        router = BgpRouter("r", 65000)
        router.add_neighbor("n", 65001, Relationship.PROVIDER)
        for prefix in (first, second):
            attrs = RouteAttributes(as_path=AsPath((65001,)))
            assert router.receive_announcement("n", Announcement(prefix, attrs))
        assert router.best_route(first).neighbor == "n"
        assert router.best_route(second).neighbor == "n"
        assert router.decisions_run == 2


# The parent commit's flat-dict RIBs, kept here as the reference model the
# indexed RIBs are driven against.


class FlatAdjRibIn:
    def __init__(self):
        self.routes = {}

    def upsert(self, e):
        if self.routes.get((e.neighbor, e.prefix)) == e:
            return False
        self.routes[(e.neighbor, e.prefix)] = e
        return True

    def remove(self, neighbor, prefix):
        return self.routes.pop((neighbor, prefix), None) is not None

    def remove_neighbor(self, neighbor):
        keys = [k for k in self.routes if k[0] == neighbor]
        for key in keys:
            del self.routes[key]
        return len(keys)

    def candidates(self, prefix):
        return [e for (_, p), e in sorted(self.routes.items()) if p == prefix]

    def prefixes(self):
        return {p for (_, p) in self.routes}

    def prefixes_from(self, neighbor):
        return {p for (n, p) in self.routes if n == neighbor}


class FlatAdjRibOut:
    def __init__(self):
        self.sent = {}

    def record(self, neighbor, announcement):
        self.sent[(neighbor, announcement.prefix)] = announcement

    def forget(self, neighbor, prefix):
        self.sent.pop((neighbor, prefix), None)

    def clear_neighbor(self, neighbor):
        for key in [k for k in self.sent if k[0] == neighbor]:
            del self.sent[key]

    def last_sent(self, neighbor, prefix):
        return self.sent.get((neighbor, prefix))

    def prefixes_to(self, neighbor):
        return {p for (n, p) in self.sent if n == neighbor}


NEIGHBORS = ["a", "b", "edge10", "edge2", "z"]
PREFIXES = [ipaddress.ip_network(f"2001:db8:{i:x}::/48") for i in range(1, 5)]


class RibMachine(RuleBasedStateMachine):
    """Drive the indexed RIBs and the flat reference with the same calls."""

    def __init__(self):
        super().__init__()
        self.rib_in, self.flat_in = AdjRibIn(), FlatAdjRibIn()
        self.rib_out, self.flat_out = AdjRibOut(), FlatAdjRibOut()
        #: (Adj-RIB-In snapshot, Adj-RIB-Out snapshot, the reference
        #: tables at that moment) — restorable at any later step.
        self.forks = []

    @rule(
        neighbor=st.sampled_from(NEIGHBORS),
        prefix=st.sampled_from(PREFIXES),
        path=st.lists(st.integers(1, 3), min_size=1, max_size=2),
    )
    def upsert(self, neighbor, prefix, path):
        e = entry(prefix=prefix, neighbor=neighbor, path=path)
        assert self.rib_in.upsert(e) == self.flat_in.upsert(e)

    @rule(neighbor=st.sampled_from(NEIGHBORS), prefix=st.sampled_from(PREFIXES))
    def remove(self, neighbor, prefix):
        assert self.rib_in.remove(neighbor, prefix) == self.flat_in.remove(
            neighbor, prefix
        )

    @rule(neighbor=st.sampled_from(NEIGHBORS))
    def remove_neighbor(self, neighbor):
        assert self.rib_in.remove_neighbor(
            neighbor
        ) == self.flat_in.remove_neighbor(neighbor)

    @rule(
        neighbor=st.sampled_from(NEIGHBORS),
        prefix=st.sampled_from(PREFIXES),
        path=st.lists(st.integers(1, 3), min_size=1, max_size=2),
    )
    def record(self, neighbor, prefix, path):
        announcement = Announcement(
            prefix, RouteAttributes(as_path=AsPath(tuple(path)))
        )
        self.rib_out.record(neighbor, announcement)
        self.flat_out.record(neighbor, announcement)

    @rule(neighbor=st.sampled_from(NEIGHBORS), prefix=st.sampled_from(PREFIXES))
    def forget(self, neighbor, prefix):
        self.rib_out.forget(neighbor, prefix)
        self.flat_out.forget(neighbor, prefix)

    @rule(neighbor=st.sampled_from(NEIGHBORS))
    def clear_neighbor(self, neighbor):
        self.rib_out.clear_neighbor(neighbor)
        self.flat_out.clear_neighbor(neighbor)

    @rule()
    def snapshot(self):
        self.forks.append(
            (
                self.rib_in.snapshot(),
                self.rib_out.snapshot(),
                dict(self.flat_in.routes),
                dict(self.flat_out.sent),
            )
        )

    @precondition(lambda self: self.forks)
    @rule(data=st.data())
    def restore(self, data):
        # Any fork taken earlier must still hold exactly what it held when
        # it was taken, however the RIBs were mutated (or restored) since.
        state_in, state_out, routes, sent = data.draw(st.sampled_from(self.forks))
        self.rib_in.restore(state_in)
        self.rib_out.restore(state_out)
        self.flat_in.routes = dict(routes)
        self.flat_out.sent = dict(sent)

    @invariant()
    def same_answers_as_the_flat_tables(self):
        assert len(self.rib_in) == len(self.flat_in.routes)
        assert self.rib_in.prefixes() == self.flat_in.prefixes()
        for prefix in PREFIXES:
            assert self.rib_in.candidates(prefix) == self.flat_in.candidates(prefix)
        for neighbor in NEIGHBORS:
            assert self.rib_in.prefixes_from(
                neighbor
            ) == self.flat_in.prefixes_from(neighbor)
            assert self.rib_out.prefixes_to(
                neighbor
            ) == self.flat_out.prefixes_to(neighbor)
            for prefix in PREFIXES:
                assert self.rib_out.last_sent(
                    neighbor, prefix
                ) == self.flat_out.last_sent(neighbor, prefix)


TestRibsMatchFlatReference = RibMachine.TestCase
TestRibsMatchFlatReference.settings = settings(
    max_examples=60, stateful_step_count=40, deadline=None
)
