"""Tests for BGP path attributes."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bgp.attributes import (
    AsPath,
    Community,
    LargeCommunity,
    Origin,
    RouteAttributes,
    is_private_asn,
)

asns = st.integers(min_value=1, max_value=4_000_000_000)


class TestAsPath:
    def test_prepend_adds_to_front(self):
        path = AsPath((20473,)).prepend(2914)
        assert path.asns == (2914, 20473)

    def test_prepend_count(self):
        path = AsPath((20473,)).prepend(2914, count=3)
        assert path.asns == (2914, 2914, 2914, 20473)
        assert path.length == 4

    def test_prepend_zero_rejected(self):
        with pytest.raises(ValueError):
            AsPath().prepend(1, count=0)

    def test_contains_for_loop_detection(self):
        path = AsPath((1, 2, 3))
        assert path.contains(2)
        assert not path.contains(4)

    def test_strip_private_removes_rfc6996(self):
        path = AsPath((2914, 64512, 20473, 65534))
        assert path.strip_private().asns == (2914, 20473)

    def test_without_removes_all_occurrences(self):
        path = AsPath((20473, 2914, 20473))
        assert path.without(20473).asns == (2914,)

    def test_empty_path_edges(self):
        path = AsPath()
        assert path.length == 0
        assert str(path) == "<empty>"

    @given(st.lists(asns, max_size=10))
    @settings(max_examples=50)
    def test_prepend_then_strip_roundtrip(self, body):
        """Prepending a private ASN then stripping restores the path."""
        path = AsPath(tuple(a for a in body if not is_private_asn(a)))
        assert path.prepend(64512).strip_private() == path

    @given(st.lists(asns, max_size=10), asns)
    @settings(max_examples=50)
    def test_without_is_idempotent(self, body, target):
        path = AsPath(tuple(body))
        once = path.without(target)
        assert once.without(target) == once
        assert not once.contains(target)


class TestPrivateAsn:
    def test_boundaries(self):
        assert not is_private_asn(64511)
        assert is_private_asn(64512)
        assert is_private_asn(65534)
        assert not is_private_asn(65535)


class TestCommunities:
    def test_community_renders(self):
        assert str(Community(20473, 6000)) == "20473:6000"

    def test_community_range_enforced(self):
        with pytest.raises(ValueError):
            Community(70000, 0)

    def test_large_community_renders(self):
        assert str(LargeCommunity(20473, 6000, 2914)) == "20473:6000:2914"

    def test_large_community_range_enforced(self):
        with pytest.raises(ValueError):
            LargeCommunity(2**32, 0, 0)

    def test_hashable_for_sets(self):
        assert len({Community(1, 2), Community(1, 2), Community(1, 3)}) == 2


class TestRouteAttributes:
    def test_defaults(self):
        attrs = RouteAttributes()
        assert attrs.local_pref == 100
        assert attrs.origin is Origin.IGP
        assert attrs.as_path.length == 0

    def test_with_path_is_non_destructive(self):
        attrs = RouteAttributes()
        updated = attrs.with_path(AsPath((1,)))
        assert attrs.as_path.length == 0
        assert updated.as_path.asns == (1,)

    def test_add_communities_unions(self):
        attrs = RouteAttributes(large_communities=frozenset({LargeCommunity(1, 2, 3)}))
        updated = attrs.add_communities(large=[LargeCommunity(4, 5, 6)])
        assert len(updated.large_communities) == 2
        assert len(attrs.large_communities) == 1

    def test_origin_preference_ordering(self):
        assert Origin.IGP < Origin.EGP < Origin.INCOMPLETE


class TestAsPathHashCaching:
    """AsPath's hash and length are those of its ``asns`` tuple.  They
    were cached at construction once; building paths proved the hotter
    cost, and without the cache they must read exactly as before."""

    @given(st.lists(asns, max_size=12))
    def test_cached_hash_matches_tuple_semantics(self, asn_list):
        path = AsPath(tuple(asn_list))
        clone = AsPath(tuple(asn_list))
        assert hash(path) == hash(clone)
        assert path == clone
        # Dict/set membership round-trips through the cached hash.
        assert path in {clone}

    @given(st.lists(asns, max_size=12))
    def test_cached_length_matches_asns(self, asn_list):
        path = AsPath(tuple(asn_list))
        assert len(path) == len(asn_list)
        assert path.length == len(asn_list)

    @given(st.lists(asns, min_size=1, max_size=10), asns)
    def test_derived_paths_recompute_their_cache(self, asn_list, new_asn):
        path = AsPath(tuple(asn_list))
        prepended = path.prepend(new_asn)
        assert prepended.length == path.length + 1
        assert hash(prepended) == hash(AsPath((new_asn, *asn_list)))
        stripped = prepended.without(new_asn)
        assert hash(stripped) == hash(AsPath(tuple(a for a in asn_list if a != new_asn)))

    def test_unequal_paths_compare_unequal(self):
        assert AsPath((2914, 20473)) != AsPath((20473, 2914))
        assert hash(AsPath()) == hash(AsPath(()))
