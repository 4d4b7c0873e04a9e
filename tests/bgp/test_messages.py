"""Tests for message types and prefix normalization."""

import copy
import ipaddress
import pickle
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bgp.attributes import AsPath, RouteAttributes
from repro.bgp.messages import (
    Announcement,
    InternedIPv4Network,
    InternedIPv6Network,
    Withdrawal,
    as_ipv6_prefix,
    as_prefix,
)
from repro.bgp.poisoning import poisoned_attributes


class TestAsPrefix:
    def test_string_normalized(self):
        assert as_prefix("2001:db8::/32") == ipaddress.ip_network("2001:db8::/32")

    def test_network_passthrough(self):
        network = ipaddress.ip_network("10.0.0.0/8")
        assert as_prefix(network) is network

    def test_invalid_string_raises(self):
        with pytest.raises(ValueError):
            as_prefix("not-a-prefix")

    def test_host_bits_refused_like_ip_network(self):
        with pytest.raises(ValueError, match="has host bits set"):
            as_prefix("10.0.0.1/8")

    @pytest.mark.parametrize(
        "value",
        [ipaddress.IPv6Address("2001:db8::1"), 5, None, b"10.0.0.0/8"],
        ids=repr,
    )
    def test_non_prefix_refused_naming_the_value(self, value):
        with pytest.raises(TypeError, match=re.escape(f"got {value!r}") + "$"):
            as_prefix(value)

    def test_ipv6_prefix_refuses_ipv4(self):
        assert as_ipv6_prefix("2001:db8::/48") is as_prefix("2001:db8::/48")
        with pytest.raises(ValueError, match="not an IPv6 prefix"):
            as_ipv6_prefix("10.0.0.0/8")


@st.composite
def prefix_texts(draw, version=None):
    """A random IPv4 or IPv6 prefix, compressed or exploded."""
    if version is None:
        version = draw(st.sampled_from((4, 6)))
    bits = 32 if version == 4 else 128
    length = draw(st.integers(0, bits))
    address = draw(st.integers(0, 2**bits - 1)) >> (bits - length) << (bits - length)
    kind = ipaddress.IPv4Network if version == 4 else ipaddress.IPv6Network
    network = kind((address, length))
    return network.exploded if draw(st.booleans()) else network.compressed


class TestInternedPrefixes:
    """An interned prefix is the plain ``ip_network`` in everything but
    the cost of its hash."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(prefix_texts())
    def test_behaves_like_the_plain_network(self, text):
        interned, plain = as_prefix(text), ipaddress.ip_network(text)
        assert type(interned) in (InternedIPv4Network, InternedIPv6Network)
        assert isinstance(interned, type(plain))
        assert as_prefix(text) is interned
        assert interned == plain and plain == interned
        assert not interned != plain
        assert hash(interned) == hash(plain)
        assert str(interned) == str(plain)
        assert repr(interned) == repr(plain)
        assert format(interned) == format(plain)
        # Mixed key types, both ways.
        assert {plain: 1}[interned] == 1 and {interned: 1}[plain] == 1
        assert interned in {plain} and plain in {interned}
        assert len({interned, plain}) == 1
        # Round trips come back interned, hash included.
        for twin in (
            pickle.loads(pickle.dumps(interned)),
            copy.copy(interned),
            copy.deepcopy(interned),
        ):
            assert twin is interned and hash(twin) == hash(plain)
        unpickled = pickle.loads(pickle.dumps(plain))
        assert type(unpickled) is type(plain) and unpickled == interned
        # Derived networks keep the stdlib hash.
        if plain.prefixlen < plain.max_prefixlen:
            for mine, theirs in zip(interned.subnets(), plain.subnets()):
                assert mine == theirs and hash(mine) == hash(theirs)
        if plain.prefixlen > 0:
            assert interned.supernet() == plain.supernet()
            assert hash(interned.supernet()) == hash(plain.supernet())

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(
        st.sampled_from((4, 6)).flatmap(
            lambda v: st.lists(prefix_texts(v), min_size=2, max_size=8)
        ),
        st.randoms(use_true_random=False),
    )
    def test_mixed_lists_sort_like_plain_ones(self, texts, rng):
        plain = [ipaddress.ip_network(t) for t in texts]
        mixed = [
            as_prefix(t) if rng.random() < 0.5 else p for t, p in zip(texts, plain)
        ]
        assert [str(p) for p in sorted(mixed)] == [str(p) for p in sorted(plain)]
        assert sorted(mixed) == sorted(plain)
        assert max(mixed) == max(plain) and min(mixed) == min(plain)


class TestMessages:
    def test_announcement_renders_path(self):
        ann = Announcement(
            prefix=as_prefix("2001:db8::/48"),
            attributes=RouteAttributes(as_path=AsPath((1, 2))),
        )
        assert "1 2" in str(ann)

    def test_withdrawal_renders(self):
        assert "withdraw" in str(Withdrawal(as_prefix("2001:db8::/48")))

    def test_announcements_compare_by_value(self):
        a = Announcement(as_prefix("2001:db8::/48"), RouteAttributes())
        b = Announcement(as_prefix("2001:db8::/48"), RouteAttributes())
        assert a == b


class TestPoisoning:
    def test_targets_roundtrip(self):
        attrs = poisoned_attributes([174, 3356])
        assert attrs.as_path.asns == (174, 3356)

    def test_empty_targets_rejected(self):
        with pytest.raises(ValueError):
            poisoned_attributes([])

    def test_base_attributes_preserved(self):
        base = RouteAttributes(med=5)
        attrs = poisoned_attributes([1], base)
        assert attrs.med == 5
