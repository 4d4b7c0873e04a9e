"""Tests for message types and prefix normalization."""

import ipaddress

import pytest

from repro.bgp.attributes import AsPath, RouteAttributes
from repro.bgp.messages import Announcement, Withdrawal, as_prefix
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
