"""Tests for Gao–Rexford policy rules."""

import pytest

from repro.bgp.policy import (
    Relationship,
    default_local_pref,
    gao_rexford_allows_export,
)

C, P, R = Relationship.CUSTOMER, Relationship.PEER, Relationship.PROVIDER


class TestRelationship:
    def test_inverse(self):
        assert C.inverse() is R
        assert R.inverse() is C
        assert P.inverse() is P


class TestLocalPref:
    def test_customer_routes_most_preferred(self):
        assert (
            default_local_pref(C)
            > default_local_pref(P)
            > default_local_pref(R)
        )


class TestValleyFree:
    @pytest.mark.parametrize(
        "learned_from,exporting_to,allowed",
        [
            (None, C, True),
            (None, P, True),
            (None, R, True),
            (C, C, True),
            (C, P, True),
            (C, R, True),
            (P, C, True),
            (P, P, False),
            (P, R, False),
            (R, C, True),
            (R, P, False),
            (R, R, False),
        ],
    )
    def test_export_matrix(self, learned_from, exporting_to, allowed):
        assert gao_rexford_allows_export(learned_from, exporting_to) is allowed

    def test_matrix_prevents_valley_paths(self):
        """Provider-learned never reaches another provider — the exact
        limitation that caps an edge network's path visibility."""
        assert not gao_rexford_allows_export(R, R)
        assert not gao_rexford_allows_export(R, P)
