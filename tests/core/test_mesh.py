"""Tests for Tango-of-N meshes."""

import pytest

from repro.core.mesh import MeshPath, MeshRoute, TangoMesh


def triangle(relay_overhead=0.0002):
    """a--b, b--c, a--c mesh where relaying a->b->c beats direct a->c."""
    mesh = TangoMesh(relay_overhead_s=relay_overhead)
    for name in ("a", "b", "c"):
        mesh.add_member(name)
    mesh.add_paths("a", "c", [("slow", 0.080), ("slower", 0.090)])
    mesh.add_paths("a", "b", [("fast", 0.020)])
    mesh.add_paths("b", "c", [("fast", 0.020)])
    return mesh


class TestConstruction:
    def test_unknown_member_rejected(self):
        mesh = TangoMesh()
        mesh.add_member("a")
        with pytest.raises(KeyError):
            mesh.add_paths("a", "ghost", [("x", 0.01)])

    def test_self_pair_rejected(self):
        mesh = TangoMesh()
        mesh.add_member("a")
        with pytest.raises(ValueError):
            mesh.add_paths("a", "a", [("x", 0.01)])

    def test_negative_delay_rejected(self):
        with pytest.raises(ValueError):
            MeshPath(src="a", dst="b", label="x", delay_s=-1.0)


class TestRoutes:
    def test_direct_only_without_relays(self):
        mesh = triangle()
        routes = mesh.routes("a", "c", max_relays=0)
        assert len(routes) == 2
        assert all(len(r.hops) == 1 for r in routes)

    def test_relay_route_found_and_wins(self):
        mesh = triangle()
        best = mesh.best_route("a", "c", max_relays=1)
        assert best.relays == ("b",)
        assert best.total_delay_s == pytest.approx(0.020 + 0.020 + 0.0002)

    def test_relay_overhead_charged_per_relay(self):
        cheap = triangle(relay_overhead=0.0)
        costly = triangle(relay_overhead=0.050)
        assert cheap.best_route("a", "c").relays == ("b",)
        # 50 ms per relay makes the direct path win again.
        assert costly.best_route("a", "c").relays == ()

    def test_routes_sorted_best_first(self):
        mesh = triangle()
        routes = mesh.routes("a", "c", max_relays=1)
        delays = [r.total_delay_s for r in routes]
        assert delays == sorted(delays)

    def test_diversity_counts_combinations(self):
        mesh = triangle()
        assert mesh.diversity("a", "c", max_relays=0) == 2
        assert mesh.diversity("a", "c", max_relays=1) == 3

    def test_unreachable_pair(self):
        mesh = TangoMesh()
        mesh.add_member("a")
        mesh.add_member("b")
        assert mesh.best_route("a", "b") is None
        assert mesh.routes("a", "b") == []

    def test_missing_leg_skips_relay(self):
        """A relay without a session to the destination is not used."""
        mesh = TangoMesh()
        for name in ("a", "b", "c"):
            mesh.add_member(name)
        mesh.add_paths("a", "b", [("x", 0.01)])
        mesh.add_paths("a", "c", [("y", 0.05)])
        # no b->c paths
        routes = mesh.routes("a", "c", max_relays=1)
        assert all(r.relays == () for r in routes)


class TestDiversityGain:
    def test_gain_vs_bgp_default(self):
        mesh = triangle()
        # direct default = 0.080; best relayed = 0.0402
        assert mesh.diversity_gain("a", "c", max_relays=1) == pytest.approx(
            0.080 - 0.0402
        )

    def test_gain_zero_when_default_optimal(self):
        mesh = TangoMesh()
        mesh.add_member("a")
        mesh.add_member("b")
        mesh.add_paths("a", "b", [("best", 0.010), ("worse", 0.020)])
        assert mesh.diversity_gain("a", "b") == 0.0

    def test_gain_zero_when_unreachable(self):
        mesh = TangoMesh()
        mesh.add_member("a")
        mesh.add_member("b")
        assert mesh.diversity_gain("a", "b") == 0.0


class TestMeshRoute:
    def test_label_renders_hops(self):
        route = MeshRoute(
            hops=(
                MeshPath("a", "b", "NTT", 0.02),
                MeshPath("b", "c", "GTT", 0.02),
            ),
            relay_overhead_s=0.0,
        )
        assert route.label == "a->b:NTT | b->c:GTT"
        assert route.src == "a"
        assert route.dst == "c"
