"""SrlgRegistry: tagging, refcounted group state, regions, epochs."""

import pytest

from repro.srlg import Region, SrlgRegistry


class TestTagging:
    def test_link_tags_merge_additively(self):
        reg = SrlgRegistry()
        reg.tag_link("wan:ny->la:GTT", "socal-conduit")
        reg.tag_link("wan:ny->la:GTT", "transit:GTT")
        for group in ("socal-conduit", "transit:GTT"):
            assert reg.link_members(group) == ("wan:ny->la:GTT",)

    def test_untagged_link_has_no_groups(self):
        reg = SrlgRegistry()
        reg.tag_link("wan:ny->la:GTT", "socal-conduit")
        assert "wan:whatever" not in reg.link_members("socal-conduit")

    def test_link_members_sorted(self):
        reg = SrlgRegistry()
        reg.tag_link("b", "g")
        reg.tag_link("a", "g")
        assert reg.link_members("g") == ("a", "b")

    def test_groups_enumerates_known(self):
        reg = SrlgRegistry()
        reg.tag_link("l", "b-group")
        reg.tag_link("n", "a-group")
        assert reg.groups() == ("a-group", "b-group")


class TestGroupState:
    def test_down_is_refcounted(self):
        reg = SrlgRegistry()
        reg.tag_link("l", "g")
        reg.mark_down("g")
        reg.mark_down("g")
        reg.clear_down("g")
        assert reg.state("g") == "down"
        reg.clear_down("g")
        assert reg.state("g") == "up"

    def test_clear_without_mark_raises(self):
        reg = SrlgRegistry()
        reg.tag_link("l", "g")
        with pytest.raises(ValueError):
            reg.clear_down("g")
        with pytest.raises(ValueError):
            reg.clear_draining("g")

    def test_down_dominates_draining(self):
        reg = SrlgRegistry()
        reg.tag_link("l", "g")
        reg.mark_draining("g")
        assert reg.state("g") == "draining"
        reg.mark_down("g")
        assert reg.state("g") == "down"
        reg.clear_down("g")
        assert reg.state("g") == "draining"

    def test_down_and_unavailable_sets(self):
        reg = SrlgRegistry()
        reg.tag_link("l", "down-g")
        reg.tag_link("l", "drain-g")
        reg.mark_down("down-g")
        reg.mark_draining("drain-g")
        assert reg.down_groups() == frozenset({"down-g"})
        assert reg.unavailable_groups() == frozenset({"down-g", "drain-g"})

    def test_epoch_moves_only_on_state_transitions(self):
        reg = SrlgRegistry()
        reg.tag_link("l", "g")
        start = reg.epoch
        reg.mark_down("g")
        after_first = reg.epoch
        assert after_first == start + 1
        reg.mark_down("g")  # refcount 1 -> 2: no observable change
        assert reg.epoch == after_first
        reg.clear_down("g")  # 2 -> 1: still down
        assert reg.epoch == after_first
        reg.clear_down("g")  # 1 -> 0: transition
        assert reg.epoch == after_first + 1


class TestRegions:
    def test_add_and_lookup(self):
        reg = SrlgRegistry()
        region = Region("socal", routers=("gtt", "telia"), groups=("conduit",))
        reg.add_region(region)
        assert reg.region("socal") is region
        assert reg.regions() == ("socal",)

    def test_duplicate_region_rejected(self):
        reg = SrlgRegistry()
        reg.add_region(Region("socal", routers=("gtt",)))
        with pytest.raises(ValueError):
            reg.add_region(Region("socal", routers=("telia",)))

    def test_unknown_region_lists_known(self):
        reg = SrlgRegistry()
        reg.add_region(Region("socal", routers=("gtt",)))
        with pytest.raises(LookupError, match="socal"):
            reg.region("mars")

    def test_region_requires_name_and_members(self):
        with pytest.raises(ValueError):
            Region("")
        with pytest.raises(ValueError):
            Region("empty")
