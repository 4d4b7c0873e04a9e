"""Failure-domain registry: named SRLGs, regions, and live group state.

The registry is the single source of truth three consumers share:

* the **injector** marks groups down/draining when a correlated fault
  fires (``srlg_failure``, ``regional_outage``, ``maintenance_window``);
* the **data plane** (:class:`~repro.srlg.diversity.FateAwareSelector`)
  filters candidate tunnels whose groups are unavailable;
* the **controller** (:class:`~repro.srlg.frr.FastReroute` and
  QuarantinePolicy probation) reads the same state to pin backups and
  refuse to probe tunnels whose domain is still down.

State transitions are **refcounted**: two overlapping maintenance or
failure windows on the same group each take a hold, and the group only
comes back up when the last hold clears — the same discipline the fault
injector applies to stateful control-plane faults.  ``epoch`` increments
on every *effective* transition (0 -> 1 holds or 1 -> 0 holds), which
lets per-tick consumers short-circuit when nothing changed.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["Region", "SrlgRegistry"]


@dataclass(frozen=True)
class Region:
    """A named blast radius: routers and risk groups that share fate.

    A ``regional_outage`` fault takes the region's risk-group links down
    *and* disconnects every BGP session touching the region's routers —
    the "metro lost power" scenario where both the data plane and the
    control plane inside the domain disappear together.
    """

    name: str
    routers: tuple[str, ...] = ()
    groups: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("region name must be non-empty")
        if not self.routers and not self.groups:
            raise ValueError(
                f"region {self.name!r} must name at least one router or group"
            )


class SrlgRegistry:
    """Maps links into named risk groups and tracks group state."""

    def __init__(self) -> None:
        self._link_groups: dict[str, frozenset[str]] = {}
        self._regions: dict[str, Region] = {}
        self._down: dict[str, int] = {}
        self._draining: dict[str, int] = {}
        #: Bumped on every effective state transition; consumers use it
        #: to skip recomputation on quiet ticks.
        self.epoch = 0

    # -- membership ----------------------------------------------------

    def tag_link(self, link_name: str, *groups: str) -> None:
        """Add ``link_name`` to each named group (idempotent, additive)."""
        merged = self._link_groups.get(link_name, frozenset()) | frozenset(groups)
        self._link_groups[link_name] = merged

    def link_members(self, group: str) -> tuple[str, ...]:
        """Links belonging to ``group``, sorted for determinism."""
        return tuple(
            sorted(
                name
                for name, groups in self._link_groups.items()
                if group in groups
            )
        )

    def groups(self) -> tuple[str, ...]:
        """Every group with a member link, sorted."""
        return tuple(sorted(set().union(*self._link_groups.values())))

    # -- regions -------------------------------------------------------

    def add_region(self, region: Region) -> None:
        if region.name in self._regions:
            raise ValueError(f"region {region.name!r} already registered")
        self._regions[region.name] = region

    def region(self, name: str) -> Region:
        try:
            return self._regions[name]
        except KeyError:
            raise LookupError(
                f"no region {name!r}; have {sorted(self._regions)}"
            ) from None

    def regions(self) -> tuple[str, ...]:
        return tuple(sorted(self._regions))

    # -- live state (refcounted) ---------------------------------------

    def mark_down(self, group: str) -> None:
        """Take a down-hold on ``group``; the first hold transitions it."""
        count = self._down.get(group, 0)
        self._down[group] = count + 1
        if count == 0:
            self.epoch += 1

    def clear_down(self, group: str) -> None:
        count = self._down.get(group, 0)
        if count <= 0:
            raise ValueError(f"clear_down without mark_down for {group!r}")
        if count == 1:
            del self._down[group]
            self.epoch += 1
        else:
            self._down[group] = count - 1

    def mark_draining(self, group: str) -> None:
        """Take a draining-hold: scheduled maintenance gave advance notice."""
        count = self._draining.get(group, 0)
        self._draining[group] = count + 1
        if count == 0:
            self.epoch += 1

    def clear_draining(self, group: str) -> None:
        count = self._draining.get(group, 0)
        if count <= 0:
            raise ValueError(
                f"clear_draining without mark_draining for {group!r}"
            )
        if count == 1:
            del self._draining[group]
            self.epoch += 1
        else:
            self._draining[group] = count - 1

    def state(self, group: str) -> str:
        """``"down"`` | ``"draining"`` | ``"up"`` — down dominates."""
        if self._down.get(group, 0) > 0:
            return "down"
        if self._draining.get(group, 0) > 0:
            return "draining"
        return "up"

    def down_groups(self) -> frozenset[str]:
        return frozenset(self._down)

    def unavailable_groups(self) -> frozenset[str]:
        """Groups no new traffic should be placed on: down or draining."""
        return frozenset(self._down) | frozenset(self._draining)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SrlgRegistry(groups={len(self.groups())}, "
            f"links={len(self._link_groups)}, down={sorted(self._down)}, "
            f"draining={sorted(self._draining)})"
        )
