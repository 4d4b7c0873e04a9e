"""Routing information bases: Adj-RIB-In, Loc-RIB, Adj-RIB-Out."""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter
from typing import Optional

from .attributes import AsPath, RouteAttributes
from .messages import Announcement, Prefix
from .policy import Relationship

__all__ = ["RibEntry", "AdjRibIn", "LocRib", "AdjRibOut"]


@dataclass(frozen=True)
class RibEntry:
    """One candidate route: a prefix as heard from one neighbor."""

    prefix: Prefix
    attributes: RouteAttributes
    neighbor: str
    relationship: Relationship

    @property
    def as_path(self) -> AsPath:
        return self.attributes.as_path


_neighbor_of = attrgetter("neighbor")


class AdjRibIn:
    """Routes received from each neighbor, pre-decision.

    Indexed by prefix: each prefix maps to its *row*, the tuple of
    entries heard for it in neighbor-name order, so a decision reads one
    row and never orders or compares another prefix.  Rows are immutable
    — a change replaces the row — which is what lets :meth:`snapshot`
    share them: a fork copies the prefix index only, and no later
    mutation of either side can reach the other.
    """

    def __init__(self) -> None:
        self._rows: dict[Prefix, tuple[RibEntry, ...]] = {}

    def upsert(self, entry: RibEntry) -> bool:
        """Install/replace a route.  Returns True if anything changed."""
        row = self._rows.get(entry.prefix, ())
        if entry in row:
            return False
        others = [e for e in row if e.neighbor != entry.neighbor]
        self._rows[entry.prefix] = tuple(sorted([*others, entry], key=_neighbor_of))
        return True

    def remove(self, neighbor: str, prefix: Prefix) -> bool:
        """Drop the route for ``prefix`` from ``neighbor`` if present."""
        row = self._rows.get(prefix, ())
        others = tuple(e for e in row if e.neighbor != neighbor)
        if len(others) == len(row):
            return False
        if others:
            self._rows[prefix] = others
        else:
            del self._rows[prefix]
        return True

    def remove_neighbor(self, neighbor: str) -> int:
        """Session teardown: drop every route from ``neighbor``."""
        flushed = self.prefixes_from(neighbor)
        for prefix in flushed:
            self.remove(neighbor, prefix)
        return len(flushed)

    def candidates(self, prefix: Prefix) -> list[RibEntry]:
        """All routes for ``prefix``, in neighbor-name order."""
        return list(self._rows.get(prefix, ()))

    def prefixes(self) -> set[Prefix]:
        return set(self._rows)

    def prefixes_from(self, neighbor: str) -> set[Prefix]:
        return {
            prefix
            for prefix, row in self._rows.items()
            if any(e.neighbor == neighbor for e in row)
        }

    def snapshot(self) -> dict[Prefix, tuple[RibEntry, ...]]:
        """Copy of the prefix index.  Rows are immutable and entries
        frozen, so this shallow copy is a full fork of the RIB's state."""
        return dict(self._rows)

    def restore(self, state: dict[Prefix, tuple[RibEntry, ...]]) -> None:
        """Replace the table with a previously captured snapshot."""
        self._rows = dict(state)

    def __len__(self) -> int:
        return sum(len(row) for row in self._rows.values())


class LocRib:
    """Best route per prefix, post-decision."""

    def __init__(self) -> None:
        self._best: dict[Prefix, RibEntry] = {}

    def set_best(self, prefix: Prefix, entry: Optional[RibEntry]) -> bool:
        """Record the decision outcome.  Returns True on change."""
        current = self._best.get(prefix)
        if entry is None:
            if current is None:
                return False
            del self._best[prefix]
            return True
        if current == entry:
            return False
        self._best[prefix] = entry
        return True

    def best(self, prefix: Prefix) -> Optional[RibEntry]:
        return self._best.get(prefix)

    def snapshot(self) -> dict[Prefix, RibEntry]:
        """Copy-on-write fork of the best-route table (entries frozen)."""
        return dict(self._best)

    def restore(self, state: dict[Prefix, RibEntry]) -> None:
        """Replace the table with a previously captured snapshot."""
        self._best = dict(state)

    def __len__(self) -> int:
        return len(self._best)


class AdjRibOut:
    """What we last advertised to each neighbor (for diff-based updates).

    Indexed by neighbor, then prefix: a session's diff and teardown read
    one neighbor's table, never the others'.  A table that empties is
    dropped, so equal contents always mean equal snapshots.
    """

    def __init__(self) -> None:
        self._sent: dict[str, dict[Prefix, Announcement]] = {}

    def last_sent(self, neighbor: str, prefix: Prefix) -> Optional[Announcement]:
        table = self._sent.get(neighbor)
        return table.get(prefix) if table else None

    def record(self, neighbor: str, announcement: Announcement) -> None:
        self._sent.setdefault(neighbor, {})[announcement.prefix] = announcement

    def forget(self, neighbor: str, prefix: Prefix) -> None:
        table = self._sent.get(neighbor)
        if table and table.pop(prefix, None) is not None and not table:
            del self._sent[neighbor]

    def prefixes_to(self, neighbor: str) -> set[Prefix]:
        return set(self._sent.get(neighbor, ()))

    def clear_neighbor(self, neighbor: str) -> None:
        """Session teardown: forget everything advertised to ``neighbor``."""
        self._sent.pop(neighbor, None)

    def snapshot(self) -> dict[str, dict[Prefix, Announcement]]:
        """Fork of the advertised tables (announcements frozen): one dict
        copy per neighbor that has been sent anything."""
        return {neighbor: dict(table) for neighbor, table in self._sent.items()}

    def restore(self, state: dict[str, dict[Prefix, Announcement]]) -> None:
        """Replace the tables with a previously captured snapshot."""
        self._sent = {neighbor: dict(table) for neighbor, table in state.items()}
