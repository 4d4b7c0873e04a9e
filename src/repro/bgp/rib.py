"""Routing information bases: Adj-RIB-In, Loc-RIB, Adj-RIB-Out."""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter
from typing import Generic, Optional, TypeVar

from ..frozen import slot_init
from .attributes import AsPath, RouteAttributes
from .messages import Announcement, Prefix
from .policy import Relationship

__all__ = ["RibEntry", "AdjRibIn", "LocRib", "AdjRibOut"]


@slot_init
@dataclass(frozen=True, slots=True)
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

_Value = TypeVar("_Value")


class _SharedTable(Generic[_Value]):
    """A prefix-indexed table that snapshots share until it is written.

    :meth:`snapshot` hands out the table itself and :meth:`restore`
    adopts the one it is given; either marks it shared, and the first
    mutation after that copies it (:meth:`_own`).  Values are immutable,
    so a captured snapshot is never written again and a restore costs
    O(1) whatever the table holds.
    """

    def __init__(self) -> None:
        self._table: dict[Prefix, _Value] = {}
        #: True while a snapshot may hold ``_table``.
        self._shared = False

    def _own(self) -> dict[Prefix, _Value]:
        """The table, copied first: called by a mutation of a shared table."""
        self._table = self._table.copy()
        self._shared = False
        return self._table

    def prefixes(self) -> set[Prefix]:
        return set(self._table)

    def snapshot(self) -> dict[Prefix, _Value]:
        """The table itself, shared from now on: the caller must not
        write it, and this RIB copies it before its next change."""
        self._shared = True
        return self._table

    def restore(self, state: dict[Prefix, _Value]) -> None:
        """Adopt a previously captured snapshot, shared as captured."""
        self._table = state
        self._shared = True


class AdjRibIn(_SharedTable[tuple[RibEntry, ...]]):
    """Routes received from each neighbor, pre-decision.

    Indexed by prefix: each prefix maps to its *row*, the tuple of
    entries heard for it in neighbor-name order, so a decision reads one
    row and never orders or compares another prefix.  Rows are immutable
    — a change replaces the row — so a copy of the prefix index is a
    full fork of the RIB's state, and a snapshot shares even that until
    the next change.
    """

    def upsert(self, entry: RibEntry) -> bool:
        """Install/replace a route.  Returns True if anything changed."""
        others = []
        for held in self._table.get(entry.prefix, ()):
            if held.neighbor != entry.neighbor:
                others.append(held)
            elif (
                held.attributes is entry.attributes
                and held.relationship is entry.relationship
            ) or held == entry:
                return False  # interned bundles by identity; ``==`` for copies
        table = self._own() if self._shared else self._table
        table[entry.prefix] = tuple(sorted([*others, entry], key=_neighbor_of))
        return True

    def remove(self, neighbor: str, prefix: Prefix) -> bool:
        """Drop the route for ``prefix`` from ``neighbor`` if present."""
        row = self._table.get(prefix, ())
        others = tuple(e for e in row if e.neighbor != neighbor)
        if len(others) == len(row):
            return False
        table = self._own() if self._shared else self._table
        if others:
            table[prefix] = others
        else:
            del table[prefix]
        return True

    def remove_neighbor(self, neighbor: str) -> int:
        """Session teardown: drop every route from ``neighbor``."""
        flushed = self.prefixes_from(neighbor)
        for prefix in flushed:
            self.remove(neighbor, prefix)
        return len(flushed)

    def candidates(self, prefix: Prefix) -> list[RibEntry]:
        """All routes for ``prefix``, in neighbor-name order."""
        return list(self._table.get(prefix, ()))

    def prefixes_from(self, neighbor: str) -> set[Prefix]:
        return {
            prefix
            for prefix, row in self._table.items()
            if any(e.neighbor == neighbor for e in row)
        }

    def __len__(self) -> int:
        return sum(len(row) for row in self._table.values())


class LocRib(_SharedTable[RibEntry]):
    """Best route per prefix, post-decision."""

    def set_best(self, prefix: Prefix, entry: Optional[RibEntry]) -> bool:
        """Record the decision outcome.  Returns True on change."""
        current = self._table.get(prefix)
        # An unchanged best is a row's very entry; ``==`` covers a copy.
        if current is entry or (
            current is not None and entry is not None and current == entry
        ):
            return False
        table = self._own() if self._shared else self._table
        if entry is None:
            del table[prefix]
        else:
            table[prefix] = entry
        return True

    def best(self, prefix: Prefix) -> Optional[RibEntry]:
        return self._table.get(prefix)

    def __len__(self) -> int:
        return len(self._table)


class AdjRibOut:
    """What we last advertised to each neighbor (for diff-based updates).

    Indexed by neighbor, then prefix: a session's diff and teardown read
    one neighbor's table, never the others'.  A table that empties is
    dropped, so equal contents always mean equal snapshots.

    Copy-on-write per neighbor: :meth:`snapshot` and :meth:`restore`
    share the index and every table, and a write copies the index (once)
    and the one table it changes (:meth:`_own`).
    """

    def __init__(self) -> None:
        self._sent: dict[str, dict[Prefix, Announcement]] = {}
        #: True while a snapshot may hold the ``_sent`` index.
        self._shared = False
        #: Neighbors whose table no snapshot holds; empty while shared.
        self._owned: set[str] = set()

    def _own_index(self) -> None:
        """Copy the shared neighbor index (the tables stay shared)."""
        self._sent = self._sent.copy()
        self._shared = False

    def _own(self, neighbor: str) -> dict[Prefix, Announcement]:
        """``neighbor``'s table, copied (or created) for writing."""
        if self._shared:
            self._own_index()
        table = self._sent[neighbor] = dict(self._sent.get(neighbor, ()))
        self._owned.add(neighbor)
        return table

    def last_sent(self, neighbor: str, prefix: Prefix) -> Optional[Announcement]:
        table = self._sent.get(neighbor)
        return table.get(prefix) if table else None

    def record(self, neighbor: str, announcement: Announcement) -> None:
        table = self._sent[neighbor] if neighbor in self._owned else self._own(neighbor)
        table[announcement.prefix] = announcement

    def forget(self, neighbor: str, prefix: Prefix) -> None:
        table = self._sent.get(neighbor)
        if not table or prefix not in table:
            return
        if neighbor not in self._owned:
            table = self._own(neighbor)
        del table[prefix]
        if not table:
            del self._sent[neighbor]
            self._owned.discard(neighbor)

    def prefixes_to(self, neighbor: str) -> set[Prefix]:
        return set(self._sent.get(neighbor, ()))

    def clear_neighbor(self, neighbor: str) -> None:
        """Session teardown: forget everything advertised to ``neighbor``."""
        if neighbor not in self._sent:
            return
        if self._shared:
            self._own_index()
        del self._sent[neighbor]
        self._owned.discard(neighbor)

    def snapshot(self) -> dict[str, dict[Prefix, Announcement]]:
        """The index itself, shared from now on with every table in it:
        the caller must not write them, and this RIB copies what it
        changes next."""
        self._shared = True
        self._owned.clear()
        return self._sent

    def restore(self, state: dict[str, dict[Prefix, Announcement]]) -> None:
        """Adopt a previously captured snapshot, shared as captured."""
        self._sent = state
        self._shared = True
        self._owned.clear()
