"""A BGP speaker: sessions, RIBs, decision process, export processing.

Routers are identified by *name*, not ASN, because the Vultr scenario has
two border routers sharing AS 20473 (one per datacenter).  Paths are still
sequences of ASNs; the ``allowas_in`` knob (a real BGP feature) lets a
router accept paths containing its own ASN, which is how the two Vultr
routers hear each other's tenant prefixes across the public core.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Union

from ..validate import int_in
from .attributes import AsPath, RouteAttributes, ValueTable, strip_private_asns
from .communities import TrafficControlInterpreter
from .messages import Announcement, Prefix, Withdrawal, as_prefix, prefix_key
from .policy import (
    ExportPolicy,
    ImportPolicy,
    Relationship,
    default_local_pref,
    gao_rexford_allows_export,
)
from .rib import AdjRibIn, AdjRibOut, LocRib, RibEntry

__all__ = ["Neighbor", "BgpRouter"]

#: The 4-byte ASN space (RFC 6793); AS 0 is reserved (RFC 7607).
_ASN_MIN = 1
_ASN_MAX = 2**32 - 1


@dataclass
class Neighbor:
    """An eBGP session to an adjacent router.

    Attributes:
        name: the adjacent router's name.
        asn: its ASN (used for AS-path prepending/interpretation).
        relationship: business relationship from the local viewpoint.
        preference: operator tie-break rank (lower wins).  This models the
            paper's observation that Vultr's routers prefer NTT, then
            Telia, then GTT, then the rest.
        local_pref: the LOCAL_PREF import assigns to this neighbor's
            routes, taken from ``relationship`` once per session.
    """

    name: str
    asn: int
    relationship: Relationship
    preference: int = 1000
    local_pref: int = field(init=False)

    def __post_init__(self) -> None:
        self.local_pref = default_local_pref(self.relationship)


class BgpRouter:
    """One BGP speaker with full import/decision/export processing.

    Args:
        name: unique router name ("vultr-ny", "ntt", ...).
        asn: the ASN this router speaks for.
        allowas_in: accept routes whose path already contains ``asn``.
        strip_private_on_export: remove private ASNs from exported paths,
            as Vultr does for its BGP tenants (paper footnote 2).

    Raises:
        ValueError: ``asn`` is not an int in ``1..4294967295`` (a bool
            is not an ASN).
    """

    def __init__(
        self,
        name: str,
        asn: int,
        allowas_in: bool = False,
        strip_private_on_export: bool = True,
    ) -> None:
        int_in(_ASN_MIN, _ASN_MAX)(f"{name}: asn", asn)
        self.name = name
        self.asn = asn
        self.allowas_in = allowas_in
        self.strip_private_on_export = strip_private_on_export
        self.neighbors: dict[str, Neighbor] = {}
        self.adj_rib_in = AdjRibIn()
        self.loc_rib = LocRib()
        self.adj_rib_out = AdjRibOut()
        self.originated: dict[Prefix, RouteAttributes] = {}
        #: Where imports, exports and originations take their paths and
        #: bundles; :meth:`BgpNetwork.add_router` swaps in the network's.
        self.values = ValueTable()
        #: True while a snapshot may hold ``originated``: the next
        #: ``originate`` / ``withdraw_origination`` copies it first.
        self._originated_shared = False
        #: Cache slot owned by :func:`repro.bgp.snapshot.network_fingerprint`:
        #: the canonical text of ``originated``, None whenever it may be
        #: stale (every mutation of ``originated`` resets it).
        self._origination_lines: Optional[bytes] = None
        self.interpreter = TrafficControlInterpreter(asn)
        self.import_policies: list[ImportPolicy] = []
        self.export_policies: list[ExportPolicy] = []
        #: Prefixes whose exports may have changed since the network last
        #: drained this router — the propagation work queue.
        self._pending_export: set[Prefix] = set()
        #: Work counter (a cheap int, always on).
        self.decisions_run = 0

    # -- session management ---------------------------------------------------

    def add_neighbor(
        self,
        name: str,
        asn: int,
        relationship: Relationship,
        preference: Optional[int] = None,
    ) -> Neighbor:
        """Register an eBGP session (one side; the peer registers its own)."""
        if name in self.neighbors:
            raise ValueError(f"{self.name}: duplicate neighbor {name}")
        neighbor = Neighbor(
            name=name,
            asn=asn,
            relationship=relationship,
            preference=preference if preference is not None else 1000,
        )
        self.neighbors[name] = neighbor
        return neighbor

    def remove_neighbor(self, name: str) -> None:
        """Tear down a session and flush its routes."""
        self.neighbors.pop(name, None)
        flushed = self.adj_rib_in.prefixes_from(name)
        self.adj_rib_in.remove_neighbor(name)
        # Only the flushed prefixes lost a candidate.  Sorted so decision
        # order never depends on set iteration order (TNG005; the
        # replay-determinism invariant).
        for prefix in sorted(flushed, key=prefix_key):
            self._decide(prefix)

    # -- origination ------------------------------------------------------------

    def originate(
        self,
        prefix: Union[str, Prefix],
        attributes: Optional[RouteAttributes] = None,
    ) -> None:
        """Originate (or re-originate with new attributes) a prefix.

        ``attributes.as_path`` holds any *poisoned* tail; the router's own
        ASN is prepended at export time, so a normal origination passes an
        empty path.
        """
        normalized = as_prefix(prefix)
        attrs = self.values.bundle(attributes or RouteAttributes())
        if self.originated.get(normalized) != attrs:
            self._own_originated()[normalized] = attrs
            self._origination_lines = None
            self._pending_export.add(normalized)

    def withdraw_origination(self, prefix: Union[str, Prefix]) -> bool:
        """Stop originating ``prefix``.  True if it was being originated."""
        normalized = as_prefix(prefix)
        if normalized not in self.originated:
            return False
        del self._own_originated()[normalized]
        self._origination_lines = None
        self._pending_export.add(normalized)
        return True

    def _own_originated(self) -> dict[Prefix, RouteAttributes]:
        """``originated``, copied first if a snapshot may hold it."""
        if self._originated_shared:
            self.originated = self.originated.copy()
            self._originated_shared = False
        return self.originated

    # -- import side ------------------------------------------------------------

    def receive_announcement(self, from_name: str, announcement: Announcement) -> bool:
        """Process an UPDATE from a neighbor.  Returns True if RIBs changed."""
        neighbor = self._require_neighbor(from_name)
        attrs = announcement.attributes
        if attrs.as_path.contains(self.asn) and not self.allowas_in:
            # Standard AS-path loop detection; also what defeats a
            # poisoned announcement (repro.bgp.poisoning).  The rejected
            # update implicitly replaces any earlier accepted route from
            # this neighbor, so the stale entry must go *and* the
            # decision must rerun.
            return self._reject_update(from_name, announcement.prefix)
        for policy in self.import_policies:
            if not policy(from_name, announcement.prefix, attrs):
                return self._reject_update(from_name, announcement.prefix)
        entry = RibEntry(
            prefix=announcement.prefix,
            attributes=self.values.imported(attrs, neighbor.local_pref),
            neighbor=from_name,
            relationship=neighbor.relationship,
        )
        changed = self.adj_rib_in.upsert(entry)
        if changed:
            self._decide(announcement.prefix)
        return changed

    def _reject_update(self, from_name: str, prefix: Prefix) -> bool:
        """Drop a rejected update's predecessor and re-decide."""
        changed = self.adj_rib_in.remove(from_name, prefix)
        if changed:
            self._decide(prefix)
        return changed

    def receive_withdrawal(self, from_name: str, withdrawal: Withdrawal) -> bool:
        """Process a withdrawal.  Returns True if RIBs changed."""
        self._require_neighbor(from_name)
        changed = self.adj_rib_in.remove(from_name, withdrawal.prefix)
        if changed:
            self._decide(withdrawal.prefix)
        return changed

    # -- decision process ---------------------------------------------------------

    def _decide(self, prefix: Prefix) -> None:
        """Re-run best-path selection for one prefix.  Every Adj-RIB-In
        change decides its prefix on the spot, so the Loc-RIB always
        reflects the current candidates and nothing re-decides in bulk."""
        self.decisions_run += 1
        candidates = self.adj_rib_in.candidates(prefix)
        if not candidates:
            changed = self.loc_rib.set_best(prefix, None)
        else:
            best = min(candidates, key=self._decision_key)
            changed = self.loc_rib.set_best(prefix, best)
        if changed:
            self._pending_export.add(prefix)

    def _decision_key(self, entry: RibEntry) -> tuple:
        """BGP decision process, expressed as a sort key (lower wins).

        Order: highest LOCAL_PREF, shortest AS path, lowest origin code,
        lowest MED, operator neighbor preference, neighbor name.
        """
        neighbor = self.neighbors[entry.neighbor]
        return (
            -entry.attributes.local_pref,
            entry.attributes.as_path.length,
            int(entry.attributes.origin),
            entry.attributes.med,
            neighbor.preference,
            entry.neighbor,
        )

    def best_route(self, prefix: Union[str, Prefix]) -> Optional[RibEntry]:
        """The Loc-RIB best route for ``prefix`` (None if unreachable)."""
        return self.loc_rib.best(as_prefix(prefix))

    def best_path(self, prefix: Union[str, Prefix]) -> Optional[AsPath]:
        """Convenience: the best route's AS path."""
        route = self.best_route(prefix)
        return route.attributes.as_path if route else None

    # -- export side ------------------------------------------------------------

    def exports_for(self, neighbor_name: str) -> dict[Prefix, Announcement]:
        """Compute the full set of announcements for one neighbor.

        Applies, in order: Gao–Rexford valley-freedom, split horizon,
        provider traffic-control communities (only interpreted when this
        router's ASN is the community's admin), custom export policies,
        private-ASN stripping, and AS-path prepending.
        """
        neighbor = self._require_neighbor(neighbor_name)
        exports: dict[Prefix, Announcement] = {}
        for prefix in sorted(self.loc_rib.prefixes(), key=prefix_key):
            best = self.loc_rib.best(prefix)
            if best is None or prefix in self.originated:
                continue  # our origination supersedes the learned route
            if best.neighbor == neighbor_name:
                continue  # split horizon
            if not gao_rexford_allows_export(
                best.relationship, neighbor.relationship
            ):
                continue
            announcement = self._build_export(
                prefix, best.attributes, neighbor
            )
            if announcement is not None:
                exports[prefix] = announcement
        for prefix in sorted(self.originated, key=prefix_key):
            announcement = self._build_export(
                prefix, self.originated[prefix], neighbor
            )
            if announcement is not None:
                exports[prefix] = announcement
        return exports

    def export_for(
        self, neighbor_name: str, prefix: Prefix
    ) -> Optional[Announcement]:
        """Export processing for a single (neighbor, prefix) pair.

        The same pipeline as :meth:`exports_for` restricted to one prefix
        — propagation's unit of work.  Returns ``None`` when
        nothing is exportable (which the engine turns into a withdrawal if
        something was previously advertised).
        """
        neighbor = self._require_neighbor(neighbor_name)
        originated = self.originated.get(prefix)
        if originated is not None:
            # our origination supersedes any learned route
            return self._build_export(prefix, originated, neighbor)
        best = self.loc_rib.best(prefix)
        if best is None:
            return None
        if best.neighbor == neighbor_name:
            return None  # split horizon
        if not gao_rexford_allows_export(
            best.relationship, neighbor.relationship
        ):
            return None
        return self._build_export(prefix, best.attributes, neighbor)

    def drain_export_changes(self) -> tuple[Prefix, ...]:
        """Take (and clear) the prefixes whose exports may have changed.

        Sorted by prefix string so the engine's delivery order never
        depends on set iteration order (TNG005; the replay-determinism
        invariant).
        """
        if not self._pending_export:
            return ()
        changed = tuple(sorted(self._pending_export, key=prefix_key))
        self._pending_export.clear()
        return changed

    def clear_pending_exports(self) -> None:
        """Discard queued export work (a snapshot restore, like the
        full-scan oracle's fixpoint, leaves nothing to ripple)."""
        self._pending_export.clear()

    def _build_export(
        self, prefix: Prefix, attrs: RouteAttributes, neighbor: Neighbor
    ) -> Optional[Announcement]:
        action = self.interpreter.evaluate(
            attrs,
            neighbor.asn,
            target_is_customer=neighbor.relationship is Relationship.CUSTOMER,
        )
        if not action.allow:
            return None
        for policy in self.export_policies:
            if not policy(neighbor.name, prefix, attrs):
                return None
        asns = attrs.as_path.asns
        if self.strip_private_on_export:
            asns = strip_private_asns(asns)
        values = self.values
        path = values.path((self.asn,) * (1 + action.prepend) + asns)
        return Announcement(prefix=prefix, attributes=values.exported(path, attrs))

    # -- helpers ------------------------------------------------------------

    def _require_neighbor(self, name: str) -> Neighbor:
        try:
            return self.neighbors[name]
        except KeyError:
            raise KeyError(
                f"{self.name}: no session with {name!r}; "
                f"have {sorted(self.neighbors)}"
            ) from None

    def __repr__(self) -> str:
        return f"BgpRouter({self.name}, AS{self.asn})"
