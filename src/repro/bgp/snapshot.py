"""Convergence snapshot cache: fork converged control-plane state.

The discovery procedure and fault replays keep returning a network to
configurations it has already converged from — every suppression round
ends by withdrawing the probe and re-converging to the *base* state, and
a flapping fault alternates between the same two configurations.  Since
the fixpoint is a pure function of the network configuration (routers,
sessions, originations — Gao–Rexford plus deterministic tie-breaks make
it unique), converged state can be cached against a canonical fingerprint
of that configuration and restored in O(routers) instead of
re-propagating.

Snapshots are copy-on-write.  Every RIB entry, announcement and
attribute bundle is a frozen value, and capturing or restoring a
snapshot copies no table at all: a router's Adj-RIB-In, Loc-RIB,
Adj-RIB-Out and origination table hand the snapshot their dicts, or
adopt the snapshot's, and mark them shared.  The first write to a
shared table copies it (Adj-RIB-Out per neighbor), so a captured
snapshot is never written again and a cache hit pays only for the
tables the next convergence changes.

Custom import/export policies are opaque callables — they cannot be
fingerprinted — so a network using them is never cached (the cache
degrades to plain :meth:`BgpNetwork.converge`).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Optional

from ..validate import int_in
from .attributes import RouteAttributes
from .messages import Announcement, Prefix, prefix_key
from .network import BgpNetwork
from .rib import RibEntry
from .router import BgpRouter

__all__ = [
    "NetworkSnapshot",
    "SnapshotCache",
    "network_fingerprint",
    "capture_snapshot",
    "restore_snapshot",
]


def _attr_token(attrs: RouteAttributes) -> str:
    """Canonical text form of an attribute bundle for fingerprinting."""
    communities = ",".join(sorted(str(c) for c in attrs.communities))
    large = ",".join(sorted(str(c) for c in attrs.large_communities))
    return (
        f"{attrs.as_path}|{int(attrs.origin)}|{attrs.local_pref}"
        f"|{attrs.med}|{communities}|{large}"
    )


def _origination_lines(name: str, router: BgpRouter) -> bytes:
    """The router's ``O|…`` lines, from its cache slot when still valid
    (``originate`` / ``withdraw_origination`` reset it)."""
    lines = router._origination_lines
    if lines is None:
        originated = router.originated
        lines = router._origination_lines = "".join(
            f"O|{name}|{prefix_key(prefix)}|{_attr_token(originated[prefix])}\n"
            for prefix in sorted(originated, key=prefix_key)
        ).encode()
    return lines


def _session_lines(network: BgpNetwork) -> bytes:
    """The ``S|…`` lines, from the network's cache slot when still valid
    (``connect`` / ``disconnect`` reset it)."""
    lines = network._session_lines
    if lines is None:
        lines = network._session_lines = "".join(
            f"S|{a}|{b}|{rel.name}|{a_pref}|{b_pref}\n"
            for (a, b), (rel, a_pref, b_pref) in sorted(
                network._session_meta.items()
            )
        ).encode()
    return lines


def network_fingerprint(network: BgpNetwork) -> Optional[str]:
    """Canonical digest of everything the fixpoint depends on.

    Covers routers (name, ASN, knobs), sessions (endpoints, relationship,
    preferences), and originations (prefix plus full attributes).  Returns
    ``None`` — *uncacheable* — when any router carries custom import or
    export policies, since opaque callables cannot be hashed canonically.

    The origination and session lines — everything that grows with the
    table — are kept per router / per network and rebuilt only after the
    mutation that changes them, so a call costs the routers that changed
    plus one hash over the cached text.
    """
    digest = hashlib.sha256()
    for name in sorted(network.routers):
        router = network.routers[name]
        if router.import_policies or router.export_policies:
            return None
        digest.update(
            f"R|{name}|{router.asn}|{int(router.allowas_in)}"
            f"|{int(router.strip_private_on_export)}\n".encode()
        )
        digest.update(_origination_lines(name, router))
    digest.update(_session_lines(network))
    return digest.hexdigest()


@dataclass(frozen=True)
class _RouterState:
    """One router's converged state: its four tables, shared with the
    router until it next writes them (never written again after that)."""

    adj_rib_in: dict[Prefix, tuple[RibEntry, ...]]
    loc_rib: dict[Prefix, RibEntry]
    adj_rib_out: dict[str, dict[Prefix, Announcement]]
    originated: dict[Prefix, RouteAttributes]
    #: The fingerprint text of ``originated`` (None if not yet built),
    #: restored with it so the cache slot never describes another table.
    origination_lines: Optional[bytes]


@dataclass(frozen=True)
class NetworkSnapshot:
    """A converged network state, restorable onto the same topology."""

    fingerprint: str
    routers: dict[str, _RouterState]


def capture_snapshot(
    network: BgpNetwork, fingerprint: Optional[str] = None
) -> NetworkSnapshot:
    """Fork the network's current (converged) state.

    Raises:
        ValueError: if the network has custom policies (no fingerprint),
            or is not at a fixpoint — a state with queued work would be
            declared authoritative by :func:`restore_snapshot`, which
            discards the queue.
    """
    if fingerprint is None:
        fingerprint = network_fingerprint(network)
    if fingerprint is None:
        raise ValueError(
            "network with custom import/export policies is not snapshotable"
        )
    pending = sorted(
        {name for name, r in network.routers.items() if r._pending_export}
        | {name for session in network._pending_full_sync for name in session}
    )
    if pending:
        raise ValueError(
            f"network is not converged: {pending} have pending work; "
            "call converge() before capture_snapshot()"
        )
    routers: dict[str, _RouterState] = {}
    for name, router in network.routers.items():
        router._originated_shared = True
        routers[name] = _RouterState(
            adj_rib_in=router.adj_rib_in.snapshot(),
            loc_rib=router.loc_rib.snapshot(),
            adj_rib_out=router.adj_rib_out.snapshot(),
            originated=router.originated,
            origination_lines=router._origination_lines,
        )
    return NetworkSnapshot(fingerprint=fingerprint, routers=routers)


def restore_snapshot(network: BgpNetwork, snapshot: NetworkSnapshot) -> None:
    """Load a captured state back onto the network.

    The snapshot is authoritative: queued incremental work describes
    mutations the captured state already reflects, so pending buffers are
    cleared.  Cumulative statistics (``total_rounds`` and friends) are
    deliberately left alone — a restore is not a convergence.
    """
    if set(snapshot.routers) != set(network.routers):
        raise ValueError("snapshot router set does not match this network")
    for name, state in snapshot.routers.items():
        router = network.routers[name]
        router.adj_rib_in.restore(state.adj_rib_in)
        router.loc_rib.restore(state.loc_rib)
        router.adj_rib_out.restore(state.adj_rib_out)
        router.originated = state.originated
        router._originated_shared = True
        router._origination_lines = state.origination_lines
        router.clear_pending_exports()
    network._pending_full_sync.clear()
    network.snapshot_restores += 1


class SnapshotCache:
    """An LRU cache of converged states keyed by network fingerprint.

    Drop-in accelerator for any ``network.converge()`` call site: use
    :meth:`converge` instead, and configurations already seen restore in
    O(routers) with zero propagation waves.

    Args:
        capacity: snapshots retained (least recently used evicted first).
    """

    def __init__(self, capacity: int = 16) -> None:
        int_in(1)("capacity", capacity)
        self.capacity = capacity
        self._snapshots: dict[str, NetworkSnapshot] = {}
        self.hits = 0
        self.misses = 0
        self.bypasses = 0

    def __len__(self) -> int:
        return len(self._snapshots)

    def converge(self, network: BgpNetwork, max_rounds: int = 200) -> int:
        """Converge ``network``, restoring a cached fixpoint when one
        exists for its current configuration.

        Returns the wave count, 0 on a cache hit (no propagation ran).

        Raises:
            ValueError: ``max_rounds`` is not an int >= 1; nothing has
                moved, not even a restore from the cache.
        """
        int_in(1)("max_rounds", max_rounds)
        key = network_fingerprint(network)
        if key is None:
            self.bypasses += 1
            return network.converge(max_rounds)
        snapshot = self._snapshots.get(key)
        if snapshot is not None:
            # Refresh LRU position.
            del self._snapshots[key]
            self._snapshots[key] = snapshot
            restore_snapshot(network, snapshot)
            self.hits += 1
            return 0
        waves = network.converge(max_rounds)
        self.misses += 1
        self._snapshots[key] = capture_snapshot(network, key)
        while len(self._snapshots) > self.capacity:
            del self._snapshots[next(iter(self._snapshots))]
        return waves

    def clear(self) -> None:
        """Drop every cached snapshot (counters are kept)."""
        self._snapshots.clear()
