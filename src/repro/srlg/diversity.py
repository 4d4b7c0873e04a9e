"""SRLG-aware diversity scoring and the fate-aware data-plane wrapper.

AS-disjoint is not fate-disjoint: two tunnels through different transit
providers can share a conduit, and a candidate set that *looks* diverse
can collapse under one fiber cut.  The functions here score tunnel
pairs by shared risk and pick the maximally-disjoint backup; both are
pure over :class:`~repro.core.tunnels.TangoTunnel` tags and degrade to
today's behaviour when no tags exist (every ``srlgs`` set empty).

:class:`FateAwareSelector` is the data-plane half: it wraps any inner
:class:`~repro.dataplane.programs.PathSelector` and (a) filters
candidates whose risk group is currently down or draining, (b) honours a
fast-reroute **pin** installed by :class:`~repro.srlg.frr.FastReroute`
so a precomputed backup wins over the inner policy during an event.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Sequence

from ..core.tunnels import TangoTunnel
from ..netsim.packet import Packet
from .registry import SrlgRegistry

if TYPE_CHECKING:
    from ..dataplane.programs import PathSelector
    from ..telemetry.store import MeasurementStore

__all__ = [
    "shared_risk",
    "max_disjoint_backup",
    "FateAwareSelector",
]


def shared_risk(a: TangoTunnel, b: TangoTunnel) -> frozenset[str]:
    """Risk groups ``a`` and ``b`` have in common."""
    return a.srlgs & b.srlgs


def max_disjoint_backup(
    primary: TangoTunnel, candidates: Sequence[TangoTunnel]
) -> Optional[TangoTunnel]:
    """The candidate sharing the fewest risk groups with ``primary``.

    Ties break on lowest ``path_id`` (deterministic, and biased toward
    the BGP-preferred path).  Returns None when no other candidate
    exists.
    """
    pool = [t for t in candidates if t.path_id != primary.path_id]
    if not pool:
        return None
    return min(pool, key=lambda t: (len(shared_risk(primary, t)), t.path_id))


class FateAwareSelector:
    """Wrap a selector with failure-domain awareness.

    On every decision the wrapper drops candidates whose risk groups
    intersect the registry's unavailable (down or draining) set before
    delegating to the inner policy.  If the filter would empty the set —
    every candidate shares a dead group — the full set passes through
    unchanged: with no survivor there is nothing better to do than what
    an unaware selector would, and the inner policy's own fallbacks
    (plus quarantine above us) take over.

    Fast reroute installs a **pin**: while pinned, the named tunnel wins
    over the inner policy whenever it survives the availability filter.
    That is the make-before-break half — the backup is forced into the
    forwarding decision before the primary's window actually fails.
    """

    def __init__(self, inner: "PathSelector", registry: SrlgRegistry) -> None:
        self.inner = inner
        self.registry = registry
        #: Path id forced by fast reroute, or None.
        self.pinned: Optional[int] = None
        #: Decisions where the availability filter removed candidates.
        self.filtered = 0
        #: Decisions resolved by the FRR pin.
        self.pin_hits = 0
        self._last_choice: Optional[int] = None

    @property
    def last_choice(self) -> Optional[int]:
        """Path id of the most recent decision (None before traffic)."""
        return self._last_choice

    @property
    def store(self) -> "MeasurementStore":
        """Delegate to the inner selector's measurement store so the
        degraded-mode store swap sees through the wrapper."""
        return self.inner.store  # type: ignore[attr-defined, no-any-return]

    @store.setter
    def store(self, value: "MeasurementStore") -> None:
        self.inner.store = value  # type: ignore[attr-defined]

    def pin(self, path_id: int) -> None:
        self.pinned = path_id

    def release(self) -> None:
        self.pinned = None

    def select(
        self, tunnels: list[TangoTunnel], packet: Packet, now: float
    ) -> TangoTunnel:
        candidates = tunnels
        unavailable = self.registry.unavailable_groups()
        if unavailable:
            kept = [t for t in tunnels if not (t.srlgs & unavailable)]
            if kept and len(kept) < len(tunnels):
                self.filtered += 1
                candidates = kept
        if self.pinned is not None:
            for tunnel in candidates:
                if tunnel.path_id == self.pinned:
                    self.pin_hits += 1
                    self._last_choice = tunnel.path_id
                    return tunnel
        tunnel = self.inner.select(candidates, packet, now)
        self._last_choice = tunnel.path_id
        return tunnel

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"FateAwareSelector(inner={self.inner!r}, pinned={self.pinned}, "
            f"filtered={self.filtered})"
        )
