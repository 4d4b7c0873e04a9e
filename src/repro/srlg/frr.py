"""Fast reroute: precomputed SRLG-disjoint backups, make-before-break.

BGP reconvergence after a correlated failure is measured in tens of
seconds; Tango's telemetry loop is measured in hundreds of
milliseconds.  :class:`FastReroute` closes the remaining gap to *one
controller tick* by removing all decision latency from the failure
path: the backup for every primary is computed **before** anything
fails, so reacting to a group event is a table lookup plus a pin.

The state machine:

* **steady** — ``backup_for`` maps each tunnel to its max-SRLG-disjoint
  alternative (ties to lowest path id).  Recomputed only when the
  registry epoch moves, i.e. when a group changes state — including
  *loss of disjointness*: when a group failure makes a formerly-disjoint
  backup share fate with its primary, the table is repaired on the same
  tick.
* **pinned** — a group covering the currently-ridden tunnel went down
  (or started draining for maintenance).  The backup is pinned on the
  :class:`~repro.srlg.diversity.FateAwareSelector` so the very next
  packet rides it; the primary is never torn down first
  (make-before-break — during a maintenance drain this achieves a
  zero-loss switch, because the pin lands while the old path still
  forwards).
* **released** — the primary's groups recovered; the pin is dropped and
  the inner measurement-driven policy resumes.

Group state (down/draining marks in :class:`SrlgRegistry`) is the
authoritative failure-domain signal — the moral equivalent of a NOC
feed or maintenance calendar.  The undefended ablation in the E18
campaign shows what life looks like without it: loss-triggered
quarantine only, paying the detection latency and the drained-window
losses this module exists to avoid.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from .diversity import FateAwareSelector, max_disjoint_backup
from .registry import SrlgRegistry

if TYPE_CHECKING:
    from ..core.gateway import TangoGateway

__all__ = ["FastReroute", "FrrEvent"]


@dataclass(frozen=True)
class FrrEvent:
    """One fast-reroute action, for audit and the recovery report."""

    t: float
    action: str  # "switchover" | "release" | "recompute"
    primary: int
    backup: int  # -1 when no backup applies (release/recompute)
    groups: tuple[str, ...] = ()


class FastReroute:
    """Per-primary backup precomputation + pin/release on group events."""

    def __init__(
        self,
        gateway: "TangoGateway",
        registry: SrlgRegistry,
        selector: FateAwareSelector,
    ) -> None:
        self.gateway = gateway
        self.registry = registry
        self.selector = selector
        self.log: list[FrrEvent] = []
        self.switchovers = 0
        self.backup_for: dict[int, int] = {}
        self._pinned_primary: Optional[int] = None
        self._last_epoch: Optional[int] = None
        self._recompute(frozenset())

    def _recompute(self, unavailable: frozenset[str]) -> bool:
        """Rebuild the backup table against the current group state.

        Backups are drawn from tunnels not currently covered by an
        unavailable group, so a group event that kills a primary's
        precomputed backup (loss of disjointness) repairs the table in
        the same pass.  Falls back to the full set when everything is
        covered — a least-bad answer beats none.
        """
        tunnels = self.gateway.tunnel_table.all_tunnels()
        usable = [t for t in tunnels if not (t.srlgs & unavailable)]
        pool = usable or tunnels
        table: dict[int, int] = {}
        for tunnel in tunnels:
            backup = max_disjoint_backup(tunnel, pool)
            if backup is not None:
                table[tunnel.path_id] = backup.path_id
        changed = table != self.backup_for
        self.backup_for = table
        return changed

    def tick(self, now: float) -> None:
        """Run once per controller tick; cheap no-op on quiet epochs."""
        if self.registry.epoch == self._last_epoch:
            return
        self._last_epoch = self.registry.epoch
        unavailable = self.registry.unavailable_groups()
        tunnels = self.gateway.tunnel_table.all_tunnels()
        affected = frozenset(
            t.path_id for t in tunnels if t.srlgs & unavailable
        )
        if self._recompute(unavailable) and unavailable:
            self.log.append(
                FrrEvent(now, "recompute", -1, -1, tuple(sorted(unavailable)))
            )

        current = self.selector.last_choice
        if current is not None and current in affected:
            backup = self.backup_for.get(current)
            if backup == self.selector.pinned and backup is not None:
                pass  # already riding this backup; nothing to do
            elif backup is not None and backup not in affected:
                # Make-before-break: the pin forces the backup into the
                # forwarding decision while the primary's tunnel state
                # stays installed; nothing is torn down.
                self.selector.pin(backup)
                self._pinned_primary = current
                self.switchovers += 1
                self.log.append(
                    FrrEvent(
                        now,
                        "switchover",
                        current,
                        backup,
                        tuple(sorted(unavailable)),
                    )
                )
            elif self.selector.pinned is not None:
                # The pinned backup itself is now covered and no clean
                # alternative exists; drop the pin and let the
                # fate-aware filter + inner policy fall back.
                self._release(now, self.selector.pinned)
        elif (
            self.selector.pinned is not None
            and self._pinned_primary is not None
            and self._pinned_primary not in affected
        ):
            # Primary's domain recovered: resume measurement-driven policy.
            self._release(now, self.selector.pinned)

    def _release(self, now: float, backup: int) -> None:
        primary = self._pinned_primary if self._pinned_primary is not None else -1
        self.selector.release()
        self._pinned_primary = None
        self.log.append(FrrEvent(now, "release", primary, backup))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"FastReroute(backups={self.backup_for}, "
            f"switchovers={self.switchovers}, pinned={self._pinned_primary})"
        )
