"""Wide-area slicing: per-application QoS over Tango tunnels.

Paper Section 6: "Tango has the potential to act as a wide-area
dynamically slicable network allowing participants to enforce certain
QoS."  The border switch already sees every packet and already makes a
per-packet path decision; slicing adds two pieces on top:

* **classification + admission** — flows belong to named slices; each
  slice may carry a token-bucket rate limit, enforced at egress before
  encapsulation (a P4/eBPF meter in a real switch);
* **per-slice routing** — each slice has its own path selector, so a
  control slice can pin the stable low-jitter path while bulk transfers
  ride (and are limited to) whatever is left.

:class:`SliceManager` packages both: attach
:meth:`SliceManager.admission_program` as a gateway egress program (it
runs before the Tango sender program) and install the manager itself as
the gateway's selector.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from ..netsim.node import ProgrammableSwitch
from ..netsim.packet import Packet
from ..validate import positive
from .tunnels import TangoTunnel

__all__ = ["TokenBucket", "NetworkSlice", "SliceManager"]


class TokenBucket:
    """Classic token bucket: ``rate_bps`` sustained, ``burst_bytes`` deep.

    Deterministic and O(1): tokens are refilled lazily on each call.
    """

    def __init__(self, rate_bps: float, burst_bytes: int) -> None:
        positive("rate_bps", rate_bps)
        positive("burst_bytes", burst_bytes)
        self.rate_bps = rate_bps
        self.burst_bytes = burst_bytes
        self._tokens = float(burst_bytes)
        self._last_refill = 0.0

    def allow(self, now: float, size_bytes: int) -> bool:
        """Admit ``size_bytes`` at time ``now``?  Consumes on success."""
        elapsed = max(now - self._last_refill, 0.0)
        self._last_refill = now
        self._tokens = min(
            self.burst_bytes, self._tokens + elapsed * self.rate_bps / 8.0
        )
        if self._tokens >= size_bytes:
            self._tokens -= size_bytes
            return True
        return False


@dataclass
class NetworkSlice:
    """One slice: a flow class, its routing policy, its rate contract.

    Attributes:
        name: slice label ("control", "bulk", ...).
        flow_labels: application flow labels belonging to the slice.
        selector: the slice's path selector (any
            :class:`~repro.dataplane.programs.PathSelector`).
        bucket: optional token bucket; None means unmetered.
    """

    name: str
    flow_labels: frozenset[int]
    selector: object
    bucket: Optional[TokenBucket] = None
    admitted: int = field(default=0, repr=False)
    dropped: int = field(default=0, repr=False)

    def admit(self, now: float, size_bytes: int) -> bool:
        if self.bucket is None or self.bucket.allow(now, size_bytes):
            self.admitted += 1
            return True
        self.dropped += 1
        return False


class SliceManager:
    """Classifies, meters, and routes per slice.

    Args:
        slices: the configured slices; flow labels must not overlap.
        default: the best-effort slice for unclassified traffic (its
            ``flow_labels`` are ignored).
    """

    def __init__(
        self, slices: Sequence[NetworkSlice], default: NetworkSlice
    ) -> None:
        self._by_label: dict[int, NetworkSlice] = {}
        for network_slice in slices:
            for label in network_slice.flow_labels:
                if label in self._by_label:
                    raise ValueError(
                        f"flow label {label} claimed by two slices"
                    )
                self._by_label[label] = network_slice
        self.slices = list(slices)
        self.default = default

    def slice_for(self, packet: Packet) -> NetworkSlice:
        return self._by_label.get(packet.flow_label, self.default)

    # -- the two attachment points -------------------------------------------------

    def admission_program(
        self, switch: ProgrammableSwitch, packet: Packet
    ) -> Optional[Packet]:
        """Egress program: meter the packet's slice; None drops it."""
        network_slice = self.slice_for(packet)
        if network_slice.admit(switch.sim.now, packet.wire_bytes):
            return packet
        return None

    def select(
        self, tunnels: Sequence[TangoTunnel], packet: Packet, now: float
    ) -> TangoTunnel:
        """PathSelector protocol: delegate to the packet's slice."""
        return self.slice_for(packet).selector.select(tunnels, packet, now)

    # -- reporting ------------------------------------------------------------------

    def report(self) -> list[dict]:
        rows = []
        for network_slice in [*self.slices, self.default]:
            total = network_slice.admitted + network_slice.dropped
            rows.append(
                {
                    "slice": network_slice.name,
                    "admitted": network_slice.admitted,
                    "dropped": network_slice.dropped,
                    "drop_fraction": (
                        network_slice.dropped / total if total else 0.0
                    ),
                    "metered": network_slice.bucket is not None,
                }
            )
        return rows
