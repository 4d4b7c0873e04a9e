"""Flowlet-switched load balancing across Tango tunnels.

Section 6 of the paper calls out "effective load balancing across multiple
paths in the data plane" as future work.  The standard switch-friendly
technique is *flowlet switching* (Kandula et al., "Walking the tightrope"):
a flow may be moved to a different path only when a sufficiently long gap
separates two of its packets, so reordering cannot occur as long as the
gap exceeds the path-delay disparity.

:class:`FlowletSelector` implements the
:class:`~repro.dataplane.programs.PathSelector` protocol, so it drops into
the Tango sender program in place of a single-path policy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from ..netsim.delaymodels import uniform_at
from ..netsim.packet import Packet
from ..validate import positive
from .programs import Tunnel

__all__ = ["FlowletSelector"]

#: Computes relative weights for the candidate tunnels (higher = more
#: traffic).  Defaults to uniform.
WeightFunction = Callable[[list, float], list]


@dataclass
class _FlowletState:
    last_packet_at: float
    tunnel_index: int
    flowlet_count: int


class FlowletSelector:
    """Weighted flowlet-based tunnel selection.

    Args:
        gap_s: minimum inter-packet gap that opens a new flowlet.  Must
            exceed the worst-case delay difference between the tunnels for
            reordering-freedom; 50 ms is safe for the Vultr paths.
        weights: optional function ``(tunnels, now) -> [w, ...]``; called
            when a new flowlet starts.  Performance-aware policies pass
            inverse-delay weights here.
        seed: stream for the deterministic weighted draw.
    """

    def __init__(
        self,
        gap_s: float = 0.050,
        weights: Optional[WeightFunction] = None,
        seed: int = 0,
    ) -> None:
        positive("gap_s", gap_s)
        self.gap_s = gap_s
        self.weights = weights
        self.seed = seed
        self._flows: dict[int, _FlowletState] = {}
        self.flowlets_started = 0
        self.switches = 0
        #: Draws where the weight vector was degenerate (all zero, or
        #: negative after clamping) and the selector fell back to uniform.
        self.uniform_fallbacks = 0
        #: Draws where at least one negative weight had to be clamped to 0.
        self.clamped_weight_draws = 0
        #: Flowlet assignments per tunnel path id, for telemetry.
        self.split_counts: dict[int, int] = {}

    def select(self, tunnels: list, packet: Packet, now: float) -> Tunnel:
        if not tunnels:
            raise ValueError("no tunnels to select from")
        key = self._flow_key(packet)
        state = self._flows.get(key)
        if state is not None and (now - state.last_packet_at) < self.gap_s:
            # Same flowlet: stickiness guarantees in-order delivery.
            state.last_packet_at = now
            index = min(state.tunnel_index, len(tunnels) - 1)
            return tunnels[index]
        flowlet_count = state.flowlet_count + 1 if state else 0
        index = self._pick(tunnels, now, key, flowlet_count)
        if state is not None and index != state.tunnel_index:
            self.switches += 1
        self._flows[key] = _FlowletState(
            last_packet_at=now, tunnel_index=index, flowlet_count=flowlet_count
        )
        self.flowlets_started += 1
        chosen = tunnels[index]
        path_id = getattr(chosen, "path_id", index)
        self.split_counts[path_id] = self.split_counts.get(path_id, 0) + 1
        return chosen

    def _flow_key(self, packet: Packet) -> int:
        if packet.flow_label:
            return packet.flow_label
        five = packet.five_tuple()
        return hash((five.src, five.dst, five.protocol, five.sport, five.dport))

    def _pick(self, tunnels: list, now: float, key: int, flowlet: int) -> int:
        if self.weights is not None:
            raw = [float(w) for w in self.weights(tunnels, now)]
            if len(raw) != len(tunnels):
                raise ValueError(
                    f"weight function returned {len(raw)} weights "
                    f"for {len(tunnels)} tunnels"
                )
            # Negative weights would corrupt the cumulative draw (the
            # running sum could decrease past u and double-select early
            # tunnels): clamp them to zero, then renormalize.  A vector
            # that is degenerate after clamping falls back to uniform.
            if any(w < 0 for w in raw):
                self.clamped_weight_draws += 1
                raw = [max(w, 0.0) for w in raw]
            total = float(sum(raw))
            if total <= 0:
                self.uniform_fallbacks += 1
                weights = [1.0 / len(tunnels)] * len(tunnels)
            else:
                weights = [w / total for w in raw]
        else:
            weights = [1.0 / len(tunnels)] * len(tunnels)
        draw_seed = (self.seed * 0x9E3779B1) ^ (key & 0xFFFFFFFF) ^ (flowlet << 32)
        u = uniform_at(draw_seed, now)
        cumulative = 0.0
        for index, weight in enumerate(weights):
            cumulative += weight
            if u < cumulative:
                return index
        return len(tunnels) - 1
