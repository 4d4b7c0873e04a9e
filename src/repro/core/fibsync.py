"""Control-plane → data-plane FIB synchronization.

In the prototype, BIRD installs its converged BGP routes into the kernel
FIB.  This module is that glue for the simulation: it walks a converged
:class:`~repro.bgp.network.BgpNetwork` and installs each router's best
routes into the corresponding data-plane node's LPM FIB, resolving
"next-hop neighbor" to the physical link toward that neighbor.

Scenario builders can use it instead of hand-wiring FIB entries, and
tests use it to assert control/data-plane consistency: the path a packet
takes equals the AS path BGP selected.
"""

from __future__ import annotations

from typing import Mapping

from ..bgp.network import BgpNetwork
from ..netsim.links import Link
from ..netsim.node import RouterNode

__all__ = ["FibSyncError", "sync_fibs"]


class FibSyncError(RuntimeError):
    """A best route exists but no link reaches its next hop."""


def sync_fibs(
    bgp: BgpNetwork,
    node_map: Mapping[str, RouterNode],
    link_map: Mapping[tuple[str, str], Link],
    strict: bool = True,
) -> int:
    """Install every router's Loc-RIB best routes into data-plane FIBs.

    Args:
        bgp: a converged control plane.
        node_map: BGP router name -> data-plane node.  Routers without a
            data-plane twin (modeled core ASes) may be omitted.
        link_map: (router name, neighbor name) -> egress link toward that
            neighbor.
        strict: raise :class:`FibSyncError` when a best route's next hop
            has no link; False skips it (useful for partial data planes).

    Returns:
        Number of FIB entries installed.
    """
    installed = 0
    for name, router in bgp.routers.items():
        node = node_map.get(name)
        if node is None:
            continue
        for prefix, entry in router.loc_rib.snapshot().items():
            link = link_map.get((name, entry.neighbor))
            if link is None:
                if strict:
                    raise FibSyncError(
                        f"{name}: best route for {prefix} points at "
                        f"{entry.neighbor!r} but no link is mapped"
                    )
                continue
            node.fib.add_route(prefix, link)
            installed += 1
    return installed
