"""Network container: simulator + nodes + links, with builder helpers.

A :class:`Network` owns the discrete-event :class:`Simulator` and the node
and link registries.  Scenario code (``repro.scenarios``) uses the builder
methods to assemble the data-plane topology that matches the converged BGP
control plane.
"""

from __future__ import annotations

from typing import Callable, Optional, Union

from .delaymodels import ConstantDelay, DelayModel
from .events import Simulator
from .links import Link, LossModel
from .node import HostNode, Node, ProgrammableSwitch, RouterNode
from .packet import Packet

__all__ = ["Network"]


class Network:
    """A simulated network: nodes, links, and the event loop that runs them.

    Example:
        >>> net = Network()
        >>> a = net.add_router("a")
        >>> b = net.add_router("b")
        >>> link = net.add_link("a->b", "a", "b", delay_s=0.010)
    """

    def __init__(self, sim: Optional[Simulator] = None) -> None:
        self.sim = sim or Simulator()
        self.nodes: dict[str, Node] = {}
        self.links: dict[str, Link] = {}
        self._link_seed = 1000

    # -- node builders --------------------------------------------------------

    def add_node(self, node: Node) -> Node:
        """Register an externally constructed node."""
        if node.name in self.nodes:
            raise ValueError(f"duplicate node name: {node.name}")
        self.nodes[node.name] = node
        return node

    def add_host(
        self,
        name: str,
        clock_offset: float = 0.0,
        on_packet: Optional[Callable[[Packet, float], None]] = None,
    ) -> HostNode:
        """Create and register a host."""
        host = HostNode(name, self.sim, clock_offset, on_packet)
        self.add_node(host)
        return host

    def add_router(
        self, name: str, clock_offset: float = 0.0, ecmp_salt: int = 0
    ) -> RouterNode:
        """Create and register a plain LPM router."""
        router = RouterNode(name, self.sim, clock_offset, ecmp_salt)
        self.add_node(router)
        return router

    def add_switch(
        self, name: str, clock_offset: float = 0.0, ecmp_salt: int = 0
    ) -> ProgrammableSwitch:
        """Create and register a programmable border switch."""
        switch = ProgrammableSwitch(name, self.sim, clock_offset, ecmp_salt)
        self.add_node(switch)
        return switch

    # -- link builders --------------------------------------------------------

    def add_link(
        self,
        name: str,
        src: Union[str, Node],
        dst: Union[str, Node],
        delay: Optional[DelayModel] = None,
        delay_s: Optional[float] = None,
        loss: Optional[LossModel] = None,
        bandwidth_bps: Optional[float] = None,
        mtu: int = 1500,
        srlgs: tuple[str, ...] = (),
    ) -> Link:
        """Create a unidirectional link.

        Exactly one of ``delay`` (a model) or ``delay_s`` (a constant in
        seconds) must be given.
        """
        if (delay is None) == (delay_s is None):
            raise ValueError("specify exactly one of delay / delay_s")
        if name in self.links:
            raise ValueError(f"duplicate link name: {name}")
        model = delay if delay is not None else ConstantDelay(delay_s)
        self._link_seed += 1
        link = Link(
            name=name,
            src=self._resolve(src),
            dst=self._resolve(dst),
            delay=model,
            loss=loss,
            bandwidth_bps=bandwidth_bps,
            mtu=mtu,
            seed=self._link_seed,
            srlgs=srlgs,
        )
        self.links[name] = link
        return link

    # -- operation ------------------------------------------------------------

    def node(self, name: str) -> Node:
        """Look up a node by name (KeyError with context if missing)."""
        try:
            return self.nodes[name]
        except KeyError:
            raise KeyError(
                f"unknown node {name!r}; have {sorted(self.nodes)}"
            ) from None

    def inject(self, node: Union[str, Node], packet: Packet) -> None:
        """Hand a packet to a node as if an attached host emitted it now."""
        packet.created_at = self.sim.now
        self._resolve(node).receive(packet)

    def run(self, until: Optional[float] = None) -> None:
        """Run the event loop (see :meth:`Simulator.run`)."""
        self.sim.run(until=until)

    def _resolve(self, node: Union[str, Node]) -> Node:
        return self.node(node) if isinstance(node, str) else node
