"""The deployments the repository ships, for whole-repo checks."""

from __future__ import annotations

from .enterprise import EnterpriseDeployment
from .topologies import build_live_federation
from .vultr import VultrDeployment

__all__ = ["shipped_deployments"]


def shipped_deployments() -> tuple:
    """Every deployment the repository ships, established (control plane
    only: no packet is sent) — the Vultr and enterprise pairings and a
    4-member live federation.  ``tango-repro lint`` checks their BGP
    networks and, through each one's ``shape()``, fault plans."""
    from ..federation.registry import FederationRegistry

    deployments = (
        VultrDeployment(include_events=False),
        EnterpriseDeployment(include_events=False),
        FederationRegistry(build_live_federation(4)),
    )
    for deployment in deployments:
        deployment.establish()
    return deployments
