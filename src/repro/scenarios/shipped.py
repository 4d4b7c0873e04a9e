"""The deployments the repository ships, for whole-repo checks."""

from __future__ import annotations

from .enterprise import EnterpriseDeployment
from .topologies import build_live_federation
from .vultr import VultrDeployment

__all__ = ["ShippedBuildError", "shipped_deployments"]


class ShippedBuildError(RuntimeError):
    """A shipped deployment raised while it was built or established."""


def shipped_deployments() -> tuple:
    """Every deployment the repository ships, established (control plane
    only: no packet is sent) — the Vultr and enterprise pairings and a
    4-member live federation.  ``tango-repro lint`` checks their BGP
    networks and, through each one's ``shape()``, fault plans.

    Raises :class:`ShippedBuildError`, naming the deployment and the
    exception, when one fails to build."""
    from ..federation.registry import FederationRegistry

    builders = {
        "vultr": lambda: VultrDeployment(include_events=False),
        "enterprise": lambda: EnterpriseDeployment(include_events=False),
        "federation-4": lambda: FederationRegistry(build_live_federation(4)),
    }
    deployments = []
    for name, build in builders.items():
        try:
            deployment = build()
            deployment.establish()
        except Exception as exc:
            raise ShippedBuildError(
                f"shipped deployment {name!r} failed to build: "
                f"{type(exc).__name__}: {exc}"
            ) from exc
        deployments.append(deployment)
    return tuple(deployments)
