"""Fault-plan shapes of established deployments, built once per run."""

from functools import lru_cache

from repro.faults.plan import DeploymentShape


@lru_cache(maxsize=None)
def vultr_shape() -> DeploymentShape:
    from repro.scenarios.vultr import VultrDeployment

    deployment = VultrDeployment(include_events=False)
    deployment.establish()
    return deployment.shape()


@lru_cache(maxsize=None)
def federation_shape(n_edges: int = 4) -> DeploymentShape:
    from repro.federation.registry import FederationRegistry
    from repro.scenarios.topologies import build_live_federation

    registry = FederationRegistry(build_live_federation(n_edges))
    registry.establish()
    return registry.shape()
