"""Semantic checks over the shipped deployments (``TNG101``–``TNG105``).

Each deployment :func:`repro.scenarios.shipped.shipped_deployments` names is
established once — control plane only, no packet sent — and read twice:

* its BGP network must be Gao–Rexford-safe
  (:func:`repro.lint.gao_rexford.check_network`), and
* a fault plan must fit it (``TNG105``): :meth:`FaultPlan.check` against
  the deployment's ``shape()``, the same check ``FaultInjector.arm``
  runs, so a plan that lints clean against a deployment arms on it.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Any, Sequence

from ..faults.plan import DeploymentShape, FaultPlan
from ..scenarios.shipped import shipped_deployments
from .findings import Finding, Severity
from .gao_rexford import check_network

__all__ = ["check_plan_files", "check_scenario", "shipped_findings"]


def check_scenario(deployment: Any) -> list[Finding]:
    """Gao–Rexford safety of an established deployment's control plane,
    with its edges' tenant routers as the valley-free pairs."""
    tenants = [g.config.tenant_router for g in deployment.gateways.values()]
    return check_network(
        deployment.bgp, edges=tenants, scenario=deployment.shape().name
    )


@lru_cache(maxsize=1)
def _shipped() -> tuple[tuple[DeploymentShape, ...], tuple[Finding, ...]]:
    """The shipped deployments' shapes and Gao–Rexford findings."""
    deployments = shipped_deployments()
    findings = [f for d in deployments for f in check_scenario(d)]
    return tuple(d.shape() for d in deployments), tuple(findings)


def shipped_findings() -> list[Finding]:
    """``TNG101``–``TNG104`` over every shipped deployment."""
    return sorted(_shipped()[1])


def _plan_finding(path: str, message: str) -> Finding:
    return Finding(
        path=path,
        line=0,
        column=0,
        code="TNG105",
        message=message,
        severity=Severity.ERROR,
        snippet=message,
    )


def check_plan_files(plan_paths: Sequence[str]) -> list[Finding]:
    """Load fault-plan JSON files and check each against the shipped
    deployments (``TNG105``).

    A plan is clean when it fits one of them; otherwise its findings are
    the problems on the deployment it misses least (the first such on a
    tie).  Unreadable or malformed files become findings rather
    than exceptions, so one bad plan cannot hide the others' reports.
    """
    shapes = _shipped()[0]
    findings: list[Finding] = []
    for path in plan_paths:
        try:
            plan = FaultPlan.from_file(path)
        except OSError as exc:
            findings.append(_plan_finding(path, f"cannot read fault plan: {exc}"))
            continue
        except ValueError as exc:
            findings.append(_plan_finding(path, f"invalid fault plan: {exc}"))
            continue
        problems = min((plan.check(shape) for shape in shapes), key=len)
        findings.extend(
            _plan_finding(path, f"plan {plan.name!r} {problem}")
            for problem in problems
        )
    return sorted(findings)
