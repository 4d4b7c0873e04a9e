"""Static validation of scenarios and the fault plans aimed at them.

A :class:`ScenarioSpec` is the *static shape* of a deployment — edge
names, per-edge wide-area path labels, per-edge route-prefix counts, the
BGP router names, and the built (unconverged) control plane — extracted
from the scenario definition without establishing tunnels or running a
single simulated packet.  Against it we can check, pre-run:

* the control plane is Gao–Rexford-safe
  (:func:`repro.lint.gao_rexford.check_network`), and
* a :class:`~repro.faults.plan.FaultPlan` only references targets that
  exist (``TNG105``) — today the injector throws at arm time, which is
  runtime; here the same contract is a lint finding with the plan path.

:func:`shipped_scenario_specs` enumerates every scenario the repo ships
(Vultr, enterprise, a representative mesh) so ``tango-repro lint`` can
assert they all validate clean — the semantic half of the CI gate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

from ..bgp.network import BgpNetwork
from ..faults.plan import FaultPlan
from .findings import Finding, Severity
from .gao_rexford import check_network

__all__ = [
    "ScenarioSpec",
    "vultr_spec",
    "enterprise_spec",
    "mesh_spec",
    "shipped_scenario_specs",
    "check_fault_plan",
    "check_plan_files",
    "check_scenario",
]


@dataclass
class ScenarioSpec:
    """The statically checkable shape of one deployment scenario.

    Attributes:
        name: scenario label, used in finding paths.
        edges: edge names in pairing order (fault-plan ``src``/``edge``).
        path_labels: per sending edge, the wide-area path labels a plan's
            ``path`` parameter may name.
        route_prefix_counts: per edge, how many route prefixes it
            announces (bounds ``prefix_index``).
        network: the built control plane.
        tenant_routers: the edges' tenant routers (valley-free pairs).
        srlg_groups: every shared-risk group name the scenario tags
            (bounds ``srlg_failure`` / ``maintenance_window`` targets).
        regions: named failure regions (bounds ``regional_outage``).
    """

    name: str
    edges: tuple[str, ...]
    path_labels: dict[str, tuple[str, ...]]
    route_prefix_counts: dict[str, int]
    network: BgpNetwork
    tenant_routers: tuple[str, ...] = ()
    srlg_groups: frozenset[str] = frozenset()
    regions: tuple[str, ...] = ()
    extra_findings: list[Finding] = field(default_factory=list)


# -- shipped scenario extraction -------------------------------------------------


def vultr_spec() -> ScenarioSpec:
    """Static shape of the paper's NY/LA Vultr deployment."""
    from ..scenarios.vultr import (
        LA_TO_NY_PATHS,
        NY_TO_LA_PATHS,
        VULTR_REGIONS,
        VULTR_SRLG_GROUPS,
        build_bgp_network,
        make_pairing,
    )

    pairing = make_pairing()
    return ScenarioSpec(
        name="vultr",
        edges=(pairing.a.name, pairing.b.name),
        path_labels={
            pairing.a.name: tuple(NY_TO_LA_PATHS),
            pairing.b.name: tuple(LA_TO_NY_PATHS),
        },
        route_prefix_counts={
            pairing.a.name: len(pairing.a.route_prefixes),
            pairing.b.name: len(pairing.b.route_prefixes),
        },
        network=build_bgp_network(),
        tenant_routers=(pairing.a.tenant_router, pairing.b.tenant_router),
        srlg_groups=VULTR_SRLG_GROUPS,
        regions=tuple(region.name for region in VULTR_REGIONS),
    )


def enterprise_spec() -> ScenarioSpec:
    """Static shape of the distributed-enterprise pairing."""
    from ..scenarios.enterprise import (
        FACTORY_TO_HQ_PATHS,
        HQ_TO_FACTORY_PATHS,
        build_enterprise_bgp,
        make_enterprise_pairing,
    )

    pairing = make_enterprise_pairing()
    return ScenarioSpec(
        name="enterprise",
        edges=(pairing.a.name, pairing.b.name),
        path_labels={
            pairing.a.name: tuple(FACTORY_TO_HQ_PATHS),
            pairing.b.name: tuple(HQ_TO_FACTORY_PATHS),
        },
        route_prefix_counts={
            pairing.a.name: len(pairing.a.route_prefixes),
            pairing.b.name: len(pairing.b.route_prefixes),
        },
        network=build_enterprise_bgp(),
        tenant_routers=(pairing.a.tenant_router, pairing.b.tenant_router),
    )


def mesh_spec(n_edges: int = 4) -> ScenarioSpec:
    """Static shape of a Tango-of-N mesh (control plane only).

    The mesh generator runs discovery while building (it is part of the
    scenario's definition, not of a simulation run), so this is the most
    expensive spec — still a fraction of a second for the default size.
    """
    from ..scenarios.topologies import build_mesh_scenario

    scenario = build_mesh_scenario(n_edges)
    return ScenarioSpec(
        name=f"mesh-{n_edges}",
        edges=tuple(scenario.edge_names),
        path_labels={},  # meshes take no fault plans today
        route_prefix_counts={},
        network=scenario.bgp,
        tenant_routers=tuple(scenario.edge_names),
    )


def shipped_scenario_specs() -> tuple[ScenarioSpec, ...]:
    """Every scenario the repo ships, ready for semantic checking."""
    return (vultr_spec(), enterprise_spec(), mesh_spec())


# -- checks ----------------------------------------------------------------------


def check_scenario(spec: ScenarioSpec) -> list[Finding]:
    """Gao–Rexford safety of one scenario's control plane."""
    findings = check_network(
        spec.network, edges=spec.tenant_routers or None, scenario=spec.name
    )
    return sorted(findings + spec.extra_findings)


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


def check_fault_plan(
    plan: FaultPlan,
    spec: ScenarioSpec,
    path: str = "<plan>",
) -> list[Finding]:
    """Every fault-plan target must exist in the scenario (``TNG105``).

    Mirrors the scenario-dependent contracts
    :class:`~repro.faults.injector.FaultInjector` enforces at arm time,
    evaluated without a deployment; the scenario-independent parameter
    checks already ran when each :class:`~repro.faults.plan.FaultEvent`
    was built.
    """
    findings: list[Finding] = []

    def bad(event_index: int, message: str) -> None:
        findings.append(
            _plan_finding(
                path,
                f"plan {plan.name!r} event #{event_index}: {message}",
            )
        )

    router_names = set(spec.network.routers)
    for index, event in enumerate(plan.events):
        params = event.params
        if "src" in params:
            src = str(params["src"])
            if src not in spec.edges:
                bad(index, f"unknown edge {src!r}; have {sorted(spec.edges)}")
            elif "path" in params:
                label = str(params["path"])
                labels = spec.path_labels.get(src, ())
                if label not in labels:
                    bad(
                        index,
                        f"edge {src!r} has no wide-area path {label!r}; "
                        f"have {sorted(labels)}",
                    )
        if "edge" in params:
            edge = str(params["edge"])
            if edge not in spec.edges:
                bad(index, f"unknown edge {edge!r}; have {sorted(spec.edges)}")
            elif "prefix_index" in params:
                count = spec.route_prefix_counts.get(edge, 0)
                prefix_index = int(params["prefix_index"])
                if not 0 <= prefix_index < count:
                    bad(
                        index,
                        f"prefix_index {prefix_index} out of range for edge "
                        f"{edge!r} with {count} route prefixes",
                    )
        if event.kind == "clock_drift":
            from ..trust.clock import ClockIntegrityMonitor

            ppm = float(params["ppm"])
            bound = ClockIntegrityMonitor.MAX_TRACKABLE_PPM
            if abs(ppm) > bound:
                bad(
                    index,
                    f"clock_drift ppm {ppm:g} exceeds the clock-integrity "
                    f"monitor's re-estimation bound (|ppm| <= {bound:g}); "
                    "the defended controller cannot track it",
                )
        if event.kind in ("srlg_failure", "maintenance_window"):
            group = str(params["group"])
            if group not in spec.srlg_groups:
                bad(
                    index,
                    f"unknown risk group {group!r}; scenario "
                    f"{spec.name!r} tags {sorted(spec.srlg_groups)}",
                )
        if event.kind == "relay_outage":
            member = str(params["member"])
            if member not in spec.edges:
                bad(
                    index,
                    f"unknown federation member {member!r}; scenario "
                    f"{spec.name!r} declares {sorted(spec.edges)}",
                )
        if event.kind == "regional_outage":
            region = str(params["region"])
            if region not in spec.regions:
                bad(
                    index,
                    f"unknown region {region!r}; scenario {spec.name!r} "
                    f"defines {sorted(spec.regions)}",
                )
        if event.kind == "bgp_session_down":
            a, b = str(params["a"]), str(params["b"])
            for router in (a, b):
                if router not in router_names:
                    bad(
                        index,
                        f"unknown router {router!r}; have "
                        f"{sorted(router_names)}",
                    )
            if (
                a in router_names
                and b in router_names
                and b not in spec.network.router(a).neighbors
            ):
                bad(index, f"no BGP session between {a!r} and {b!r}")
    return sorted(findings)


def check_plan_files(
    plan_paths: Sequence[str],
    spec_factory: Callable[[], ScenarioSpec] = vultr_spec,
    spec: Optional[ScenarioSpec] = None,
) -> list[Finding]:
    """Load and validate fault-plan JSON files against a scenario.

    Unreadable or malformed files become ``TNG105`` findings rather than
    exceptions, so one bad plan cannot hide the others' reports.
    """
    resolved = spec if spec is not None else spec_factory()
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
        findings.extend(check_fault_plan(plan, resolved, path=path))
    return sorted(findings)
