"""``tango lint``: static determinism & policy-safety analysis.

The reproduction's two load-bearing invariants are enforced at runtime
only: seed-exact replay (the CI chaos job byte-compares two runs) and
Gao–Rexford-faithful export policy (what makes simulated AS paths
trustworthy stand-ins for real transit).  This package moves both checks
*before* the simulation runs:

* :mod:`repro.lint.engine` + :mod:`repro.lint.rules` — an AST rule
  engine (visitor pattern, per-rule codes ``TNG001``–``TNG006``,
  ``# tango: noqa[TNGxxx]`` suppression) banning every construct that
  breaks deterministic replay where it is written: wall-clock reads and
  references, unseeded or global RNGs, OS entropy and environment reads,
  ordered set iteration, mutable default arguments.
* :mod:`repro.lint.gao_rexford` + :mod:`repro.lint.plans` — semantic
  checks (``TNG101``–``TNG105``) over the shipped deployments,
  established but never run: consistent session labeling (no transit leaks),
  valley-free path feasibility, customer/provider acyclicity, community
  actions that can actually fire, and fault plans whose targets exist.
* :mod:`repro.lint.flow` — the whole-program pass, which the engine runs
  as four more rules on every invocation: call-graph construction and
  the interprocedural model of the campaign runner's fork boundary
  (``TNG301``–``TNG303``), plus module-global RNG aliasing (``TNG202``).
* :mod:`repro.lint.baseline` + :mod:`repro.lint.reporters` +
  :mod:`repro.lint.runner` — the CI surface: committed-baseline
  filtering, text/JSON reports, the TNG007 unused-suppression audit,
  and the ``tango-repro lint`` command.
"""

from .baseline import Baseline
from .engine import NOQA_RE, PARSE_ERROR_CODE, FileContext, LintEngine, Rule
from .findings import Finding, Severity
from .flow import ProjectGraph, flow_rules
from .gao_rexford import (
    SEMANTIC_RULE_SUMMARIES,
    check_communities,
    check_network,
    leak_witness,
    valley_free_reachable,
)
from .plans import check_plan_files, check_scenario, shipped_findings
from .reporters import render_json, render_text
from .rules import RULE_SUMMARIES, default_rules
from .runner import DEFAULT_BASELINE, UNUSED_NOQA_CODE, list_rules, run_lint

__all__ = [
    "Baseline",
    "DEFAULT_BASELINE",
    "FileContext",
    "Finding",
    "LintEngine",
    "NOQA_RE",
    "PARSE_ERROR_CODE",
    "ProjectGraph",
    "RULE_SUMMARIES",
    "Rule",
    "UNUSED_NOQA_CODE",
    "SEMANTIC_RULE_SUMMARIES",
    "Severity",
    "check_communities",
    "check_network",
    "check_plan_files",
    "check_scenario",
    "default_rules",
    "flow_rules",
    "leak_witness",
    "list_rules",
    "render_json",
    "render_text",
    "run_lint",
    "shipped_findings",
    "valley_free_reachable",
]
