"""The flow pass as engine rules: files in, per-file findings out.

:func:`analyze_project` parses every file into a
:class:`~repro.lint.flow.summaries.ModuleSummary`, links the summaries
into a :class:`~repro.lint.flow.callgraph.ProjectGraph`, runs the
evaluator's fixpoint over all of them, and turns the TNG202 hits and
the fork model's TNG3xx hits into findings in the file that holds each
hazard.  :func:`flow_rules` hands those findings to the
:class:`~repro.lint.engine.LintEngine` as ordinary per-file rules, so
``--select``, ``# tango: noqa`` suppression and the TNG007 audit treat
them exactly like the AST rules' own.
"""

from __future__ import annotations

import ast
import functools
from typing import Callable, Sequence

from ..engine import FileContext, Rule
from ..findings import Finding
from .callgraph import ProjectGraph
from .evaluate import Evaluator
from .extract import extract_module
from .fork import derive_fork_findings

__all__ = ["analyze_project", "flow_rules"]

Report = Callable[[Finding], None]

#: Code → (name, one-line summary) of every rule the pass reports.
_FLOW_RULES = {
    "TNG202": (
        "module-global-rng",
        "RNG object aliased into module-global scope",
    ),
    "TNG301": (
        "fork-global-state",
        "mutable module-global state reachable from a fork-worker entrypoint",
    ),
    "TNG302": (
        "fork-shipped-object",
        "RNG / Simulator / open handle captured in args shipped across the "
        "fork boundary",
    ),
    "TNG303": (
        "fork-constant-seed",
        "worker-reachable RNG seeded with a constant literal instead of a "
        "per-shard SeedSequence",
    ),
}


def analyze_project(files: Sequence[str]) -> dict[str, list[Finding]]:
    """Unsuppressed TNG202/TNG3xx findings, keyed by file path.

    Files that cannot be read or parsed are skipped: the per-file engine
    reports them as TNG000.
    """
    summaries = []
    lines: dict[str, list[str]] = {}
    for path in files:
        try:
            with open(path, "r", encoding="utf-8") as handle:
                source = handle.read()
            summaries.append(extract_module(path, source=source))
        except (OSError, SyntaxError):
            continue
        lines[path] = source.splitlines()
    graph = ProjectGraph(summaries)
    evaluator = Evaluator(graph)
    evaluator.run_fixpoint()

    hits = derive_fork_findings(graph, evaluator)
    for module, module_hits in evaluator.module_hits.items():
        hits.setdefault(module, []).extend(module_hits)
    for qual, facts in evaluator.facts.items():
        hits.setdefault(graph.functions[qual], []).extend(facts.hits)
    findings: dict[str, list[Finding]] = {}
    for module in sorted(hits):
        path = graph.modules[module].path
        for hit in hits[module]:
            findings.setdefault(path, []).append(
                Finding(
                    path=path,
                    line=hit["line"],
                    column=0,
                    code=hit["code"],
                    message=hit["message"],
                    snippet=lines[path][hit["line"] - 1].strip(),
                )
            )
    return findings


class _Replay(ast.NodeVisitor):
    """A per-file visitor that reports findings computed project-wide."""

    def __init__(self, findings: list[Finding], report: Report) -> None:
        self.findings = findings
        self.report = report

    def visit(self, node: ast.AST) -> None:
        for finding in self.findings:
            self.report(finding)


def flow_rules(files: Sequence[str]) -> tuple[Rule, ...]:
    """One engine rule per flow code over the project ``files``.

    The whole-program pass runs once, when the engine first asks a flow
    rule for a visitor — never, when ``--select`` names no flow code.
    """

    @functools.cache
    def project() -> dict[str, list[Finding]]:
        return analyze_project(files)

    def replay(code: str) -> Callable[[FileContext, Report], _Replay]:
        def make_visitor(context: FileContext, report: Report) -> _Replay:
            findings = project().get(context.path, [])
            return _Replay([f for f in findings if f.code == code], report)

        return make_visitor

    return tuple(
        Rule(code, name, summary, replay(code))
        for code, (name, summary) in _FLOW_RULES.items()
    )
