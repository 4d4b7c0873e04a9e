"""The ``tango-repro lint`` entry point, kept out of :mod:`repro.cli`.

Composes the check layers —

1. AST determinism rules and the whole-program fork-safety pass
   (:mod:`repro.lint.flow`, as engine rules) over the given
   files/directories,
2. semantic Gao–Rexford checks over every shipped scenario,
3. fault-plan validation for any ``--plan`` files,
4. the TNG007 unused-suppression audit over every noqa the run judged,

— then applies the baseline filter and renders a report.  Exit status:
0 clean (or all findings baselined), 1 findings, 2 usage/configuration
errors (unknown rule code, unreadable baseline, missing path, a shipped
deployment that fails to build).
"""

from __future__ import annotations

import sys
from typing import Optional, Sequence, TextIO

from ..scenarios.shipped import ShippedBuildError
from .baseline import Baseline
from .engine import PARSE_ERROR_CODE, LintEngine
from .findings import Finding, Severity
from .flow import flow_rules
from .gao_rexford import SEMANTIC_RULE_SUMMARIES
from .plans import check_plan_files, shipped_findings
from .reporters import render_json, render_text
from .rules import default_rules

__all__ = ["run_lint", "list_rules", "DEFAULT_BASELINE", "UNUSED_NOQA_CODE"]

#: Baseline the CLI picks up automatically when present (committed at the
#: repo root, next to pyproject).
DEFAULT_BASELINE = "lint-baseline.json"

#: A ``tango: noqa`` comment that suppresses nothing is itself a finding.
UNUSED_NOQA_CODE = "TNG007"


def list_rules(stdout: Optional[TextIO] = None) -> int:
    """Print every rule code with its severity and one-line summary."""
    out = stdout if stdout is not None else sys.stdout
    rows = [
        (PARSE_ERROR_CODE, "error", "file cannot be parsed"),
        (
            UNUSED_NOQA_CODE,
            "warning",
            "suppression comment silences no finding [unused-noqa]",
        ),
        *(
            (rule.code, rule.severity.label, f"{rule.summary} [{rule.name}]")
            for rule in (*default_rules(), *flow_rules(()))
        ),
        *((code, "error", s) for code, s in SEMANTIC_RULE_SUMMARIES.items()),
    ]
    for code, severity, summary in sorted(rows):
        print(f"{code}  {severity:<8} {summary}", file=out)
    return 0


def _family_ran(code: str, *, semantics: bool) -> bool:
    """Did this run execute the rule family ``code`` belongs to?  Only
    then can an unused suppression of it be judged."""
    if code in (PARSE_ERROR_CODE, UNUSED_NOQA_CODE):
        return False
    return semantics or not code.startswith("TNG1")


def _unused_suppressions(engine: LintEngine, *, semantics: bool) -> list[Finding]:
    """Derive TNG007 findings from this run's suppression bookkeeping.

    TNG007 findings deliberately bypass noqa handling: a dead blanket
    suppression must not be able to silence its own diagnosis.
    """
    findings: list[Finding] = []
    for path in sorted(engine.suppressions):
        usage = engine.suppressions[path]
        for line in sorted(usage["inventory"]):
            codes = usage["inventory"][line]
            text = usage["text"][line]
            fired = set(usage["used"].get(line, ()))
            if codes is None:
                if not fired:
                    findings.append(
                        Finding(
                            path=path,
                            line=line,
                            column=0,
                            code=UNUSED_NOQA_CODE,
                            message=(
                                "blanket '# tango: noqa' suppresses "
                                "nothing — remove it or name the code it "
                                "is meant to silence"
                            ),
                            severity=Severity.WARNING,
                            snippet=text,
                        )
                    )
                continue
            dead = [
                code
                for code in codes
                if _family_ran(code, semantics=semantics)
                and code not in fired
            ]
            if dead:
                findings.append(
                    Finding(
                        path=path,
                        line=line,
                        column=0,
                        code=UNUSED_NOQA_CODE,
                        message=(
                            f"unused suppression: noqa[{','.join(dead)}] "
                            "silences no finding on this line — remove "
                            "the dead code(s) from the comment"
                        ),
                        severity=Severity.WARNING,
                        snippet=text,
                    )
                )
    return findings


def run_lint(
    paths: Sequence[str],
    *,
    fmt: str = "text",
    select: Optional[str] = None,
    baseline_path: Optional[str] = None,
    write_baseline: Optional[str] = None,
    plan_paths: Sequence[str] = (),
    semantics: bool = True,
    stdout: Optional[TextIO] = None,
    stderr: Optional[TextIO] = None,
) -> int:
    """Run the linter; returns the process exit status.

    Args:
        paths: files/directories for the AST rules (may be empty when
            only semantic checks are wanted).
        fmt: ``text`` or ``json``.
        select: comma-separated rule codes to restrict to (AST and
            flow rules).
        baseline_path: baseline file to filter findings against.
        write_baseline: write the *unfiltered* findings to this baseline
            file and exit 0 (the accept-current-state workflow).
        plan_paths: fault-plan JSON files to check against the shipped
            deployments.
        semantics: run the Gao–Rexford checks over shipped deployments.
    """
    out = stdout if stdout is not None else sys.stdout
    err = stderr if stderr is not None else sys.stderr

    selected = (
        [code.strip().upper() for code in select.split(",") if code.strip()]
        if select
        else None
    )
    try:
        files = list(LintEngine.iter_python_files(paths))
        engine = LintEngine((*default_rules(), *flow_rules(files)), select=selected)
    except (FileNotFoundError, ValueError) as exc:
        print(f"tango-repro lint: {exc}", file=err)
        return 2
    findings = [f for path in files for f in engine.check_file(path)]

    try:
        if semantics and selected is None:
            findings.extend(shipped_findings())
        if plan_paths:
            findings.extend(check_plan_files(list(plan_paths)))
    except ShippedBuildError as exc:
        print(f"tango-repro lint: {exc}", file=err)
        return 2
    if selected is None:
        findings.extend(_unused_suppressions(engine, semantics=semantics))
    findings.sort()

    if write_baseline:
        Baseline.from_findings(findings).to_file(write_baseline)
        print(
            f"wrote {write_baseline} with {len(findings)} accepted finding(s)",
            file=out,
        )
        return 0

    if baseline_path:
        try:
            baseline = Baseline.from_file(baseline_path)
        except OSError as exc:
            print(f"tango-repro lint: cannot read baseline: {exc}", file=err)
            return 2
        except ValueError as exc:
            print(
                f"tango-repro lint: invalid baseline {baseline_path}: {exc}",
                file=err,
            )
            return 2
        findings = baseline.filter_new(findings)

    renderer = render_json if fmt == "json" else render_text
    out.write(renderer(findings, len(files)))
    return 1 if findings else 0
