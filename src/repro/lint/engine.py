"""The rule engine: file discovery, AST visiting, suppression, selection.

Architecture (mirrors the classic flake8/pylint split, scaled down):

* a :class:`Rule` couples a code (``TNGxxx``), metadata, and a factory
  producing an :class:`ast.NodeVisitor` per file;
* a :class:`FileContext` carries everything a rule may consult — path,
  source lines, the parsed tree, and the per-line suppression table;
* the :class:`LintEngine` walks the requested paths, runs every selected
  rule's visitor over each file once, applies ``# tango: noqa`` line
  suppressions, and returns sorted :class:`~repro.lint.findings.Finding`
  lists ready for a reporter or a baseline filter.

Suppression syntax, checked per physical line::

    x = time.time()          # tango: noqa[TNG001]  -- frozen wall clock
    y = whatever()           # tango: noqa          -- silences every rule

Codes are comma-separable (``noqa[TNG001,TNG005]``).  A bare ``# noqa``
(without the ``tango:`` prefix) is *ignored*: this engine's suppressions
are deliberate and auditable, not inherited from other tools.
"""

from __future__ import annotations

import ast
import io
import os
import re
import tokenize
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Iterator, Optional, Sequence

from .findings import Finding, Severity

__all__ = [
    "FileContext",
    "Rule",
    "LintEngine",
    "NOQA_RE",
    "PARSE_ERROR_CODE",
    "comment_lines",
]

#: Reserved code for files the engine cannot parse.
PARSE_ERROR_CODE = "TNG000"

#: The suppression-comment syntax.
NOQA_RE = re.compile(
    r"#\s*tango:\s*noqa(?:\[(?P<codes>[A-Z0-9,\s]+)\])?", re.IGNORECASE
)


def comment_lines(source: str) -> Optional[set[int]]:
    """Line numbers carrying a real ``#`` comment token.

    A noqa must be a *comment*, not a docstring that merely shows the
    syntax — this is what keeps the engine's own documentation from
    suppressing (or, for TNG007, registering) anything.  Returns None
    when the source cannot be tokenized (caller falls back to treating
    every line as a potential comment).
    """
    lines: set[int] = set()
    try:
        for token in tokenize.generate_tokens(io.StringIO(source).readline):
            if token.type == tokenize.COMMENT:
                lines.add(token.start[0])
    except (tokenize.TokenError, IndentationError, SyntaxError):
        return None
    return lines


@dataclass
class FileContext:
    """Everything rules get to see about one file under analysis."""

    path: str
    source: str
    tree: ast.AST
    lines: list[str] = field(default_factory=list)
    comment_lines: Optional[set[int]] = None

    def __post_init__(self) -> None:
        if not self.lines:
            self.lines = self.source.splitlines()
        if self.comment_lines is None:
            self.comment_lines = comment_lines(self.source)

    def line_text(self, line: int) -> str:
        """The 1-based physical line (empty string when out of range)."""
        if 1 <= line <= len(self.lines):
            return self.lines[line - 1]
        return ""

    def suppressed_codes(self, line: int) -> Optional[frozenset[str]]:
        """Suppression on this line: None (none), empty set (all codes),
        or the explicit code set."""
        if self.comment_lines is not None and line not in self.comment_lines:
            return None
        match = NOQA_RE.search(self.line_text(line))
        if match is None:
            return None
        codes = match.group("codes")
        if codes is None:
            return frozenset()
        return frozenset(
            code.strip().upper() for code in codes.split(",") if code.strip()
        )

    def noqa_inventory(self) -> dict[int, Optional[list[str]]]:
        """Every ``# tango: noqa`` comment in the file: line → code list
        (sorted) or None for a blanket suppression."""
        inventory: dict[int, Optional[list[str]]] = {}
        for number, _text in enumerate(self.lines, start=1):
            codes = self.suppressed_codes(number)
            if codes is None:
                continue
            inventory[number] = sorted(codes) if codes else None
        return inventory

    def finding(
        self,
        node: ast.AST,
        code: str,
        message: str,
        severity: Severity = Severity.ERROR,
    ) -> Finding:
        """Build a finding anchored at ``node``."""
        line = getattr(node, "lineno", 0)
        column = getattr(node, "col_offset", -1) + 1
        return Finding(
            path=self.path,
            line=line,
            column=max(column, 0),
            code=code,
            message=message,
            severity=severity,
            snippet=self.line_text(line).strip(),
        )


@dataclass(frozen=True)
class Rule:
    """One lint rule: identity plus a per-file visitor factory.

    The factory receives the :class:`FileContext` and a ``report``
    callable; the visitor it returns is run over the file's AST once.
    """

    code: str
    name: str
    summary: str
    make_visitor: Callable[
        [FileContext, Callable[[Finding], None]], ast.NodeVisitor
    ]
    severity: Severity = Severity.ERROR


class LintEngine:
    """Runs a rule set over files and directories.

    Args:
        rules: the rule set (see :func:`repro.lint.rules.default_rules`).
        select: restrict to these codes (None = all registered rules).
    """

    def __init__(
        self,
        rules: Sequence[Rule],
        select: Optional[Iterable[str]] = None,
    ) -> None:
        by_code: dict[str, Rule] = {}
        for rule in rules:
            if rule.code in by_code:
                raise ValueError(f"duplicate rule code {rule.code}")
            by_code[rule.code] = rule
        if select is not None:
            wanted = {code.strip().upper() for code in select}
            unknown = wanted - set(by_code) - {PARSE_ERROR_CODE}
            if unknown:
                raise ValueError(
                    f"unknown rule code(s): {', '.join(sorted(unknown))}; "
                    f"have {', '.join(sorted(by_code))}"
                )
            by_code = {c: r for c, r in by_code.items() if c in wanted}
        self.rules: dict[str, Rule] = by_code
        #: Per linted path: the noqa inventory, which codes each noqa
        #: actually silenced this run, and the comment lines' text.
        #: Feeds the TNG007 unused-suppression rule in the runner.
        self.suppressions: dict[str, dict[str, dict[int, Any]]] = {}

    # -- file discovery -----------------------------------------------------------

    @staticmethod
    def iter_python_files(paths: Iterable[str]) -> Iterator[str]:
        """Expand files/directories into a sorted, deduplicated file list."""
        seen: list[str] = []
        for path in paths:
            if os.path.isdir(path):
                for dirpath, dirnames, filenames in os.walk(path):
                    dirnames[:] = sorted(
                        d for d in dirnames if d != "__pycache__"
                    )
                    for filename in sorted(filenames):
                        if filename.endswith(".py"):
                            seen.append(os.path.join(dirpath, filename))
            elif path.endswith(".py") or os.path.isfile(path):
                seen.append(path)
            else:
                raise FileNotFoundError(f"no such file or directory: {path}")
        ordered: list[str] = []
        for path in sorted(seen):
            if path not in ordered:
                ordered.append(path)
        return iter(ordered)

    # -- running ------------------------------------------------------------------

    def check_source(self, source: str, path: str = "<string>") -> list[Finding]:
        """Lint one in-memory source blob (the unit tests' entry point)."""
        try:
            tree = ast.parse(source, filename=path)
        except SyntaxError as exc:
            return [
                Finding(
                    path=path,
                    line=exc.lineno or 0,
                    column=(exc.offset or 1),
                    code=PARSE_ERROR_CODE,
                    message=f"cannot parse file: {exc.msg}",
                    severity=Severity.ERROR,
                )
            ]
        context = FileContext(path=path, source=source, tree=tree)
        raw: list[Finding] = []
        for code in sorted(self.rules):
            rule = self.rules[code]
            visitor = rule.make_visitor(context, raw.append)
            visitor.visit(tree)
        return self._apply_suppressions(context, raw)

    def check_file(self, path: str) -> list[Finding]:
        with open(path, "r", encoding="utf-8") as handle:
            return self.check_source(handle.read(), path=path)

    # -- suppression --------------------------------------------------------------

    def _apply_suppressions(
        self, context: FileContext, findings: list[Finding]
    ) -> list[Finding]:
        inventory = context.noqa_inventory()
        used: dict[int, list[str]] = {}
        kept: list[Finding] = []
        for finding in findings:
            suppressed = context.suppressed_codes(finding.line)
            if suppressed is not None and (
                not suppressed or finding.code in suppressed
            ):
                bucket = used.setdefault(finding.line, [])
                if finding.code not in bucket:
                    bucket.append(finding.code)
                continue
            kept.append(finding)
        if inventory:
            self.suppressions[context.path] = {
                "inventory": dict(inventory),
                "used": dict(used),
                "text": {
                    line: context.line_text(line).strip()
                    for line in inventory
                },
            }
        return sorted(kept)
