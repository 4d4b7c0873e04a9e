"""Reporters: findings -> text for humans, JSON for machines."""

from __future__ import annotations

import json
from collections import Counter
from typing import Any, Sequence

from .findings import Finding

__all__ = ["render_text", "render_json"]


def render_text(findings: Sequence[Finding], checked_files: int = 0) -> str:
    """flake8-style ``path:line:col: CODE message`` lines plus a summary."""
    lines = [finding.render() for finding in findings]
    if findings:
        by_code = Counter(finding.code for finding in findings)
        breakdown = ", ".join(
            f"{code} x{count}" for code, count in sorted(by_code.items())
        )
        lines.append(
            f"{len(findings)} finding(s) in {checked_files} file(s): {breakdown}"
        )
    else:
        lines.append(f"clean: 0 findings in {checked_files} file(s)")
    return "\n".join(lines) + "\n"


def render_json(findings: Sequence[Finding], checked_files: int = 0) -> str:
    """Machine-readable report (stable key order, trailing newline)."""
    payload: dict[str, Any] = {
        "checked_files": checked_files,
        "finding_count": len(findings),
        "findings": [finding.as_dict() for finding in findings],
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"
