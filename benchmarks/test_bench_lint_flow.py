"""Wall-time gate for a full ``tango-repro lint`` run.

Every invocation runs every rule, the whole-program fork-safety pass
included, and CI runs it on every push, so it must stay interactive:
one full-tree run over ``src/repro`` (parse + per-file rules + extract +
fixpoint + fork model + scenario checks) is gated at 60 s and its time
is printed.
"""

import io
import time
from pathlib import Path

from conftest import emit

from repro.analysis.report import format_table
from repro.lint import run_lint
from repro.lint.engine import LintEngine

REPO_ROOT = Path(__file__).resolve().parents[1]
SRC = str(REPO_ROOT / "src" / "repro")

#: A full-tree lint run must finish within this budget.
GATE_S = 60.0


def test_lint_full_run(benchmark):
    out = io.StringIO()
    elapsed: list[float] = []

    def lint() -> int:
        start = time.perf_counter()
        status = run_lint([SRC], stdout=out, stderr=out)
        elapsed.append(time.perf_counter() - start)
        return status

    assert benchmark.pedantic(lint, rounds=1, iterations=1) == 0, out.getvalue()
    modules = len(list(LintEngine.iter_python_files([SRC])))
    emit(
        format_table(
            [{"pass": "full run", "wall_s": f"{elapsed[0]:.2f}", "modules": str(modules)}],
            title="tango-repro lint wall-clock",
        )
    )
    assert elapsed[0] <= GATE_S, (
        f"full-tree lint took {elapsed[0]:.1f}s (gate: {GATE_S:.0f}s)"
    )
