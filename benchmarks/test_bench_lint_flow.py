"""Wall-time gate for the whole-program lint pass (``--flow``).

The flow pass runs on every CI push, so it must stay interactive: the
cold full-tree analysis (empty cache — parse + extract + fixpoint +
reporting for all of ``src/repro``) is gated at 60 s, and the warm
incremental rerun must re-analyze nothing.  Both timings are printed.
"""

import io
import time
from pathlib import Path

from conftest import emit

from repro.analysis.report import format_table
from repro.lint import run_lint
from repro.lint.engine import LintEngine
from repro.lint.flow import FlowAnalyzer, SummaryCache

REPO_ROOT = Path(__file__).resolve().parents[1]
SRC = str(REPO_ROOT / "src" / "repro")

#: Cold full-tree flow pass must finish within this budget.
COLD_GATE_S = 60.0


def _timed_lint(cache_dir: str) -> tuple[float, int]:
    out = io.StringIO()
    start = time.perf_counter()
    status = run_lint(
        [SRC], flow=True, flow_cache=cache_dir, stdout=out, stderr=out
    )
    elapsed = time.perf_counter() - start
    assert status == 0, out.getvalue()
    return elapsed, status


def test_lint_flow_cold_and_warm(benchmark, tmp_path):
    cache_dir = str(tmp_path / "flow-cache")
    files = list(LintEngine.iter_python_files([SRC]))

    cold_s, _ = _timed_lint(cache_dir)
    warm_s, _ = _timed_lint(cache_dir)

    # The warm pass must be fully incremental: nothing re-analyzed.
    warm = FlowAnalyzer(SummaryCache(cache_dir)).run(files)
    assert warm.analyzed == [], warm.analyzed
    assert len(warm.cached) == len(files)

    # The benchmark fixture times the steady-state (warm) pass.
    benchmark(
        lambda: FlowAnalyzer(SummaryCache(cache_dir)).run(files)
    )

    emit(
        format_table(
            [
                {
                    "pass": "cold (empty cache)",
                    "wall_s": f"{cold_s:.2f}",
                    "modules": str(len(files)),
                },
                {
                    "pass": "warm (full cache)",
                    "wall_s": f"{warm_s:.2f}",
                    "modules": "0 re-analyzed",
                },
            ],
            title="lint --flow wall-clock",
        )
    )

    assert cold_s <= COLD_GATE_S, (
        f"cold full-tree flow pass took {cold_s:.1f}s "
        f"(gate: {COLD_GATE_S:.0f}s)"
    )
