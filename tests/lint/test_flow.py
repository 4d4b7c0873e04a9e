"""The whole-program flow pass: extraction, call graph, fork safety.

Fixtures are miniature packages written to ``tmp_path`` — each test
builds the smallest project exhibiting one cross-module property the
per-file rules cannot see.
"""

import ast
import io
from pathlib import Path

from repro.lint import run_lint
from repro.lint.engine import FileContext, LintEngine
from repro.lint.flow import (
    ProjectGraph,
    analyze_project,
    extract_module,
    module_name_for,
)

REPO_ROOT = Path(__file__).resolve().parents[2]
SRC = str(REPO_ROOT / "src" / "repro")


def write_project(tmp_path: Path, files: dict) -> Path:
    root = tmp_path / "proj"
    root.mkdir(exist_ok=True)
    (root / "__init__.py").write_text(files.pop("__init__.py", ""))
    for name, source in files.items():
        target = root / name
        target.parent.mkdir(parents=True, exist_ok=True)
        if target.parent != root and not (target.parent / "__init__.py").exists():
            (target.parent / "__init__.py").write_text("")
        target.write_text(source)
    return root


def analyze(root: Path) -> list:
    """Every unsuppressed flow finding under ``root``, sorted."""
    by_path = analyze_project(list(LintEngine.iter_python_files([str(root)])))
    return sorted(f for findings in by_path.values() for f in findings)


def codes(findings) -> list:
    return sorted(f.code for f in findings)


class TestExtraction:
    def test_module_name_walks_packages(self, tmp_path):
        root = write_project(tmp_path, {"sub/leaf.py": "x = 1\n"})
        assert module_name_for(str(root / "sub" / "leaf.py")) == "proj.sub.leaf"
        assert module_name_for(str(root / "__init__.py")) == "proj"

    def test_exports_follow_reexports(self, tmp_path):
        root = write_project(
            tmp_path,
            {
                "__init__.py": "from .clock import stamp\n",
                "clock.py": "def stamp():\n    return 0\n",
            },
        )
        summary = extract_module(str(root / "__init__.py"))
        assert summary.exports["stamp"] == "proj.clock.stamp"

    def test_noqa_in_docstring_is_not_inventory(self):
        source = (
            '"""Shows the syntax: # tango: noqa[TNG001]."""\n'
            "x = 1  # tango: noqa[TNG001]\n"
        )
        context = FileContext("doc.py", source, ast.parse(source))
        assert context.noqa_inventory() == {2: ["TNG001"]}


class TestCallGraph:
    def build(self, tmp_path, files):
        root = write_project(tmp_path, files)
        paths = LintEngine.iter_python_files([str(root)])
        return ProjectGraph(extract_module(p) for p in paths)

    def test_resolve_through_reexport_facade(self, tmp_path):
        graph = self.build(
            tmp_path,
            {
                "__init__.py": "from .clock import stamp\n",
                "clock.py": "def stamp():\n    return 0\n",
            },
        )
        assert graph.resolve("proj.stamp") == ("func", "proj.clock.stamp")
        assert graph.resolve("proj.clock.stamp") == ("func", "proj.clock.stamp")
        assert graph.resolve("os.path.join") is None

    def test_import_cycle_does_not_diverge(self, tmp_path):
        root = write_project(
            tmp_path,
            {
                "a.py": "from proj import b\n\ndef fa():\n    return b.fb()\n",
                "b.py": "def fb():\n    from proj import a\n    return a.fa()\n",
            },
        )
        assert analyze(root) == []


FORK_FIXTURE = {
    "work.py": (
        "import numpy as np\n\n"
        "_registry = {}\n\n\n"
        "def work(args):\n"
        '    scale = _registry.get("scale", 1.0)\n'
        "    rng = np.random.default_rng(42)\n"
        "    return rng.uniform() * scale\n"
    ),
    "launch.py": (
        "from concurrent.futures import ProcessPoolExecutor\n\n"
        "import numpy as np\n\n"
        "from proj.work import work\n\n\n"
        "def launch(payloads):\n"
        "    rng = np.random.default_rng(123)\n"
        "    pool = ProcessPoolExecutor(2)\n"
        "    return pool.submit(work, (payloads, rng))\n"
    ),
}


def fork_fixture_with_noqa() -> dict:
    """FORK_FIXTURE with a ``# tango: noqa`` on each hazard's own line."""
    files = dict(FORK_FIXTURE)
    for name, line_text, code in (
        ("work.py", "_registry = {}", "TNG301"),
        ("work.py", "rng = np.random.default_rng(42)", "TNG303"),
        ("launch.py", "return pool.submit(work, (payloads, rng))", "TNG302"),
    ):
        assert line_text in files[name]
        files[name] = files[name].replace(
            line_text, f"{line_text}  # tango: noqa[{code}]"
        )
    return files


class TestForkSafety:
    def test_fork_fixture_trips_all_three_rules(self, tmp_path):
        root = write_project(tmp_path, dict(FORK_FIXTURE))
        findings = analyze(root)
        assert codes(findings) == ["TNG301", "TNG302", "TNG303"]
        # Each finding sits where its hazard is written.
        assert {f.code: (Path(f.path).name, f.line) for f in findings} == {
            "TNG301": ("work.py", 3),  # _registry = {}
            "TNG302": ("launch.py", 11),  # pool.submit(work, (..., rng))
            "TNG303": ("work.py", 8),  # default_rng(42) in the worker
        }
        by_code = {f.code: f for f in findings}
        assert "_registry" in by_code["TNG301"].message
        assert "fork boundary" in by_code["TNG301"].message
        assert "RNG" in by_code["TNG302"].message
        assert "SeedSequence" in by_code["TNG303"].message

    def test_fork_findings_are_suppressible(self, tmp_path):
        root = write_project(tmp_path, fork_fixture_with_noqa())
        status, out, _ = run(
            [str(root)], semantics=False, select="TNG301,TNG302,TNG303"
        )
        assert status == 0, out

    def test_entry_resolved_through_param_passing(self, tmp_path):
        # run() forwards the worker through an _execute-style helper, so
        # the fork site only resolves interprocedurally.
        root = write_project(
            tmp_path,
            {
                "w.py": (
                    "_state = []\n\n\n"
                    "def work(args):\n    return len(_state)\n"
                ),
                "exe.py": (
                    "from concurrent.futures import ProcessPoolExecutor\n\n\n"
                    "def execute(worker, payloads):\n"
                    "    pool = ProcessPoolExecutor(2)\n"
                    "    return [pool.submit(worker, p) for p in payloads]\n"
                ),
                "run.py": (
                    "from proj.exe import execute\n"
                    "from proj.w import work\n\n\n"
                    "def run(payloads):\n"
                    "    return execute(work, payloads)\n"
                ),
            },
        )
        trips = [f for f in analyze(root) if f.code == "TNG301"]
        assert len(trips) == 1, trips
        assert trips[0].path.endswith("w.py") and trips[0].line == 1
        assert "_state" in trips[0].message
        assert "run -> proj.exe.execute -> fork boundary" in trips[0].message

    def test_justified_seam_masks_only_itself(self, tmp_path):
        # One global is a deliberate seam with a justified noqa; a second
        # global the worker reads must still be reported, once, however
        # many fork sites reach it.
        root = write_project(
            tmp_path,
            {
                "w.py": (
                    "_hook = None  # tango: noqa[TNG301]\n"
                    "_table = {'a': 1}\n\n\n"
                    "def work(args):\n"
                    "    if _hook is not None:\n"
                    "        _hook(args)\n"
                    "    return _table['a']\n"
                ),
                "run.py": (
                    "from concurrent.futures import ProcessPoolExecutor\n\n"
                    "from proj.w import work\n\n\n"
                    "def run(payloads):\n"
                    "    pool = ProcessPoolExecutor(2)\n"
                    "    first = pool.submit(work, payloads[0])\n"
                    "    return first, pool.submit(work, payloads[1])\n"
                ),
            },
        )
        status, out, _ = run([str(root)], semantics=False)
        assert status == 1
        assert f"{root / 'w.py'}:2: TNG301" in out
        assert "1 finding(s)" in out, out


def run(paths, **kwargs):
    out, err = io.StringIO(), io.StringIO()
    status = run_lint(paths, stdout=out, stderr=err, **kwargs)
    return status, out.getvalue(), err.getvalue()


class TestRunnerIntegration:
    def test_committed_tree_flow_clean(self):
        status, out, err = run(
            [SRC], select="TNG202,TNG301,TNG302,TNG303", semantics=False
        )
        assert status == 0, out + err
        # The one justified fork-boundary seam is acknowledged where it
        # is bound, not at the fork sites that reach it.
        seams = [
            (path.name, line.split(":")[0])
            for path in Path(SRC).rglob("*.py")
            for line in path.read_text(encoding="utf-8").splitlines()
            if "tango: noqa[TNG301]" in line and not line.lstrip().startswith('"')
        ]
        assert seams == [("runner.py", "_shard_crash_hook")]

    def test_flow_findings_reach_the_report(self, tmp_path):
        root = write_project(tmp_path, dict(FORK_FIXTURE))
        status, out, _ = run([str(root)], semantics=False)
        assert status == 1
        assert "TNG301" in out and "TNG302" in out and "TNG303" in out

    def test_select_restricts_flow_codes(self, tmp_path):
        root = write_project(tmp_path, dict(FORK_FIXTURE))
        status, out, _ = run([str(root)], semantics=False, select="TNG302")
        assert status == 1
        assert "TNG302" in out
        assert "TNG301" not in out and "TNG303" not in out

    def test_baseline_round_trip_for_flow_findings(self, tmp_path):
        root = write_project(tmp_path, dict(FORK_FIXTURE))
        baseline = tmp_path / "baseline.json"
        status, _, _ = run(
            [str(root)], semantics=False, write_baseline=str(baseline)
        )
        assert status == 0
        status, out, _ = run(
            [str(root)], semantics=False, baseline_path=str(baseline)
        )
        assert status == 0, out


class TestUnusedSuppression:
    def test_dead_noqa_is_flagged(self, tmp_path):
        root = write_project(
            tmp_path,
            {"m.py": "x = 1  # tango: noqa[TNG001]\n"},
        )
        status, out, _ = run([str(root)], semantics=False)
        assert status == 1
        assert "TNG007" in out
        assert "TNG001" in out

    def test_used_noqa_is_not_flagged(self, tmp_path):
        root = write_project(
            tmp_path,
            {
                "m.py": (
                    "import time\n\n"
                    "T = time.time()  # tango: noqa[TNG001]\n"
                ),
            },
        )
        status, out, _ = run([str(root)], semantics=False)
        assert status == 0, out

    def test_dead_flow_code_noqa_is_flagged(self, tmp_path):
        root = write_project(
            tmp_path,
            {"m.py": "x = 1  # tango: noqa[TNG301]\n"},
        )
        status, out, _ = run([str(root)], semantics=False)
        assert status == 1
        assert "TNG007" in out

    def test_dead_blanket_noqa_is_flagged(self, tmp_path):
        root = write_project(
            tmp_path,
            {"m.py": "x = 1  # tango: noqa\n"},
        )
        status, out, _ = run([str(root)], semantics=False)
        assert status == 1
        assert "blanket" in out

    def test_used_flow_noqa_survives_the_audit(self, tmp_path):
        root = write_project(tmp_path, fork_fixture_with_noqa())
        status, out, _ = run([str(root)], semantics=False)
        assert status == 0, out

    def test_tng007_cannot_be_self_suppressed(self, tmp_path):
        root = write_project(
            tmp_path,
            {"m.py": "x = 1  # tango: noqa[TNG001,TNG007]\n"},
        )
        status, out, _ = run([str(root)], semantics=False)
        assert status == 1
        assert "TNG007" in out
