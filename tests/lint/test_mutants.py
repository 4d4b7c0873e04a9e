"""The hazard corpus: every hazard the linter claims, seeded and caught.

Each row seeds one hazard into a small project — or into a copy of the
real ``src/repro`` where the hazard only shows against the real tree —
and names the exact set of codes ``tango-repro lint`` must report for it.
A row no longer caught is a hole; a rule no row needs has nothing to show
for its lines (``test_every_rule_catches_a_row``).  The Gao–Rexford
scenario rules TNG101–TNG104 take topologies, not source, and their
mutants are the fixtures of ``test_gao_rexford.py``.
"""

import io
import json
import shutil
from pathlib import Path

import pytest

from repro.lint import run_lint

REPO_ROOT = Path(__file__).resolve().parents[2]
SRC = REPO_ROOT / "src" / "repro"


def lint_codes(paths, **kwargs) -> set:
    out = io.StringIO()
    run_lint(
        [str(p) for p in paths], fmt="json", semantics=False,
        stdout=out, stderr=out, **kwargs,
    )
    return {f["code"] for f in json.loads(out.getvalue())["findings"]}


def link_module(imports: str, latency: str, extra: str = "") -> str:
    """A link whose ``transmit`` schedules delivery after ``latency``."""
    return (
        f"{imports}\n\n{extra}\n\n"
        "class Link:\n"
        "    def transmit(self, sim, packet):\n"
        f"        latency = {latency}\n"
        "        sim.schedule_in(latency, packet)\n"
    )


def worker_project(
    work_body: str, submit_args: str = "(payload,)", state: str = ""
) -> dict:
    """A campaign-shaped project: ``run`` forks ``work`` per payload."""
    return {
        "work.py": (
            f"import numpy as np\n\n{state}\n\n"
            "def work(args):\n"
            f"{work_body}"
        ),
        "run.py": (
            "from concurrent.futures import ProcessPoolExecutor\n\n"
            "import numpy as np\n\n"
            "from proj.work import work\n\n\n"
            "def run(payloads, seed):\n"
            "    rng = np.random.default_rng(seed)\n"
            "    pool = ProcessPoolExecutor(2)\n"
            f"    return [pool.submit(work, {submit_args}) for payload in payloads]\n"
        ),
    }


#: name -> (files of one package ``proj``, expected codes)
PROJECT_ROWS = {
    "wallclock-in-latency": (
        {"link.py": link_module("import time", "0.01 + time.time() % 1e-3")},
        {"TNG001"},
    ),
    "wallclock-helper-chain": (
        {
            "clock.py": "import time\n\n\ndef stamp():\n    return time.time()\n",
            "engine.py": (
                "from proj.clock import stamp\n\n\n"
                "def drive(sim):\n"
                "    sim.schedule_at(stamp(), None)\n"
            ),
        },
        {"TNG001"},
    ),
    "wallclock-called-default": (
        {
            "jit.py": (
                "import time\n\n\n"
                "def jitter(delay=time.time()):\n"
                "    return delay\n\n\n"
                "def drive(sim):\n"
                "    sim.schedule_at(jitter(), None)\n"
            ),
        },
        {"TNG001"},
    ),
    "wallclock-method-dispatch": (
        {
            "disp.py": (
                "import time\n\n\n"
                "class Clock:\n"
                "    def now(self):\n"
                "        return time.time()\n\n\n"
                "def use(sim):\n"
                "    c = Clock()\n"
                "    sim.schedule_at(c.now(), None)\n"
            ),
        },
        {"TNG001"},
    ),
    "wallclock-report-output": (
        {
            "rep.py": (
                "import json\nimport time\n\n\n"
                "def report():\n"
                '    payload = {"t": time.time()}\n'
                "    return json.dumps(payload)\n"
            ),
        },
        {"TNG001"},
    ),
    "urandom-in-latency": (
        {
            "link.py": link_module(
                "import os", '0.01 + int.from_bytes(os.urandom(2), "big") * 1e-9'
            )
        },
        {"TNG004"},
    ),
    "environ-in-latency": (
        {
            "link.py": link_module(
                "import os", '0.01 + float(os.environ.get("EXTRA_S", "0"))'
            )
        },
        {"TNG004"},
    ),
    "unseeded-rng-draw": (
        {
            "link.py": link_module(
                "import numpy as np", "0.01 + np.random.default_rng().uniform()"
            )
        },
        {"TNG002"},
    ),
    "unseeded-global-rng-across-modules": (
        {
            "randsrc.py": (
                "import numpy as np\n\n"
                "GEN = np.random.default_rng()\n\n\n"
                "def draw():\n    return GEN.uniform()\n"
            ),
            "consume.py": (
                "from proj.randsrc import draw\n\n\n"
                "def feed(store):\n    store.record(draw())\n"
            ),
        },
        {"TNG002", "TNG202"},
    ),
    "unseeded-in-tree-stream-across-modules": (
        {
            "randsrc.py": (
                "from repro.netsim.delaymodels import Pcg64Stream\n\n"
                "GEN = Pcg64Stream()\n\n\n"
                "def draw():\n    return GEN.uniform(0.0, 8.0)\n"
            ),
            "consume.py": (
                "from proj.randsrc import draw\n\n\n"
                "def feed(store):\n    store.record(draw())\n"
            ),
        },
        {"TNG002", "TNG202"},
    ),
    "process-global-rng-draws": (
        {
            "link.py": link_module(
                "import random\n\nimport numpy as np",
                "random.random() * 1e-3 + np.random.rand() * 1e-3",
            )
        },
        {"TNG003"},
    ),
    "seeded-global-rng": (
        {
            "link.py": link_module(
                "import numpy as np",
                "0.01 + _RNG.uniform()",
                extra="_RNG = np.random.default_rng(7)",
            )
        },
        {"TNG202"},
    ),
    "seeded-rng-draw-clean": (
        {
            "ok.py": (
                "import numpy as np\n\n\n"
                "def drive(sim, seed):\n"
                "    rng = np.random.default_rng(seed)\n"
                "    sim.schedule_at(rng.uniform(), None)\n"
            ),
        },
        set(),
    ),
    "constant-seed-in-worker": (
        worker_project(
            "    rng = np.random.default_rng(1234)\n"
            "    return rng.uniform()\n"
        ),
        {"TNG303"},
    ),
    "rng-shipped-to-worker": (
        worker_project("    return len(args)\n", submit_args="(payload, rng)"),
        {"TNG302"},
    ),
    "mutable-global-in-worker": (
        worker_project(
            "    return _TABLE['a'] * len(args)\n", state="_TABLE = {'a': 1}"
        ),
        {"TNG301"},
    ),
    "set-iteration-order": (
        {"order.py": "def order(xs):\n    return [x for x in set(xs)]\n"},
        {"TNG005"},
    ),
    "mutable-default-argument": (
        {"acc.py": "def add(x, acc=[]):\n    acc.append(x)\n    return acc\n"},
        {"TNG006"},
    ),
    "noqa-silencing-nothing": (
        {"m.py": "x = 1  # tango: noqa[TNG001]\n"},
        {"TNG007"},
    ),
    "unparsable-file": ({"broken.py": "def broken(:\n"}, {"TNG000"}),
}


@pytest.mark.parametrize("name", sorted(PROJECT_ROWS))
def test_project_row(name, tmp_path):
    files, expected = PROJECT_ROWS[name]
    root = tmp_path / "proj"
    root.mkdir()
    (root / "__init__.py").write_text("")
    for filename, source in files.items():
        (root / filename).write_text(source)
    assert lint_codes([root]) == expected


#: name -> (file under src/repro, [(old, new) edits], expected codes).
#: These hazards only show against the real tree: a fork boundary whose
#: one justified seam must not mask a second global, a clock held as a
#: value in the packet path, and an in-tree generator reached through a
#: relative import (``from ..netsim.delaymodels import Pcg64Stream``).
REAL_TREE_ROWS = {
    "unseeded-in-tree-stream-relative-import": (
        "scenarios/topologies.py",
        [("    rng = Pcg64Stream(seed)\n", "    rng = Pcg64Stream()\n")],
        {"TNG002"},
    ),
    "campaign-worker-second-global": (
        "campaign/runner.py",
        [
            (
                "def _worker(args: tuple[dict, CampaignConfig]) -> dict:\n"
                "    payload, config = args\n",
                '_TABLE = {"a": 1}\n\n\n'
                "def _worker(args: tuple[dict, CampaignConfig]) -> dict:\n"
                "    payload, config = args\n"
                '    payload = {**payload, "scale": _TABLE["a"]}\n',
            )
        ],
        {"TNG301"},
    ),
    "links-clock-default-argument": (
        "netsim/links.py",
        [
            ("import math\n", "import math\nimport time\n"),
            (
                'def transmit(self, sim: "Simulator", packet: Packet) -> bool:',
                'def transmit(self, sim: "Simulator", packet: Packet, '
                "clock=time.perf_counter) -> bool:",
            ),
            (
                "        latency = self.delay.delay_at(now)\n",
                "        latency = self.delay.delay_at(now) + clock() % 1e-6\n",
            ),
        ],
        {"TNG001"},
    ),
}


@pytest.mark.parametrize("name", sorted(REAL_TREE_ROWS))
def test_real_tree_row(name, tmp_path):
    relpath, edits, expected = REAL_TREE_ROWS[name]
    copy = tmp_path / "repro"
    shutil.copytree(SRC, copy, ignore=shutil.ignore_patterns("__pycache__"))
    target = copy / relpath
    text = target.read_text(encoding="utf-8")
    for old, new in edits:
        assert text.count(old) == 1, old
        text = text.replace(old, new)
    target.write_text(text, encoding="utf-8")
    assert lint_codes([copy]) == expected


def test_plan_row(tmp_path):
    """A plan whose loss rate no link accepts is refused before a run."""
    plan = tmp_path / "plan.json"
    event = {"kind": "loss_burst", "at": 1.0, "duration": 1.0, "src": "ny",
             "path": "GTT", "rate": 3}
    plan.write_text(json.dumps({"name": "bad", "events": [event]}))
    assert lint_codes([], plan_paths=[str(plan)]) == {"TNG105"}


def test_every_rule_catches_a_row(capsys):
    from repro.cli import main

    main(["lint", "--list-rules"])
    listed = {line.split()[0] for line in capsys.readouterr().out.splitlines()}
    caught = {"TNG105"}
    for _, expected in PROJECT_ROWS.values():
        caught |= expected
    for _, _, expected in REAL_TREE_ROWS.values():
        caught |= expected
    scenario_rules = {"TNG101", "TNG102", "TNG103", "TNG104"}
    assert listed - scenario_rules == caught
