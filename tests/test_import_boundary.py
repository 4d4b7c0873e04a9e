"""The runtime needs no scipy and no numpy.random: in-tree ports, bit
for bit.

The delay models' normal inverse CDF is Cephes ``ndtri`` — the algorithm
``scipy.special.ndtri`` compiles — ported into
``repro.netsim.delaymodels`` in two forms, :func:`ndtri` for one float
and :func:`ndtri_array` for an array.  The topology builders' pair
distances come from :class:`Pcg64Stream`, the part of
``numpy.random.default_rng(seed)`` that ``uniform`` runs (SeedSequence
pooling, PCG64 seeding and XSL-RR output), ported beside it.  scipy and
numpy.random stay test-only oracles: each port must equal its oracle bit
for bit.  The runtime checks run in a fresh interpreter, since the
suite's own process imports both oracles; one of them refuses any
``scipy`` or ``numpy.random`` import outright.
"""

import ast
import json
import math
import os
import re
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.netsim import delaymodels
from repro.netsim.delaymodels import Pcg64Stream, ndtri, ndtri_array
from repro.scenarios import topologies
from tests.test_reachability import REPO, SRC

scipy_ndtri = pytest.importorskip("scipy.special").ndtri

EXP_M2 = math.exp(-2.0)
CLIP = 1e-12


def bits(values) -> list:
    """The IEEE bit patterns of ``values``: equal bits, not ``==``, so a
    signed zero or a NaN's sign counts too."""
    return np.asarray(values, dtype=np.float64).view(np.uint64).tolist()


def assert_all_forms_are_scipys(us) -> None:
    """Scalar form, array form and scipy agree bit for bit on ``us``."""
    us = np.asarray(us, dtype=np.float64)
    expected = bits(scipy_ndtri(us))
    assert bits(ndtri_array(us)) == expected
    assert bits([ndtri(u) for u in us.tolist()]) == expected
    assert all(type(ndtri(u)) is float for u in us.tolist())


def ulps(x: float, n: int) -> list:
    """``x`` and its ``n`` neighbours on either side."""
    out, down, up = [x], x, x
    for _ in range(n):
        down, up = math.nextafter(down, -math.inf), math.nextafter(up, math.inf)
        out += [down, up]
    return out


def generator_draws(words: np.ndarray) -> np.ndarray:
    """What ``_unit_interval`` makes of mixed 64-bit words."""
    return delaymodels._unit_interval(np.asarray(words, dtype=np.uint64))


class TestPortIsScipysNdtri:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=64))
    def test_generator_draws(self, words):
        assert_all_forms_are_scipys(generator_draws(words))

    def test_a_million_generator_draws(self):
        rng = np.random.default_rng(2024)
        words = rng.integers(0, 2**64, size=1_000_000, dtype=np.uint64)
        us = generator_draws(words)
        assert bits(ndtri_array(us)) == bits(scipy_ndtri(us))
        scalar = us[:100_000].tolist()
        assert bits([ndtri(u) for u in scalar]) == bits(scipy_ndtri(scalar))

    @pytest.mark.parametrize(
        "edge", [EXP_M2, 1.0 - EXP_M2], ids=["exp(-2)", "1-exp(-2)"]
    )
    def test_branch_edges_within_three_ulps(self, edge):
        assert_all_forms_are_scipys(ulps(edge, 3))

    def test_both_clip_ends(self):
        assert_all_forms_are_scipys(ulps(CLIP, 2) + ulps(1.0 - CLIP, 2))

    def test_the_far_tail_branch(self):
        """``y < exp(-32)``: ``sqrt(-2 log y) >= 8``, Cephes' second
        tail polynomial, below anything the clipped generator draws."""
        far = [math.exp(-32.0), 1e-15, 1e-100, 1e-300, 5e-324, 1.0 - 2.0**-53]
        assert math.sqrt(-2.0 * math.log(1e-15)) >= 8.0
        assert_all_forms_are_scipys(ulps(math.exp(-32.0), 2) + far)

    def test_ends_and_outside_the_domain(self):
        specials = [0.0, -0.0, 1.0, -1e-300, 1.0 + 2.0**-52, 2.0, -math.inf,
                    math.inf, math.nan, -math.nan]
        assert_all_forms_are_scipys(specials)
        assert ndtri(0.0) == -math.inf and ndtri(1.0) == math.inf
        assert all(math.isnan(ndtri(u)) for u in (-1.0, 2.0, math.nan))

    def test_the_array_form_keeps_shape(self):
        us = generator_draws(np.arange(24, dtype=np.uint64) * 0x9E3779B97F4A7C15)
        grid = us.reshape(4, 6)
        assert ndtri_array(grid).shape == (4, 6)
        assert bits(ndtri_array(grid).ravel()) == bits(ndtri_array(us))


def assert_stream_is_numpys(seed, low=0.0, high=8.0, draws=64) -> None:
    """``draws`` uniforms of :class:`Pcg64Stream` and of numpy's
    ``default_rng`` agree bit for bit."""
    ours, theirs = Pcg64Stream(seed), np.random.default_rng(seed)
    drawn = [ours.uniform(low, high) for _ in range(draws)]
    assert all(type(x) is float for x in drawn)
    assert bits(drawn) == bits([theirs.uniform(low, high) for _ in range(draws)])


#: One to five 32-bit entropy words and past them (SeedSequence mixes
#: words beyond its pool of four in a loop of their own), and each
#: word boundary.
EDGE_SEEDS = [0, 1, 42, 7, 2**32 - 1, 2**32, 2**64 - 1, 2**64 + 5,
              2**127 + 3, 2**128 - 1, 2**128, 2**200 + 9]


class TestStreamIsNumpysDefaultRng:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(
        st.integers(0, 2**128),
        st.floats(-1e6, 1e6),
        st.floats(0.0, 1e6),
    )
    def test_any_seed_and_range(self, seed, low, width):
        assert_stream_is_numpys(seed, low, low + width, draws=60)

    @pytest.mark.parametrize("seed", EDGE_SEEDS)
    def test_edge_seeds(self, seed):
        assert_stream_is_numpys(seed, draws=200)

    def test_a_numpy_int_seeds_as_the_int(self):
        assert_stream_is_numpys(np.int64(7))

    def test_a_federation_draws_what_default_rng_drew(self, monkeypatch):
        """The E20 federations at seeds 42 and 7: every pair distance is
        the one numpy's ``default_rng`` draws in the builder's place."""
        built = {
            seed: topologies.build_live_federation(8, seed=seed).pair_distance_ms
            for seed in (42, 7)
        }
        monkeypatch.setattr(topologies, "Pcg64Stream", np.random.default_rng)
        for seed, ours in built.items():
            theirs = topologies.build_live_federation(8, seed=seed).pair_distance_ms
            assert len(ours) == 28
            assert list(ours) == list(theirs)
            assert bits(list(ours.values())) == bits(list(theirs.values()))


#: ``u`` at the two clip edges, at ``exp(-2)`` from either end, and 0.5.
EDGE_US = "[1e-12, 1.0 - 1e-12, math.exp(-2.0), 1.0 - math.exp(-2.0), 0.5]"


def fresh(script: str) -> dict:
    """Run ``script`` in a new interpreter; it prints one JSON object."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(REPO / "src"), str(REPO), env.get("PYTHONPATH", "")]
    )
    done = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        cwd=REPO,
        env=env,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def test_establishing_a_federation_never_imports_scipy():
    out = fresh(
        """
import json, sys
import repro.cli, repro.federation, repro.scenarios.topologies
from repro.federation import FederationRegistry
from repro.scenarios.topologies import build_live_federation
registry = FederationRegistry(build_live_federation(4, seed=42))
registry.establish()
print(json.dumps({
    "sessions": len(registry.sessions),
    "scipy": sorted(m for m in sys.modules if m.split(".")[0] == "scipy"),
}))
"""
    )
    assert out == {"sessions": 6, "scipy": []}


#: Each entry point's draw, fed ``us`` by replacing the uniform it would
#: hash, as a list of floats.
FIRST_DRAWS = {
    "deterministic_normal": """
delaymodels.deterministic_uniform = lambda seed, times: np.array(us)
drawn = delaymodels.deterministic_normal(7, np.zeros(len(us))).tolist()
""",
    "normal_grid": """
delaymodels._unit_interval = lambda mixed: np.array(us)[:, None]
seeds = delaymodels.hash_seeds([7])
drawn = delaymodels.normal_grid(seeds, np.zeros(len(us)))[:, 0].tolist()
""",
    "normal_at": """
drawn = []
for u in us:
    delaymodels.uniform_at = lambda seed, t, u=u: u
    drawn.append(delaymodels.normal_at(7, 0.0))
""",
    "GaussianJitterDelay.delay_at": """
model = delaymodels.GaussianJitterDelay(base=100.0, sigma=1.25, seed=7)
drawn = []
for k, u in enumerate(us):
    delaymodels._uniform_hashed = lambda hashed, index, u=u: u
    drawn.append(model.delay_at(k * 1e-3))  # a new grid index each time
""",
}

#: scipy's values for the same ``us``, computed after the draw.
EXPECTED = {
    "GaussianJitterDelay.delay_at": (
        "[100.0 + float(scipy_ndtri(u)) * 1.25 for u in us]"
    ),
}


@pytest.mark.parametrize("entry", sorted(FIRST_DRAWS))
def test_the_first_draw_is_scipys_ndtri_bit_for_bit(entry):
    """A fresh process's first draw through each entry point loads no
    scipy and equals scipy's own value at the branch and clip edges."""
    expected = EXPECTED.get(entry, "[float(scipy_ndtri(u)) for u in us]")
    out = fresh(
        f"""
import json, math, sys
import numpy as np
from repro.netsim import delaymodels
us = {EDGE_US}
{FIRST_DRAWS[entry]}
loaded = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
from scipy.special import ndtri as scipy_ndtri
expected = {expected}
print(json.dumps({{
    "loaded": loaded,
    "drawn": [x.hex() for x in drawn],
    "expected": [x.hex() for x in expected],
}}))
"""
    )
    assert out["loaded"] == []
    assert len(out["drawn"]) == 5
    assert out["drawn"] == out["expected"]


#: The four spine workloads, in ``bench.workloads``.
SPINE = [
    "chaos_replay",
    "federation_establish",
    "federation_live",
    "fluid_many_tunnels",
]


@pytest.fixture(scope="module")
def refused_run() -> dict:
    """One fresh interpreter whose ``sys.meta_path`` finder refuses every
    ``scipy`` and ``numpy.random`` import: a draw through each of the four
    entry points, one smoke pass of each spine workload and the federation
    builder, with what was tried and what was loaded."""
    return fresh(
        f"""
import importlib.abc, json, sys

tried = []

def refused(name):
    return name.split(".")[0] == "scipy" or (
        name == "numpy.random" or name.startswith("numpy.random.")
    )

class Refuse(importlib.abc.MetaPathFinder):
    def find_spec(self, name, path, target=None):
        if refused(name):
            tried.append(name)
            raise ImportError(f"refused: {{name}}")
        return None

sys.meta_path.insert(0, Refuse())
import numpy as np
from repro.netsim import delaymodels
from repro.scenarios.topologies import build_live_federation
from bench.runner import run_workload

times = np.arange(8) * 1e-3
draws = {{
    "deterministic_normal": delaymodels.deterministic_normal(7, times).tolist(),
    "normal_grid": delaymodels.normal_grid(
        delaymodels.hash_seeds([7]), times
    )[:, 0].tolist(),
    "normal_at": [delaymodels.normal_at(7, t) for t in times.tolist()],
    "delay_at": [
        delaymodels.GaussianJitterDelay(base=100.0, sigma=1.0, seed=7).delay_at(t)
        for t in times.tolist()
    ],
}}
fail_share = {{
    name: run_workload(
        name, 42, 0.0, end_to_end=True, traced=False, smoke=True, import_s=0.0
    )["end_to_end"]["fail_share"]["value"]
    for name in {SPINE!r}
}}
built = {{
    "live": len(build_live_federation(8, seed=7).pair_distance_ms),
}}
print(json.dumps({{
    "tried": tried,
    "loaded": sorted(m for m in sys.modules if refused(m)),
    "draws": draws,
    "fail_share": fail_share,
    "built": built,
}}))
"""
    )


def test_the_runtime_runs_with_scipy_refused(refused_run):
    """A draw through each of the four entry points and one smoke pass of
    each spine workload run, pass their output checks, and neither
    import nor try to import scipy."""
    out = refused_run
    assert out["tried"] == [] and out["loaded"] == []
    draws = out["draws"]
    assert len(draws["normal_at"]) == 8
    # All four entry points draw the same stream: seed 7 at the same times.
    assert draws["deterministic_normal"] == draws["normal_grid"]
    assert draws["normal_grid"] == draws["normal_at"]
    assert draws["delay_at"] == [100.0 + x for x in draws["normal_at"]]
    assert out["fail_share"] == {name: 0.0 for name in SPINE}


def test_the_spine_and_the_builders_run_with_numpy_random_refused(refused_run):
    """The four spine workloads pass their smoke checks and the federation
    builder builds (28 pairs of 8 members) with ``numpy.random`` refused,
    and nothing tried to import it."""
    out = refused_run
    assert out["tried"] == [] and out["loaded"] == []
    assert out["fail_share"] == {name: 0.0 for name in SPINE}
    assert out["built"] == {"live": 28}


def scipy_imports(path) -> list:
    """``(line, module)`` of every import of ``scipy`` in one file."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module or ""]
        elif (
            isinstance(node, ast.Call)
            and getattr(node.func, "attr", getattr(node.func, "id", None))
            in ("import_module", "__import__")
            and node.args
            and isinstance(node.args[0], ast.Constant)
        ):
            names = [str(node.args[0].value)]
        else:
            continue
        found += [(node.lineno, n) for n in names if n.split(".")[0] == "scipy"]
    return sorted(found)


def test_no_module_under_src_repro_imports_scipy():
    found = {
        str(path.relative_to(REPO)): hits
        for path in sorted((SRC / "repro").rglob("*.py"))
        if (hits := scipy_imports(path))
    }
    assert not found, f"scipy imported under src/repro: {found}"


def test_the_import_walk_sees_every_form_of_import(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "import scipy\n"
        "import numpy, scipy.special as sp\n"
        "from scipy.special import ndtri\n"
        "def f():\n"
        "    from scipy import stats\n"
        "    return importlib.import_module('scipy.linalg')\n"
        "from .scipy import x\n",
        encoding="utf-8",
    )
    assert [n for _, n in scipy_imports(probe)] == [
        "scipy", "scipy.special", "scipy.special", "scipy", "scipy.linalg"
    ]


#: Where ``numpy.random`` may be named under ``src/repro``: the campaign
#: plans draw ``choice`` and bounded ints in E17/E18 worker processes,
#: outside the spine, and the lint names numpy's constructors in its
#: tables.
NUMPY_RANDOM_ALLOWED = ("repro/campaign/", "repro/lint/rules.py",
                        "repro/lint/flow/evaluate.py")


#: A string that is a dotted name under ``numpy.random``.
NUMPY_RANDOM_NAME = re.compile(r"(np|numpy)\.random(\.\w+)*")


def numpy_random_refs(path) -> list:
    """``(line, text)`` of every reference to ``numpy.random`` in one
    file: an import of it or from it, ``np.random`` through any alias of
    numpy, and a string that is its dotted name (``import_module``'s
    argument, a name table's entry)."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    aliases = {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.Import)
        for alias in node.names
        if alias.name == "numpy"
    }

    def is_it(name: str) -> bool:
        return name == "numpy.random" or name.startswith("numpy.random.")

    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names if is_it(alias.name)]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            module = node.module or ""
            names = [module] if is_it(module) else [
                f"{module}.{alias.name}" for alias in node.names
                if is_it(f"{module}.{alias.name}")
            ]
        elif (
            isinstance(node, ast.Attribute)
            and node.attr == "random"
            and isinstance(node.value, ast.Name)
            and node.value.id in aliases
        ):
            names = [f"{node.value.id}.random"]
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names = [node.value] if NUMPY_RANDOM_NAME.fullmatch(node.value) else []
        else:
            continue
        found += [(node.lineno, n) for n in names]
    return sorted(found)


def test_no_spine_module_names_numpy_random():
    found = {}
    for path in sorted((SRC / "repro").rglob("*.py")):
        where = str(path.relative_to(SRC))
        if not where.startswith(NUMPY_RANDOM_ALLOWED):
            if hits := numpy_random_refs(path):
                found[where] = hits
    assert not found, f"numpy.random named under src/repro: {found}"


def test_the_numpy_random_walk_sees_every_form(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "import numpy as np, numpy.random\n"
        "import numpy\n"
        "from numpy.random import default_rng\n"
        "from numpy import random, mean\n"
        "def f(rng: np.random.Generator):\n"
        "    return numpy.random.default_rng(importlib.import_module('numpy.random'))\n"
        "TABLE = {'np.random.PCG64', 'a numpy.random stream', 'numpy.randomize'}\n"
        "from .numpy.random import x\n"
        "other.random()\n",
        encoding="utf-8",
    )
    assert numpy_random_refs(probe) == [
        (1, "numpy.random"),
        (3, "numpy.random"),
        (4, "numpy.random"),
        (5, "np.random"),
        (6, "numpy.random"),
        (6, "numpy.random"),
        (7, "np.random.PCG64"),
    ]
