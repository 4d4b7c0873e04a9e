"""``src/repro`` holds only what the product runs.

The product is ``src/repro`` itself plus everything that drives it
outside the test suite: ``bench/``, ``benchmarks/``, ``examples/`` and
the console scripts ``pyproject.toml`` installs.  Three rules, checked
on the syntax trees alone:

(a) every module under ``src/repro`` is imported by a product file — a
    package ``__init__`` importing from its own package is a re-export,
    not a use, and ``from repro.pkg import name`` counts for the module
    ``pkg/__init__`` took ``name`` from;
(b) every public top-level ``def`` / ``class`` is named by a product
    file somewhere other than its own ``def`` line, ``__all__`` and such
    re-exports;
(c) every public method or property defined directly in a top-level
    class is named by a product file the same way — as an attribute, a
    bare name, or the literal second argument of ``getattr`` /
    ``hasattr`` (how duck-typed hooks such as ``split_weights`` are
    found); ``visit_*`` methods are dispatched by node type and exempt.
    The match is by name, not by receiver: it finds what nothing calls,
    and cannot tell two classes' ``start`` apart.

Code only tests reach is deleted with those tests or wired into the
experiment that should run it; what must stay anyway goes in
``EXCEPTIONS`` with the reason, and an entry that no longer applies
fails too.
"""

import ast
import functools
import re
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
SRC = REPO / "src"
PRODUCT_DIRS = (SRC / "repro", REPO / "bench", REPO / "benchmarks", REPO / "examples")

#: qualified name -> why it stays although no product file uses it.
EXCEPTIONS = {
    "repro.telemetry.quantiles": (
        "ROADMAP's campaign-at-size item names the P2 estimator as its "
        "streaming p50/p99; it is wired in there"
    ),
    "repro.telemetry.quantiles.P2Quantile": "the estimator of the module above",
    "repro.core.policy.LossAwareSelector": (
        "no deployment has a sender-side loss source to hand it until "
        "ROADMAP's loss-feed item lands; that item reads it"
    ),
    "repro.bgp.network.BgpNetwork.session_pairs": (
        "tests/bgp/oracle.py, the full-scan engine, is written against it"
    ),
    "repro.bgp.network.BgpNetwork.reset_session": (
        "E15's exact work-count rows (tests/bgp/test_network.py, 114 vs 1,188 "
        "routers scanned) and the golden RIB dumps are taken over it"
    ),
    "repro.netsim.events.Simulator.live_pending": (
        "the heap-compaction and one-event-per-wheel tests' observable: "
        "``pending`` counts tombstones, this is what is really scheduled"
    ),
    "repro.dataplane.seqnum.SequenceTracker.record_aggregate": (
        "tests/traffic/oracle.py, the scalar fluid kernel, is written against "
        "it, and tests/telemetry/test_write_behind.py's loop model of "
        "``record_aggregate_many`` is a loop of these"
    ),
    "repro.traffic.vector.VectorFluidEngine.concurrency_trace": (
        "the per-step concurrency every oracle comparison checks "
        "(tests/traffic/test_vector.py, tests/federation/test_batched_engine.py): "
        "it is what the bucket pass must sum in class order"
    ),
}


def module_name(path: Path) -> str:
    parts = path.relative_to(SRC).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


SOURCE_FILES = sorted((SRC / "repro").rglob("*.py"))
MODULES = {module_name(path): path for path in SOURCE_FILES}
TREES = {
    path: ast.parse(path.read_text(encoding="utf-8"))
    for directory in PRODUCT_DIRS
    for path in sorted(directory.rglob("*.py"))
}


#: (module, function) of every ``name = "module:function"`` console script.
ENTRY_POINTS = re.findall(
    r'^[\w-]+ = "([\w.]+):(\w+)"$',
    (REPO / "pyproject.toml").read_text(encoding="utf-8"),
    re.MULTILINE,
)


def is_package(path: Path) -> bool:
    return path.name == "__init__.py"


def imported_from(path: Path, node: ast.ImportFrom) -> str:
    """The absolute module an ``import from`` statement reads."""
    if not node.level:
        return node.module or ""
    if SRC not in path.parents:
        return ""  # bench/ is its own package
    package = module_name(path).split(".")
    if not is_package(path):
        package.pop()
    base = package[: len(package) - node.level + 1]
    return ".".join(base + ([node.module] if node.module else []))


def is_reexport(path: Path, node: ast.ImportFrom) -> bool:
    """A package ``__init__`` importing from inside its own package."""
    if not (is_package(path) and SRC in path.parents):
        return False
    own = module_name(path)
    source = imported_from(path, node)
    return source == own or source.startswith(own + ".")


@functools.cache
def exports(package: str) -> dict:
    """name -> the module a package's ``__init__`` re-exports it from."""
    path = MODULES[package]
    table = {}
    for node in ast.walk(TREES[path]):
        if isinstance(node, ast.ImportFrom) and is_reexport(path, node):
            for alias in node.names:
                table[alias.asname or alias.name] = imported_from(path, node)
    return table


def resolve(module: str, name: str) -> str:
    """The module that defines ``name`` as imported from ``module``."""
    if f"{module}.{name}" in MODULES:
        return f"{module}.{name}"
    if module in MODULES and is_package(MODULES[module]):
        source = exports(module).get(name)
        if source is not None and source != module:
            return resolve(source, name)
    return module


def used_modules() -> set:
    used = {module for module, _ in ENTRY_POINTS}
    for path, tree in TREES.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                used.update(alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and not is_reexport(path, node):
                source = imported_from(path, node)
                used.update(resolve(source, alias.name) for alias in node.names)
    return used


def used_names() -> set:
    names = {function for _, function in ENTRY_POINTS}
    for path, tree in TREES.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.ImportFrom) and not is_reexport(path, node):
                names.update(alias.name for alias in node.names)
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id in ("getattr", "hasattr")
                and len(node.args) >= 2
                and isinstance(node.args[1], ast.Constant)
            ):
                names.add(node.args[1].value)
    return names


def unreachable() -> set:
    used = used_modules()
    found = {
        name
        for name, path in MODULES.items()
        if not is_package(path) and name not in used
    }
    names = used_names()

    def unnamed(nodes: list, scope: str) -> set:
        return {
            f"{scope}.{node.name}"
            for node in nodes
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and not node.name.startswith(("_", "visit_"))
            and node.name not in names
        }

    for module, path in MODULES.items():
        body = TREES[path].body
        found |= unnamed(body, module)
        for node in body:
            if isinstance(node, ast.ClassDef):
                found |= unnamed(node.body, f"{module}.{node.name}")
    return found


def test_everything_in_src_is_reached_by_the_product():
    found = unreachable()
    unlisted = sorted(found - set(EXCEPTIONS))
    assert not unlisted, (
        "only tests reach these — delete them with their tests, or wire them "
        "into the experiment that should run them:\n  " + "\n  ".join(unlisted)
    )
    stale = sorted(set(EXCEPTIONS) - found)
    assert not stale, f"exceptions that are reachable now, or gone: {stale}"
