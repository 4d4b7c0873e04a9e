"""What a deletion leaves behind, caught without ``ruff`` or ``mypy``.

Neither is installed on the development hosts, so a stale ``__all__``
entry, a re-export of a deleted name, or a DESIGN.md bullet for a module
that is gone would otherwise first show up in CI.  The perf-mechanism
ledger (``BENCH_HISTORY.jsonl``) is checked the same way: a mechanism
it keeps is still in the tree, and one it deleted is gone.
"""

import importlib
import json
import re

import pytest

from tests.test_reachability import MODULES, REPO, is_package

#: Plain modules only — a package is documented by its heading.
LEAVES = {name for name, path in MODULES.items() if not is_package(path)}


@pytest.mark.parametrize("name", sorted(MODULES))
def test_module_imports_and_exports_resolve(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing, f"{name}.__all__ names what it does not define: {missing}"


def documented_modules() -> set:
    """Every module DESIGN.md section 3 gives a bullet.

    A top-level bullet opens with a dotted name: a module of its own
    (``repro.cli``) or a package whose nested bullets each open with the
    module names they describe (``* `loss`, `reorder` — ...``).
    """
    text = (REPO / "DESIGN.md").read_text(encoding="utf-8")
    section = text[text.index("\n## 3. ") : text.index("\n## 4. ")]
    documented = set()
    package = None
    for line in section.splitlines():
        heading = re.match(r"\* `(repro[\w.]*)`", line)
        nested = re.match(r"  \* ((?:`\w+`(?:, )?)+)", line)
        if heading:
            package = heading.group(1)
            documented.add(package)
        elif nested and package:
            for name in re.findall(r"`(\w+)`", nested.group(1)):
                documented.add(f"{package}.{name}")
    return documented


def test_design_module_map_matches_the_tree():
    documented = documented_modules()
    packages = set(MODULES) - LEAVES
    gone = sorted(documented - LEAVES - packages)
    assert not gone, f"DESIGN.md section 3 names modules that do not exist: {gone}"
    missing = sorted(LEAVES - documented)
    assert not missing, f"modules without a DESIGN.md section 3 bullet: {missing}"


def ledger_rows() -> list:
    """``BENCH_HISTORY.jsonl``: one row per measured perf mechanism."""
    text = (REPO / "BENCH_HISTORY.jsonl").read_text(encoding="utf-8")
    return [json.loads(line) for line in text.splitlines() if line.strip()]


def defines(symbol: str) -> bool:
    """Whether ``module:Qual.name`` resolves: an attribute chain from the
    module, whose last link may also be a dataclass field."""
    module_name, _, qualname = symbol.partition(":")
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return False
    *path, last = qualname.split(".")
    for name in path:
        owner = getattr(owner, name, None)
        if owner is None:
            return False
    return hasattr(owner, last) or last in getattr(owner, "__dataclass_fields__", {})


@pytest.mark.parametrize("row", ledger_rows(), ids=lambda row: row["mechanism"])
def test_the_ledger_names_what_the_tree_holds(row):
    present = {symbol: defines(symbol) for symbol in row["symbols"]}
    assert row["symbols"] and row["verdict"] in ("kept", "deleted")
    assert row["workloads"] and all(
        set(seeds) == {"42", "7"} for seeds in row["workloads"].values()
    ), f"{row['mechanism']} is not measured on seeds 42 and 7"
    if row["verdict"] == "kept":
        gone = [symbol for symbol, there in present.items() if not there]
        assert not gone, f"{row['mechanism']} is kept but {gone} do not import"
    else:
        left = [symbol for symbol, there in present.items() if there]
        assert not left, f"{row['mechanism']} is deleted but {left} still import"
