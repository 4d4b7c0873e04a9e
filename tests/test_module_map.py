"""What a deletion leaves behind, caught without ``ruff`` or ``mypy``.

Neither is installed on the development hosts, so a stale ``__all__``
entry, a re-export of a deleted name, or a DESIGN.md bullet for a module
that is gone would otherwise first show up in CI.
"""

import importlib
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
