"""One way to replace a link model: :func:`repro.netsim.links.replace_models`.

The fluid kernel re-checks its rows' link models only when the swap
epoch that ``replace_models`` bumps has moved, so a model assigned any
other way would go unseen until some unrelated swap.  Checked on the
syntax trees of ``src/``, ``tests/``, ``benchmarks/`` and ``examples/``:
an attribute named ``delay`` or ``loss`` is assigned only on ``self``
inside ``__init__`` (a link, or a link stand-in, setting its own models
once) or inside ``replace_models`` itself, and nothing calls
``setattr`` / ``__setattr__`` with either name.
"""

import ast
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
ROOTS = ("src", "tests", "benchmarks", "examples")
MODELS = {"delay", "loss"}


class _Finder(ast.NodeVisitor):
    def __init__(self) -> None:
        self.functions: list[str] = []
        self.found: list[tuple[int, str]] = []

    def visit_FunctionDef(self, node) -> None:
        self.functions.append(node.name)
        self.generic_visit(node)
        self.functions.pop()

    visit_AsyncFunctionDef = visit_FunctionDef

    def _target(self, target) -> None:
        if isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._target(element)
        elif isinstance(target, ast.Starred):
            self._target(target.value)
        elif isinstance(target, ast.Attribute) and target.attr in MODELS:
            function = self.functions[-1] if self.functions else None
            on_self = isinstance(target.value, ast.Name) and target.value.id == "self"
            if function == "replace_models" or (on_self and function == "__init__"):
                return
            self.found.append((target.lineno, ast.unparse(target) + " = ..."))

    def visit_Assign(self, node) -> None:
        for target in node.targets:
            self._target(target)
        self.generic_visit(node)

    def visit_AugAssign(self, node) -> None:
        self._target(node.target)
        self.generic_visit(node)

    visit_AnnAssign = visit_AugAssign

    def visit_Call(self, node) -> None:
        func = node.func
        named = (isinstance(func, ast.Name) and func.id == "setattr") or (
            isinstance(func, ast.Attribute) and func.attr == "__setattr__"
        )
        if (
            named
            and len(node.args) >= 2
            and isinstance(node.args[1], ast.Constant)
            and node.args[1].value in MODELS
        ):
            self.found.append((node.lineno, ast.unparse(node)))
        self.generic_visit(node)


def model_assignments(source: str) -> list[tuple[int, str]]:
    """``(line, code)`` of every link-model assignment outside the allowed
    places in ``source``."""
    finder = _Finder()
    finder.visit(ast.parse(source))
    return finder.found


def test_link_models_change_only_through_replace_models():
    found = []
    for root in ROOTS:
        for path in sorted((REPO / root).rglob("*.py")):
            for line, code in model_assignments(path.read_text()):
                found.append(f"{path.relative_to(REPO)}:{line}: {code}")
    assert found == []


@pytest.mark.parametrize(
    "source",
    [
        "link.loss = ConstantLoss(1.0)",
        "link.seg2.delay = d",
        "a, link.delay = 1, d",
        "link.loss += 0.1",
        "setattr(link, 'loss', x)",
        "sim.schedule_at(1.0, lambda: setattr(link, 'delay', spiked))",
        "object.__setattr__(link, 'delay', d)",
        "class L:\n    def reset(self):\n        self.delay = d",
        "def __init__(self, other):\n    other.loss = x",
    ],
)
def test_the_check_finds_each_other_way(source):
    assert len(model_assignments(source)) == 1


@pytest.mark.parametrize(
    "source",
    [
        "class L:\n    def __init__(self, d):\n        self.delay = d",
        "def replace_models(link, *, delay=None):\n    link.delay = delay",
        "replace_models(link, loss=ConstantLoss(1.0))",
        "self._delay = model",
        "event.delay_s = 0.1",
    ],
)
def test_the_check_allows_construction_and_the_announcement(source):
    assert model_assignments(source) == []
