"""Per-module summaries: what the whole-program pass knows about a module.

A :class:`ModuleSummary` holds re-exports (for name resolution through
``__init__`` façades), module-level globals (for the fork-safety rules),
and one :class:`FunctionSummary` per function or method holding the
function's dataflow **descriptors** — a small IR of its assignments,
calls, and returns that the evaluator (:mod:`repro.lint.flow.evaluate`)
interprets against the current facts table.

Descriptors are plain dicts with a ``"k"`` discriminator::

    {"k": "const", "v": ...}                      literal
    {"k": "name", "id": "x"}                      local/global/param read
    {"k": "attr", "base": d, "attr": "uniform"}   attribute load
    {"k": "call", "fn": d|None, "dotted": str|None,
     "line": int, "args": [d...], "kw": {...}}    call site
    {"k": "tuple", "items": [d...]}               tuple/list/set display
    {"k": "bin", "parts": [d...]}                 any param-merging expr
    {"k": "sub", "base": d, "index": d}           subscript load

``dotted`` is the import-alias-resolved target for plain dotted calls
(``np.random.default_rng`` → ``numpy.random.default_rng``); attribute
calls on computed receivers keep ``fn`` instead and are dispatched on
the receiver's abstract value at evaluation time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

__all__ = [
    "FunctionSummary",
    "GlobalInfo",
    "ModuleSummary",
]

Desc = dict[str, Any]


@dataclass
class GlobalInfo:
    """One module-level binding (plain assignment, not def/class/import).

    Attributes:
        line: definition line.
        mutable_value: the bound value is a mutable display or mutable
            constructor call (``[]``, ``{}``, ``set()``, ``deque()`` …).
        reassignable: the name follows the lowercase module-state
            convention (not ALL_CAPS, not a dunder) — a seam some
            function or test may rebind at runtime.
    """

    line: int
    mutable_value: bool
    reassignable: bool


@dataclass
class FunctionSummary:
    """One function/method's dataflow IR.

    Attributes:
        qualname: fully dotted name (``repro.campaign.runner._worker`` or
            ``repro.core.controller.TangoController.start``).
        params: parameter names, positional ones first, in order.
        body: statement descriptors, in source order.  Statements are
            dicts with an ``"s"`` discriminator: ``assign`` / ``ret`` /
            ``expr`` / ``setattr`` / ``globaldecl``.
        global_reads: names read that resolve to module-level bindings of
            the *same* module, with lines.
        module_attr_reads: ``(module_dotted, attr, line)`` loads off
            imported project modules (cross-module global access).
    """

    qualname: str
    params: list[str] = field(default_factory=list)
    body: list[Desc] = field(default_factory=list)
    global_reads: list[tuple[str, int]] = field(default_factory=list)
    module_attr_reads: list[tuple[str, str, int]] = field(default_factory=list)


@dataclass
class ModuleSummary:
    """Everything the interprocedural pass knows about one module."""

    module: str
    path: str
    #: Exported name → absolute dotted target (``from .x import y`` plus
    #: plain defs), used to resolve calls through package façades.
    exports: dict[str, str] = field(default_factory=dict)
    globals: dict[str, GlobalInfo] = field(default_factory=dict)
    functions: dict[str, FunctionSummary] = field(default_factory=dict)
    #: Class qualnames (the receiver types of method dispatch).
    classes: set[str] = field(default_factory=set)
    #: Module-level statements (run at import time), same IR as bodies.
    toplevel: list[Desc] = field(default_factory=list)
