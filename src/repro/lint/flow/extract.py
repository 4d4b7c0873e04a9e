"""AST → :class:`~repro.lint.flow.summaries.ModuleSummary` extraction.

One parse per module.  The extractor lowers each function body into the
descriptor IR documented in :mod:`repro.lint.flow.summaries`:
order-preserving, control-flow-flattened (branch bodies are concatenated
— a conservative over-approximation), and import-resolved (plain dotted
calls carry their absolute target, relative imports are made absolute
against the module's package).

Scope rules mirror Python's closely enough for lint purposes: names
bound in the function (params, assignments, loop/with/except targets,
local imports) are locals; remaining reads that match a module-level
binding are recorded as global reads (the fork-safety pass cares);
attribute loads off imported project modules are recorded as
cross-module global reads.
"""

from __future__ import annotations

import ast
import os
from typing import Optional, Sequence

from .summaries import Desc, FunctionSummary, GlobalInfo, ModuleSummary

__all__ = [
    "collect_aliases",
    "extract_module",
    "module_name_for",
    "package_of",
    "resolve_dotted",
]

_INNER_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)


def module_name_for(path: str) -> str:
    """Dotted module name for ``path``, walking up through packages.

    ``src/repro/campaign/runner.py`` → ``repro.campaign.runner`` (the
    walk stops at ``src`` because it has no ``__init__.py``).  A file
    outside any package is just its stem.
    """
    path = os.path.abspath(path)
    directory, filename = os.path.split(path)
    stem = filename[:-3] if filename.endswith(".py") else filename
    parts = [] if stem == "__init__" else [stem]
    while os.path.isfile(os.path.join(directory, "__init__.py")):
        directory, package = os.path.split(directory)
        parts.insert(0, package)
    return ".".join(parts) if parts else stem


def package_of(path: str) -> list[str]:
    """The package a file's relative imports are resolved against."""
    parts = module_name_for(path).split(".")
    return parts if os.path.basename(path) == "__init__.py" else parts[:-1]


def _absolute(
    module: Optional[str], level: int, package: list[str]
) -> Optional[str]:
    """Make a (possibly relative) ``from`` import absolute."""
    if level == 0:
        return module
    base = package[: len(package) - (level - 1)]
    if not base and not package:
        return None  # relative import outside any package
    if module:
        return ".".join([*base, module])
    return ".".join(base) if base else None


def collect_aliases(
    body: Sequence[ast.AST], package: list[str], *, nested: bool = False
) -> dict[str, str]:
    """Map local names to absolute dotted origins for the imports in one
    statement list (or under one node).

    ``import numpy as np`` binds ``np -> numpy``; ``from time import
    time`` binds ``time -> time.time``; in package ``repro.scenarios``,
    ``from ..netsim import delaymodels`` binds ``delaymodels ->
    repro.netsim.delaymodels``.  The walk recurses into control flow, and
    into inner function and class scopes only when ``nested`` — the
    per-file rules' file-wide view, where an import inside a function
    still names what it names.
    """
    aliases: dict[str, str] = {}
    pending = list(body)
    while pending:
        node = pending.pop(0)
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname:
                    aliases[alias.asname] = alias.name
                else:
                    root = alias.name.split(".")[0]
                    aliases[root] = root
        elif isinstance(node, ast.ImportFrom):
            target = _absolute(node.module, node.level, package)
            if target is None:
                continue
            for alias in node.names:
                if alias.name == "*":
                    continue
                bound = alias.asname or alias.name
                aliases[bound] = f"{target}.{alias.name}"
        elif nested or not isinstance(node, _INNER_SCOPES):
            pending = list(ast.iter_child_nodes(node)) + pending
    return aliases


def resolve_dotted(node: ast.expr, aliases: dict[str, str]) -> Optional[str]:
    """Absolute dotted target for a plain (possibly dotted) name whose
    root is an import alias — ``np.random.default_rng`` to
    ``numpy.random.default_rng`` — or None otherwise."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    origin = aliases.get(node.id)
    if origin is None:
        return None
    parts.reverse()
    return ".".join([origin, *parts]) if parts else origin


class _Extractor:
    """One module's extraction state."""

    def __init__(self, module: str, path: str, tree: ast.Module):
        self.module = module
        self.tree = tree
        self.package_parts = package_of(path)
        self.summary = ModuleSummary(module=module, path=path)
        #: Module-scope alias map: local name -> absolute dotted origin.
        self.module_aliases = collect_aliases(tree.body, self.package_parts)
        self._toplevel_names: set[str] = set()

    # -- expressions --------------------------------------------------------------

    def _expr(self, node: Optional[ast.expr], aliases: dict[str, str]) -> Desc:
        """Lower one expression to a descriptor."""
        if node is None:
            return {"k": "const", "v": None}
        if isinstance(node, ast.Constant):
            value = node.value
            if not isinstance(value, (int, float, str, bool, type(None))):
                value = repr(value)
            return {"k": "const", "v": value}
        if isinstance(node, ast.Name):
            dotted = aliases.get(node.id)
            if dotted is not None:
                return {"k": "modref", "name": dotted}
            return {"k": "name", "id": node.id, "line": node.lineno}
        if isinstance(node, ast.Attribute):
            dotted = resolve_dotted(node, aliases)
            if dotted is not None:
                return {"k": "modref", "name": dotted}
            return {
                "k": "attr",
                "base": self._expr(node.value, aliases),
                "attr": node.attr,
                "line": node.lineno,
            }
        if isinstance(node, ast.Call):
            dotted = resolve_dotted(node.func, aliases)
            return {
                "k": "call",
                "dotted": dotted,
                "fn": None if dotted else self._expr(node.func, aliases),
                "line": node.lineno,
                "args": [self._expr(a, aliases) for a in node.args],
                "kw": {
                    kw.arg: self._expr(kw.value, aliases)
                    for kw in node.keywords
                    if kw.arg is not None
                },
            }
        if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
            return {
                "k": "tuple",
                "items": [self._expr(e, aliases) for e in node.elts],
            }
        if isinstance(node, ast.Dict):
            return {
                "k": "tuple",
                "items": [
                    self._expr(v, aliases) for v in node.values if v is not None
                ],
            }
        if isinstance(node, ast.Subscript):
            return {
                "k": "sub",
                "base": self._expr(node.value, aliases),
                "index": self._expr(node.slice, aliases),
                "line": node.lineno,
            }
        if isinstance(node, ast.BinOp):
            parts = [self._expr(node.left, aliases), self._expr(node.right, aliases)]
        elif isinstance(node, ast.BoolOp):
            parts = [self._expr(v, aliases) for v in node.values]
        elif isinstance(node, ast.Compare):
            parts = [
                self._expr(node.left, aliases),
                *(self._expr(c, aliases) for c in node.comparators),
            ]
        elif isinstance(node, ast.UnaryOp):
            parts = [self._expr(node.operand, aliases)]
        elif isinstance(node, ast.IfExp):
            parts = [self._expr(node.body, aliases), self._expr(node.orelse, aliases)]
        elif isinstance(node, ast.JoinedStr):
            parts = [
                self._expr(v.value, aliases)
                for v in node.values
                if isinstance(v, ast.FormattedValue)
            ]
        elif isinstance(node, ast.Starred):
            parts = [self._expr(node.value, aliases)]
        elif isinstance(node, (ast.Await, ast.NamedExpr)):
            parts = [self._expr(node.value, aliases)]
        elif isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp)):
            parts = [
                self._expr(node.elt, aliases),
                *(self._expr(g.iter, aliases) for g in node.generators),
            ]
        elif isinstance(node, ast.DictComp):
            parts = [
                self._expr(node.value, aliases),
                *(self._expr(g.iter, aliases) for g in node.generators),
            ]
        else:
            return {"k": "const", "v": None}  # lambdas, slices, f-spec, ...
        return {"k": "bin", "parts": parts}

    # -- statements ---------------------------------------------------------------

    def _lower_body(
        self, body: list[ast.stmt], aliases: dict[str, str], out: list[Desc]
    ) -> None:
        """Flatten one statement list into descriptor statements."""
        for node in body:
            if isinstance(node, _INNER_SCOPES):
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                continue  # already folded into the alias map
            if isinstance(node, ast.Assign):
                value = self._expr(node.value, aliases)
                for target in node.targets:
                    self._lower_target(target, value, aliases, out, node.lineno)
            elif isinstance(node, ast.AnnAssign):
                if node.value is not None:
                    value = self._expr(node.value, aliases)
                    self._lower_target(
                        node.target, value, aliases, out, node.lineno
                    )
            elif isinstance(node, ast.AugAssign):
                if isinstance(node.target, ast.Name):
                    merged = {
                        "k": "bin",
                        "parts": [
                            {"k": "name", "id": node.target.id, "line": node.lineno},
                            self._expr(node.value, aliases),
                        ],
                    }
                    out.append(
                        {
                            "s": "assign",
                            "targets": [node.target.id],
                            "v": merged,
                            "line": node.lineno,
                        }
                    )
                else:
                    out.append(
                        {"s": "expr", "v": self._expr(node.value, aliases)}
                    )
            elif isinstance(node, (ast.Return, ast.Expr)):
                value = getattr(node, "value", None)
                if isinstance(node, ast.Return):
                    out.append(
                        {
                            "s": "ret",
                            "v": self._expr(value, aliases),
                            "line": node.lineno,
                        }
                    )
                elif value is not None and not isinstance(value, ast.Constant):
                    out.append({"s": "expr", "v": self._expr(value, aliases)})
            elif isinstance(node, ast.Global):
                out.append({"s": "globaldecl", "names": list(node.names)})
            elif isinstance(node, (ast.For, ast.AsyncFor)):
                iter_desc = self._expr(node.iter, aliases)
                element = {"k": "sub", "base": iter_desc, "index": {"k": "const", "v": None}}
                for target in ast.walk(node.target):
                    if isinstance(target, ast.Name):
                        out.append(
                            {
                                "s": "assign",
                                "targets": [target.id],
                                "v": element,
                                "line": node.lineno,
                            }
                        )
                self._lower_body(node.body, aliases, out)
                self._lower_body(node.orelse, aliases, out)
            elif isinstance(node, (ast.With, ast.AsyncWith)):
                for item in node.items:
                    ctx = self._expr(item.context_expr, aliases)
                    if isinstance(item.optional_vars, ast.Name):
                        out.append(
                            {
                                "s": "assign",
                                "targets": [item.optional_vars.id],
                                "v": ctx,
                                "line": node.lineno,
                            }
                        )
                    else:
                        out.append({"s": "expr", "v": ctx})
                self._lower_body(node.body, aliases, out)
            elif isinstance(node, (ast.If, ast.While)):
                out.append({"s": "expr", "v": self._expr(node.test, aliases)})
                self._lower_body(node.body, aliases, out)
                self._lower_body(node.orelse, aliases, out)
            elif isinstance(node, ast.Try):
                self._lower_body(node.body, aliases, out)
                for handler in node.handlers:
                    self._lower_body(handler.body, aliases, out)
                self._lower_body(node.orelse, aliases, out)
                self._lower_body(node.finalbody, aliases, out)
            elif isinstance(node, (ast.Raise, ast.Assert)):
                for child in ast.iter_child_nodes(node):
                    if isinstance(child, ast.expr):
                        out.append({"s": "expr", "v": self._expr(child, aliases)})
            elif isinstance(node, ast.Delete):
                continue
            else:
                for child in ast.iter_child_nodes(node):
                    if isinstance(child, ast.expr):
                        out.append({"s": "expr", "v": self._expr(child, aliases)})

    def _lower_target(
        self,
        target: ast.expr,
        value: Desc,
        aliases: dict[str, str],
        out: list[Desc],
        line: int,
    ) -> None:
        if isinstance(target, ast.Name):
            out.append(
                {"s": "assign", "targets": [target.id], "v": value, "line": line}
            )
        elif isinstance(target, (ast.Tuple, ast.List)):
            element = {"k": "sub", "base": value, "index": {"k": "const", "v": None}}
            for elt in target.elts:
                self._lower_target(elt, element, aliases, out, line)
        elif isinstance(target, ast.Attribute) and isinstance(
            target.value, ast.Name
        ):
            out.append(
                {
                    "s": "setattr",
                    "obj": target.value.id,
                    "attr": target.attr,
                    "v": value,
                    "line": line,
                }
            )
        else:
            out.append({"s": "expr", "v": value})

    # -- function-level bookkeeping ------------------------------------------------

    def _local_bindings(self, node: ast.AST) -> set[str]:
        """Names bound anywhere in this function's own scope."""
        bound: set[str] = set()
        pending = list(ast.iter_child_nodes(node))
        while pending:
            child = pending.pop(0)
            if isinstance(child, _INNER_SCOPES):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                    bound.add(child.name)
                continue
            if isinstance(child, ast.Name) and isinstance(
                child.ctx, (ast.Store, ast.Del)
            ):
                bound.add(child.id)
            elif isinstance(child, ast.Import):
                for alias in child.names:
                    bound.add(alias.asname or alias.name.split(".")[0])
            elif isinstance(child, ast.ImportFrom):
                for alias in child.names:
                    if alias.name != "*":
                        bound.add(alias.asname or alias.name)
            elif isinstance(child, ast.ExceptHandler) and child.name:
                bound.add(child.name)
            elif isinstance(child, ast.comprehension):
                for name in ast.walk(child.target):
                    if isinstance(name, ast.Name):
                        bound.add(name.id)
            pending.extend(ast.iter_child_nodes(child))
        return bound

    def _function(
        self,
        node: ast.FunctionDef | ast.AsyncFunctionDef,
        qualname: str,
    ) -> FunctionSummary:
        local_aliases = dict(self.module_aliases)
        local_aliases.update(collect_aliases(node.body, self.package_parts))
        args = node.args
        params = [a.arg for a in [*args.posonlyargs, *args.args]]
        params.extend(a.arg for a in args.kwonlyargs)
        summary = FunctionSummary(qualname=qualname, params=params)
        self._lower_body(node.body, local_aliases, summary.body)

        locals_bound = self._local_bindings(node) | set(summary.params)
        global_names: set[str] = set()
        for stmt in summary.body:
            if stmt.get("s") == "globaldecl":
                global_names.update(stmt["names"])
        for child in ast.walk(node):
            if isinstance(child, _INNER_SCOPES) and child is not node:
                continue
            if isinstance(child, ast.Name) and isinstance(child.ctx, ast.Load):
                if (
                    child.id in self._toplevel_names
                    and (child.id not in locals_bound or child.id in global_names)
                ):
                    summary.global_reads.append((child.id, child.lineno))
            elif isinstance(child, ast.Attribute) and isinstance(
                child.ctx, ast.Load
            ):
                dotted = resolve_dotted(child.value, local_aliases)
                if dotted is not None and dotted.split(".")[0] == self.module.split(".")[0]:
                    summary.module_attr_reads.append(
                        (dotted, child.attr, child.lineno)
                    )
        return summary

    # -- module level -------------------------------------------------------------

    def run(self) -> ModuleSummary:
        tree = self.tree
        # First pass: names bound at module level (for global-read scoping)
        # and the export table.
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                self.summary.exports[node.name] = f"{self.module}.{node.name}"
            elif isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        self._toplevel_names.add(target.id)
            elif isinstance(node, ast.AnnAssign) and isinstance(
                node.target, ast.Name
            ):
                self._toplevel_names.add(node.target.id)
        for name, origin in self.module_aliases.items():
            self.summary.exports.setdefault(name, origin)

        # Second pass: definitions, globals inventory, top-level dataflow.
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qualname = f"{self.module}.{node.name}"
                self.summary.functions[qualname] = self._function(node, qualname)
            elif isinstance(node, ast.ClassDef):
                class_qual = f"{self.module}.{node.name}"
                for item in node.body:
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        method_qual = f"{class_qual}.{item.name}"
                        self.summary.functions[method_qual] = self._function(
                            item, method_qual
                        )
                self.summary.classes.add(class_qual)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = (
                    node.targets
                    if isinstance(node, ast.Assign)
                    else [node.target]
                )
                value = getattr(node, "value", None)
                for target in targets:
                    if not isinstance(target, ast.Name):
                        continue
                    name = target.id
                    if name.startswith("__") and name.endswith("__"):
                        continue
                    self.summary.globals[name] = GlobalInfo(
                        line=node.lineno,
                        mutable_value=_is_mutable_desc(value),
                        reassignable=not name.lstrip("_").isupper(),
                    )
        # Top-level executable dataflow (module import time).
        toplevel = [
            n
            for n in tree.body
            if not isinstance(
                n,
                (
                    ast.FunctionDef,
                    ast.AsyncFunctionDef,
                    ast.ClassDef,
                    ast.Import,
                    ast.ImportFrom,
                ),
            )
        ]
        self._lower_body(toplevel, self.module_aliases, self.summary.toplevel)
        return self.summary


_MUTABLE_CTORS = frozenset(
    {"list", "dict", "set", "bytearray", "defaultdict", "deque", "Counter",
     "OrderedDict"}
)


def _is_mutable_desc(node: Optional[ast.expr]) -> bool:
    if node is None:
        return False
    if isinstance(
        node, (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.SetComp, ast.DictComp)
    ):
        return True
    if isinstance(node, ast.Call):
        func = node.func
        name = None
        if isinstance(func, ast.Name):
            name = func.id
        elif isinstance(func, ast.Attribute):
            name = func.attr
        return name in _MUTABLE_CTORS
    return False


def extract_module(path: str, source: Optional[str] = None) -> ModuleSummary:
    """Parse ``path`` and extract its summary.

    Raises :class:`SyntaxError` for unparsable files — the caller maps
    that to the engine's ``TNG000`` convention.
    """
    if source is None:
        with open(path, "r", encoding="utf-8") as handle:
            source = handle.read()
    tree = ast.parse(source, filename=path)
    module = module_name_for(path)
    return _Extractor(module, path, tree).run()
