"""Linking module summaries into a whole-program view.

The :class:`ProjectGraph` owns the summary table and answers the three
questions every later pass asks:

* **name resolution** — given an absolute dotted name (already
  import-resolved by the extractor), which project function or class
  does it denote?  Resolution follows ``__init__`` re-export chains
  (``repro.campaign.run_campaign`` → ``repro.campaign.runner.run_campaign``)
  a bounded number of hops, so package façades don't hide call edges.
* **import graph** — which project modules does a module import
  (directly), and, reversed, who are a module's transitive importers?
  The reverse closure is the cache-invalidation frontier: an edit can
  only change analysis results in the edited module and modules that
  (transitively) import it.
* **dispatch** — which methods does a class define (for receiver-typed
  call resolution in the taint evaluator).
"""

from __future__ import annotations

from typing import Iterable, Optional

from .summaries import ModuleSummary

__all__ = ["ProjectGraph"]

#: Re-export chains longer than this are abandoned (defensive bound; the
#: repo's deepest real chain is 2).
_MAX_EXPORT_HOPS = 10


class ProjectGraph:
    """The linked whole-program view over a set of module summaries."""

    def __init__(self, summaries: Iterable[ModuleSummary]) -> None:
        self.modules: dict[str, ModuleSummary] = {}
        for summary in summaries:
            self.modules[summary.module] = summary
        #: function qualname -> owning module name
        self.functions: dict[str, str] = {}
        #: class qualname -> owning module name
        self.classes: dict[str, str] = {}
        for name, summary in self.modules.items():
            for qual in summary.functions:
                self.functions[qual] = name
            for qual in summary.classes:
                self.classes[qual] = name

    # -- name resolution ----------------------------------------------------------

    def _split_module_prefix(
        self, dotted: str
    ) -> Optional[tuple[str, list[str]]]:
        """Longest known module prefix of ``dotted`` plus the remainder."""
        parts = dotted.split(".")
        for cut in range(len(parts), 0, -1):
            prefix = ".".join(parts[:cut])
            if prefix in self.modules:
                return prefix, parts[cut:]
        return None

    def resolve(self, dotted: str) -> Optional[tuple[str, str]]:
        """Resolve an absolute dotted name to ``("func"|"class", qualname)``.

        Follows re-export chains through package ``__init__`` modules.
        Returns None for names outside the project (stdlib, numpy, ...)
        and for project modules themselves.
        """
        for _ in range(_MAX_EXPORT_HOPS):
            if dotted in self.functions:
                return ("func", dotted)
            if dotted in self.classes:
                return ("class", dotted)
            split = self._split_module_prefix(dotted)
            if split is None:
                return None
            module, remainder = split
            if not remainder:
                return None
            target = self.modules[module].exports.get(remainder[0])
            if target is None:
                return None
            rewritten = ".".join([target, *remainder[1:]])
            if rewritten == dotted:
                return None
            dotted = rewritten
        return None

    # -- import graph -------------------------------------------------------------

    def direct_deps(self, module: str) -> list[str]:
        """Project modules ``module`` imports, restricted to the analyzed
        set (an import edge to an un-analyzed module is irrelevant)."""
        summary = self.modules.get(module)
        if summary is None:
            return []
        deps = []
        for dep in summary.deps:
            resolved = self._dep_in_graph(dep)
            if resolved is not None and resolved != module:
                deps.append(resolved)
        return deps

    def _dep_in_graph(self, dep: str) -> Optional[str]:
        """An import edge may name a package or a symbol; normalize to
        the closest analyzed module."""
        if dep in self.modules:
            return dep
        split = self._split_module_prefix(dep)
        return split[0] if split else None

    def invalidated_by(self, changed: Iterable[str]) -> set[str]:
        """``changed`` plus every transitive importer — the set whose
        analysis results may differ after the edit."""
        reverse: dict[str, set[str]] = {name: set() for name in self.modules}
        for name in self.modules:
            for dep in self.direct_deps(name):
                reverse.setdefault(dep, set()).add(name)
        dirty: set[str] = set()
        frontier = [m for m in changed if m in self.modules]
        while frontier:
            module = frontier.pop()
            if module in dirty:
                continue
            dirty.add(module)
            frontier.extend(reverse.get(module, ()))
        return dirty
