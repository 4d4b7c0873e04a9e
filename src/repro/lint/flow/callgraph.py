"""Linking module summaries into a whole-program view.

The :class:`ProjectGraph` owns the summary table and answers the two
questions the evaluator asks:

* **name resolution** — given an absolute dotted name (already
  import-resolved by the extractor), which project function or class
  does it denote?  Resolution follows ``__init__`` re-export chains
  (``repro.campaign.run_campaign`` → ``repro.campaign.runner.run_campaign``)
  a bounded number of hops, so package façades don't hide call edges.
* **ownership** — which module defines a function or class (for
  receiver-typed method dispatch and for anchoring findings).
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
