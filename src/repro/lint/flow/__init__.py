"""``repro.lint.flow``: the whole-program fork-safety pass.

The per-file rules (``TNG001``–``TNG006``) own every nondeterminism
*source*: each flags the wall-clock reference, unseeded generator, global
RNG call, entropy draw or environment read where it is written.  What
one AST at a time cannot see is the campaign runner's ``fork`` boundary:
which code a worker process reaches, what crosses into it, and which
module state it silently snapshots.  This subpackage models exactly that:

* :mod:`repro.lint.flow.extract` parses every module into a
  :class:`~repro.lint.flow.summaries.ModuleSummary` — re-exports, module
  globals, and per-function dataflow descriptors;
* :mod:`repro.lint.flow.callgraph` links summaries into a
  :class:`~repro.lint.flow.callgraph.ProjectGraph` — name resolution
  through import aliases and ``__init__`` re-exports;
* :mod:`repro.lint.flow.evaluate` runs the interprocedural fixpoint over
  object kinds (RNGs, pools, simulators, instances, function references),
  resolving call edges and fork sites, and emits **TNG202** (an RNG
  aliased into module-global scope);
* :mod:`repro.lint.flow.fork` walks the call graph from each worker
  entrypoint and emits the **TNG3xx fork-safety** findings;
* :mod:`repro.lint.flow.analysis` runs the whole pass over a file set
  and hands its findings to the engine as ordinary per-file rules.
"""

from .analysis import analyze_project, flow_rules
from .callgraph import ProjectGraph
from .extract import extract_module, module_name_for

__all__ = [
    "ProjectGraph",
    "analyze_project",
    "extract_module",
    "flow_rules",
    "module_name_for",
]
