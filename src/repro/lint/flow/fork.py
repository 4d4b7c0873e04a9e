"""The fork-boundary model (TNG3xx) over evaluated taint facts.

The campaign runner ships work to ``fork``-started processes; three
things go wrong at that boundary in practice, and each is a rule:

* **TNG301** — a *mutable* (or rebindable) module-level global is read
  by code reachable from a worker entrypoint.  Under ``fork`` the child
  inherits a snapshot: writes made by the parent after pool creation (or
  by tests monkeypatching the module) silently diverge between parent
  and children, and between runs with different worker counts.
* **TNG302** — an RNG, ``Simulator``, or open file handle is captured in
  the arguments shipped across the boundary.  Generators duplicate their
  stream into every child; simulators and handles carry event queues and
  file descriptors that must not be shared.
* **TNG303** — worker-reachable code constructs an RNG from a constant
  literal seed, so every shard draws the identical stream instead of a
  per-shard ``SeedSequence``-derived one.

Fork *sites* are discovered by the taint evaluator (``pool.submit``,
``multiprocessing.Process(target=...)``), including sites whose
entrypoint arrives as a function parameter and is resolved in a caller
(``run_campaign → _execute → pool.submit(worker, ...)``).  This module
takes the resolved sites, walks the call graph from each entrypoint, and
emits the findings with the full chain in the message.
"""

from __future__ import annotations

from typing import Any

from .callgraph import ProjectGraph
from .taint import Evaluator

__all__ = ["derive_fork_findings"]

#: Worker-reachability BFS is capped defensively; the campaign worker's
#: real closure is a few dozen functions.
_MAX_REACHABLE = 400


def _reachable_from(evaluator: Evaluator, entry: str) -> list[str]:
    """Functions reachable from ``entry`` over resolved call edges,
    in BFS order (entry first)."""
    order: list[str] = []
    seen: set[str] = set()
    frontier = [entry]
    while frontier and len(seen) < _MAX_REACHABLE:
        qual = frontier.pop(0)
        if qual in seen:
            continue
        seen.add(qual)
        order.append(qual)
        facts = evaluator.facts.get(qual)
        if facts is not None:
            frontier.extend(sorted(facts.calls))
    return order


def _chain(site: dict[str, Any], entry: str) -> str:
    via = " -> ".join(site.get("via", []))
    return f"{via} -> fork boundary -> {entry}" if via else entry


def derive_fork_findings(
    graph: ProjectGraph, evaluator: Evaluator
) -> dict[str, list[dict[str, Any]]]:
    """TNG3xx hits per module name (``{"code", "line", "message"}``)."""
    hits: dict[str, list[dict[str, Any]]] = {}

    def report(module: str, code: str, line: int, message: str) -> None:
        hit = {"code": code, "line": line, "message": message}
        bucket = hits.setdefault(module, [])
        if hit not in bucket:
            bucket.append(hit)

    for qual in sorted(evaluator.facts):
        facts = evaluator.facts[qual]
        if not facts.fork_sites:
            continue
        module = graph.functions.get(qual)
        if module is None:
            continue
        for site in facts.fork_sites:
            line = site.get("line", 0)
            # TNG302: concrete objects captured in shipped arguments.
            for obj in site.get("shipped", []):
                kind = obj.get("kind")
                label = {
                    "rng": "an RNG object",
                    "sim": "a Simulator",
                    "file": "an open file handle",
                }.get(kind, kind)
                origin = obj.get("origin")
                detail = f" (from {origin})" if origin else ""
                report(
                    module,
                    "TNG302",
                    line,
                    f"{label}{detail} is captured in arguments shipped "
                    f"across the fork boundary via {_chain(site, site.get('entry') or '<worker>')}; "
                    "children inherit a duplicated stream/handle — ship "
                    "seeds or descriptors, not live objects",
                )
            entry = site.get("entry")
            if entry is None:
                continue
            reachable = _reachable_from(evaluator, entry)
            chain = _chain(site, entry)
            for reached in reachable:
                reached_module = graph.functions.get(reached)
                if reached_module is None:
                    continue
                summary = graph.modules[reached_module]
                fn = summary.functions.get(reached)
                if fn is None:
                    continue
                step = (
                    chain if reached == entry else f"{chain} -> ... -> {reached}"
                )
                # TNG301: mutable/rebindable module globals read from
                # worker-reachable code.
                for name, read_line in fn.global_reads:
                    info = summary.globals.get(name)
                    if info is None:
                        continue
                    if not (info.mutable_value or info.reassignable):
                        continue
                    what = (
                        "mutable module-global"
                        if info.mutable_value
                        else "rebindable module-global"
                    )
                    report(
                        module,
                        "TNG301",
                        line,
                        f"{what} '{name}' ({summary.path}:{info.line}) is "
                        f"read by worker-reachable code: {step} reads it at "
                        f"{summary.path}:{read_line}; fork-started children "
                        "snapshot module state at pool creation — pass it "
                        "through the payload instead",
                    )
                for mod_name, attr, read_line in fn.module_attr_reads:
                    target = graph.modules.get(mod_name)
                    if target is None:
                        continue
                    info = target.globals.get(attr)
                    if info is None or not (
                        info.mutable_value or info.reassignable
                    ):
                        continue
                    report(
                        module,
                        "TNG301",
                        line,
                        f"mutable module-global '{mod_name}.{attr}' "
                        f"({target.path}:{info.line}) is read by "
                        f"worker-reachable code: {step} reads it at "
                        f"{summary.path}:{read_line}; fork-started children "
                        "snapshot module state at pool creation — pass it "
                        "through the payload instead",
                    )
                # TNG303: constant-literal-seed RNGs in worker code.
                reached_facts = evaluator.facts.get(reached)
                if reached_facts is None:
                    continue
                for rng in reached_facts.const_seed_rngs:
                    report(
                        module,
                        "TNG303",
                        line,
                        f"worker-reachable RNG {rng['target']} at "
                        f"{rng['where']} uses a constant literal seed "
                        f"({step}); every shard draws the identical stream "
                        "— derive per-shard seeds from a "
                        "numpy.random.SeedSequence spawned off the master "
                        "seed and shard index",
                    )
    return hits
