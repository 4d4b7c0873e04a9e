"""The fork-boundary model (TNG3xx) over evaluated facts.

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

Fork *sites* are discovered by the evaluator (``pool.submit``,
``multiprocessing.Process(target=...)``), including sites whose
entrypoint arrives as a function parameter and is resolved in a caller
(``run_campaign → _execute → pool.submit(worker, ...)``).  This module
takes the resolved sites and walks the call graph from each entrypoint.

Each finding sits where its hazard is: TNG301 at the global's binding
line, TNG302 at the fork site, TNG303 at the RNG construction — one
finding per hazard however many fork sites reach it, so a justified
``# tango: noqa`` silences exactly one seam.  The first witness chain
found is in the message.
"""

from __future__ import annotations

from typing import Any

from .callgraph import ProjectGraph
from .evaluate import Evaluator

__all__ = ["derive_fork_findings"]

#: Worker-reachability BFS is capped defensively; the campaign worker's
#: real closure is a few dozen functions.
_MAX_REACHABLE = 400

_SNAPSHOT_ADVICE = (
    "fork-started children snapshot module state at pool creation — "
    "pass it through the payload instead"
)


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
        bucket = hits.setdefault(module, [])
        if all((h["code"], h["line"]) != (code, line) for h in bucket):
            bucket.append({"code": code, "line": line, "message": message})

    for qual in sorted(evaluator.facts):
        module = graph.functions[qual]
        for site in evaluator.facts[qual].fork_sites:
            # TNG302: concrete objects captured in shipped arguments.
            for obj in site.get("shipped", []):
                label = {
                    "rng": "an RNG object",
                    "sim": "a Simulator",
                    "file": "an open file handle",
                }[obj["kind"]]
                origin = obj.get("origin")
                detail = f" (from {origin})" if origin else ""
                report(
                    module,
                    "TNG302",
                    site["line"],
                    f"{label}{detail} is captured in arguments shipped "
                    f"across the fork boundary via {_chain(site, site.get('entry') or '<worker>')}; "
                    "children inherit a duplicated stream/handle — ship "
                    "seeds or descriptors, not live objects",
                )
            entry = site.get("entry")
            if entry is None:
                continue
            chain = _chain(site, entry)
            for reached in _reachable_from(evaluator, entry):
                reached_module = graph.functions.get(reached)
                if reached_module is None:
                    continue
                summary = graph.modules[reached_module]
                fn = summary.functions[reached]
                step = (
                    chain if reached == entry else f"{chain} -> ... -> {reached}"
                )
                # TNG301: mutable/rebindable module globals read from
                # worker-reachable code, same module or another one.
                reads = [
                    (reached_module, name, line) for name, line in fn.global_reads
                ] + list(fn.module_attr_reads)
                for owner, name, read_line in reads:
                    target = graph.modules.get(owner)
                    info = None if target is None else target.globals.get(name)
                    if info is None or not (
                        info.mutable_value or info.reassignable
                    ):
                        continue
                    what = "mutable" if info.mutable_value else "rebindable"
                    report(
                        owner,
                        "TNG301",
                        info.line,
                        f"{what} module-global '{name}' is read by "
                        f"worker-reachable code: {step} reads it at "
                        f"{summary.path}:{read_line}; {_SNAPSHOT_ADVICE}",
                    )
                # TNG303: constant-literal-seed RNGs in worker code.
                for rng in evaluator.facts[reached].const_seed_rngs:
                    report(
                        reached_module,
                        "TNG303",
                        rng["line"],
                        f"worker-reachable RNG {rng['target']} uses a "
                        f"constant literal seed ({step}); every shard draws "
                        "the identical stream — derive per-shard seeds from "
                        "a numpy.random.SeedSequence spawned off the master "
                        "seed and shard index",
                    )
    return hits
