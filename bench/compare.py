"""``python -m bench compare A.json B.json`` — judge B against base A.

One row per (workload, end-to-end metric): both medians with their
quartiles, B as a ratio of A, the bound, and a verdict:

* ``ok`` — B is no worse than A by more than the bound;
* ``worse`` — it is;
* ``unresolved`` — the run-to-run spread of either side is wider than
  the bound, so the medians cannot settle it (unless every B sample
  beats every A sample).

Metrics that repeat exactly for a fixed seed (``sim_*``, ``fail_share``),
the ``sim_digest`` and every per-layer count are compared for equality;
an exact metric that moved the good way is ``ok``, the wrong way
``worse``.  Both files must come from the same seed and sizes.
"""

from __future__ import annotations

import json
import sys

from .metrics import END_TO_END, EXACT, PER_LAYER

__all__ = ["compare_files", "compare_results"]

#: A set-up regression must also be this large in absolute terms: a
#: 10 % swing of a 2 ms set-up is timer noise, not work moved.
_SETUP_FLOOR_S = 0.020


def _load(path: str) -> dict[str, dict]:
    with open(path, encoding="utf-8") as handle:
        data = json.load(handle)
    if "workloads" in data:
        return data["workloads"]
    return {data["workload"]: data}


def _spread(entry: dict) -> float:
    """Interquartile range as a share of the median."""
    if "q1" not in entry or not entry["value"]:
        return 0.0
    return (entry["q3"] - entry["q1"]) / abs(entry["value"])


def _worse_by(metric, base: float, change: float) -> float:
    """How much worse ``change`` is, as a share of ``base`` (<= 0: not)."""
    delta = change - base if metric.better == "lower" else base - change
    if delta <= 0:
        return 0.0
    return delta / abs(base) if base else float("inf")


def _verdict(metric, a: dict, b: dict) -> str:
    base, change = a["value"], b["value"]
    worse_by = _worse_by(metric, base, change)
    if metric.name in EXACT:
        return "worse" if worse_by > 0 else "ok"
    bound = metric.bound or 0.0
    if max(_spread(a), _spread(b)) > bound:
        a_samples = a.get("samples", [base])
        b_samples = b.get("samples", [change])
        if metric.better == "lower":
            clear_win = max(b_samples) < min(a_samples)
        else:
            clear_win = min(b_samples) > max(a_samples)
        return "ok" if clear_win else "unresolved"
    if worse_by > bound:
        if metric.name == "setup_s" and change - base <= _SETUP_FLOOR_S:
            return "ok"
        return "worse"
    return "ok"


def _cell(entry: dict) -> str:
    text = f"{entry['value']:.6g}"
    if "q1" in entry:
        text += f" [{entry['q1']:.4g}, {entry['q3']:.4g}]"
    return text


def compare_results(
    base: dict[str, dict], change: dict[str, dict]
) -> tuple[list[tuple[str, ...]], bool]:
    """Rows of the comparison table and whether everything held."""
    rows: list[tuple[str, ...]] = []
    all_ok = True
    # The harness's own counts (repetitions, retries) vary by design.
    count_names = [
        m.name
        for m in PER_LAYER
        if m.unit == "count" and not m.name.startswith("bench.")
    ]
    for workload in base:
        if workload not in change:
            rows.append((workload, "-", "-", "missing", "-", "-", "unresolved"))
            all_ok = False
            continue
        a, b = base[workload], change[workload]
        if (a["seed"], a["smoke"]) != (b["seed"], b["smoke"]):
            rows.append(
                (workload, "seed/size", f"{a['seed']}", f"{b['seed']}", "-", "-",
                 "unresolved")
            )  # fmt: skip
            all_ok = False
            continue
        for metric in END_TO_END:
            ea = a.get("end_to_end", {}).get(metric.name)
            eb = b.get("end_to_end", {}).get(metric.name)
            if ea is None or eb is None:
                continue
            verdict = _verdict(metric, ea, eb)
            all_ok = all_ok and verdict == "ok"
            ratio = (
                f"{eb['value'] / ea['value']:.3f}x of {ea['value']:.4g} {metric.unit}"
                if ea["value"]
                else "-"
            )
            bound = (
                "exact"
                if metric.name in EXACT
                else f"{metric.bound:.0%} {'up' if metric.better == 'lower' else 'down'}"
            )
            rows.append(
                (workload, metric.name, _cell(ea), _cell(eb), ratio, bound, verdict)
            )
        same_digest = a["sim_digest"] == b["sim_digest"]
        all_ok = all_ok and same_digest
        rows.append(
            (workload, "sim_digest", a["sim_digest"][:12], b["sim_digest"][:12],
             "-", "exact", "ok" if same_digest else "worse")
        )  # fmt: skip
        la, lb = a.get("per_layer"), b.get("per_layer")
        if la and lb:
            differ = [
                n for n in count_names if la[n]["value"] != lb[n]["value"]
            ]
            all_ok = all_ok and not differ
            rows.append(
                (workload, "per-layer counts",
                 f"{len(count_names)} compared", f"{len(differ)} differ",
                 ", ".join(differ[:4]) or "-", "exact",
                 "worse" if differ else "ok")
            )  # fmt: skip
    return rows, all_ok


def compare_files(base_path: str, change_path: str) -> int:
    rows, all_ok = compare_results(_load(base_path), _load(change_path))
    header = ("workload", "metric", "base", "change", "ratio", "bound", "verdict")
    table = [header, *rows]
    widths = [max(len(row[i]) for row in table) for i in range(len(header))]
    for row in table:
        print("  ".join(cell.ljust(width) for cell, width in zip(row, widths)))
    if not all_ok:
        print("bench compare: not every row is ok", file=sys.stderr)
    return 0 if all_ok else 1
