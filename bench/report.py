"""Running workloads and printing what they measured.

``run_one`` is the child side (one workload, this process); ``run_all``
is the parent that gives every workload a fresh single-threaded child
and merges their records into ``bench/out/result.json``.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from typing import Optional

from .metrics import BENCHMARK, SCHEMA
from .workloads import WORKLOADS

__all__ = ["run_one", "run_all"]


def _print_metrics(title: str, metrics: dict) -> None:
    print(f"  {title}")
    for name, entry in metrics.items():
        line = f"    {name:36s} {entry['value']!r:>24} {entry['unit']}"
        if "samples" in entry:
            line += (
                f"   q1={entry['q1']:.4f} q3={entry['q3']:.4f} "
                f"R={len(entry['samples'])}"
            )
        print(line)


def _print_result(result: dict) -> None:
    why = next(
        w["why"] for w in BENCHMARK["workloads"] if w["name"] == result["workload"]
    )
    print(f"{result['workload']}  seed={result['seed']}  {why}")
    if "end_to_end" in result:
        _print_metrics("end to end (tracing off)", result["end_to_end"])
    if "per_layer" in result:
        _print_metrics(
            f"per layer (traced rep, {result['traced_wall_s']:.3f} s)",
            result["per_layer"],
        )
    checks = result["checks"]
    print(f"  sim_digest {result['sim_digest']}")
    print(f"  checks     {checks['attempted'] - checks['failed']}/{checks['attempted']} ok")
    for failure in checks["failures"]:
        print(f"  FAILED     {failure}")


def _contract_line(result: dict, section: str) -> str:
    """The benchmark contract's result object: exactly the metrics
    ``BENCHMARK.json`` lists under ``section``."""
    have = {**result.get("end_to_end", {}), **result.get("per_layer", {})}
    metrics = {
        spec["name"]: {
            "value": have[spec["name"]]["value"],
            "unit": have[spec["name"]]["unit"],
        }
        for spec in BENCHMARK[section]
    }
    checks = result["checks"]
    return json.dumps(
        {
            "correct": checks["failed"] == 0,
            "attempted": checks["attempted"],
            "failed": checks["failed"],
            "metrics": metrics,
        }
    )


def run_one(
    workload: str,
    seed: int,
    seconds: Optional[float],
    trace: Optional[int],
    smoke: bool,
    started: float,
) -> int:
    from .runner import OUT_DIR, run_workload
    from .workloads import get_workload

    get_workload(workload)  # imports the simulator: counted as import time
    import_s = time.perf_counter() - started
    if seconds is None:
        seconds = 0.0 if smoke else float(BENCHMARK["run_seconds"])
    result = run_workload(
        workload,
        seed,
        seconds,
        end_to_end=trace != 1,
        traced=trace != 0,
        smoke=smoke,
        import_s=import_s,
    )
    result["schema"] = SCHEMA
    _print_result(result)
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(
        os.path.join(OUT_DIR, f"result-{workload}.json"), "w", encoding="utf-8"
    ) as handle:
        json.dump(result, handle, indent=1, sort_keys=True)
    print(_contract_line(result, "per_layer" if trace == 1 else "end_to_end"))
    return 0


def run_all(
    seed: int, seconds: Optional[float], trace: Optional[int], smoke: bool
) -> int:
    from .runner import OUT_DIR

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    results = {}
    status = 0
    for workload in WORKLOADS:
        command = [
            sys.executable, "-m", "bench", "run",
            "--workload", workload, "--seed", str(seed),
        ]  # fmt: skip
        if seconds is not None:
            command += ["--seconds", str(seconds)]
        if trace is not None:
            command += ["--trace", str(trace)]
        if smoke:
            command.append("--smoke")
        # Output streams through; the child's record comes back by file.
        child = subprocess.run(command, cwd=root, check=False)
        if child.returncode != 0:
            print(f"bench: {workload} exited {child.returncode}", file=sys.stderr)
            status = 1
            continue
        with open(
            os.path.join(OUT_DIR, f"result-{workload}.json"), encoding="utf-8"
        ) as handle:
            results[workload] = json.load(handle)
        if results[workload]["checks"]["failed"]:
            status = 1
    merged = {"schema": SCHEMA, "seed": seed, "smoke": smoke, "workloads": results}
    path = os.path.join(OUT_DIR, "result.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(merged, handle, indent=1, sort_keys=True)
    print(f"wrote {path}")
    return status
