"""Smoke test of the bench spine (``pytest bench/``; tier-1 does not
collect it).  Small sizes, one repetition: the point is the schema and
the tracer's clean-up, not the numbers."""

import json
import os
import re
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

NAME = re.compile(r"^[A-Za-z0-9_.-]+$")


def test_smoke_run_reports_every_metric_of_the_spec():
    started = time.perf_counter()
    subprocess.run(
        [sys.executable, "-m", "bench", "run", "--smoke"],
        cwd=ROOT,
        check=True,
        timeout=120,
    )
    assert time.perf_counter() - started < 30.0

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    with open(
        os.path.join(ROOT, "bench", "out", "result.json"), encoding="utf-8"
    ) as handle:
        result = json.load(handle)

    assert set(result["workloads"]) == {w["name"] for w in spec["workloads"]}
    for name, record in result["workloads"].items():
        assert NAME.match(name)
        reported = {**record["end_to_end"], **record["per_layer"]}
        for metric in spec["end_to_end"] + spec["per_layer"]:
            assert NAME.match(metric["name"])
            assert metric["name"] in reported, (name, metric["name"])
            assert reported[metric["name"]]["unit"] == metric["unit"]
        assert all(NAME.match(key) for key in reported)
        assert record["checks"]["failed"] == 0, record["checks"]["failures"]
        assert os.path.exists(
            os.path.join(ROOT, "bench", "out", f"trace-{name}.json")
        )


def test_tracer_restores_every_wrapped_attribute():
    from bench.runner import _one_rep
    from bench.trace import Tracer
    from bench.workloads import get_workload

    workload = get_workload("federation_live")
    probe = Tracer()
    probe.install()
    originals = probe.patched()
    probe.uninstall()
    assert len(originals) > 30

    tracer = Tracer()
    rep = _one_rep(workload, workload.plan(42, smoke=True), tracer)

    assert len(tracer.span_start) > 0 and rep.counters
    assert not tracer.patched()
    for owner, attr, original in originals:
        assert vars(owner)[attr] is original, (owner, attr)


def test_compare_flags_a_slower_change():
    from bench.compare import compare_results

    def record(wall):
        entry = {"value": wall, "unit": "s", "q1": wall, "q3": wall,
                 "samples": [wall] * 3}  # fmt: skip
        return {
            "w": {
                "seed": 42,
                "smoke": False,
                "sim_digest": "d",
                "end_to_end": {"wall_s": entry},
            }
        }

    _rows, same = compare_results(record(1.0), record(1.05))
    _rows, slower = compare_results(record(1.0), record(1.5))
    assert same and not slower
