"""Metric names, units, directions and bounds — the schema of a result.

``BENCHMARK.json`` at the repository root is the one list of names and
units.  Its contract wants every end-to-end metric non-zero on every
workload, so two of the six end-to-end metrics this harness reports —
``fail_share`` (0 when all is well) and ``sim_detect_s`` (0 where no
fault is injected) — sit in its ``per_layer`` list; here they are put
back where they belong.  A ``sim_`` prefix means simulated seconds or
shares, exact for a fixed seed; every other time is host time.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Optional

__all__ = [
    "Metric",
    "BENCHMARK",
    "SCHEMA",
    "END_TO_END",
    "PER_LAYER",
    "EXACT",
    "LAYERS",
]

SCHEMA = "tango-repro/bench/v1"

with open(
    os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        "BENCHMARK.json",
    ),
    encoding="utf-8",
) as _handle:
    BENCHMARK: dict = json.load(_handle)


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str  # "lower" | "higher"
    #: Share of the base median by which the metric may worsen before it
    #: counts as a regression; None for per-layer metrics (no bound).
    bound: Optional[float] = None


#: End-to-end metrics that repeat exactly for a fixed seed: compared for
#: equality, any worsening is a regression.
EXACT = frozenset({"fail_share", "sim_detect_s", "sim_delivered_share"})

_listed = {
    m["name"]: Metric(m["name"], m["unit"], m["better"], m.get("bound"))
    for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]
}

#: What a user of the simulator sees, in report order.
END_TO_END = tuple(
    _listed[name]
    for name in (
        "setup_s",
        "wall_s",
        "peak_rss_mb",
        "fail_share",
        "sim_detect_s",
        "sim_delivered_share",
    )
)

PER_LAYER = tuple(
    metric
    for metric in (_listed[m["name"]] for m in BENCHMARK["per_layer"])
    if metric not in END_TO_END
)

#: Layers whose self times make up the traced budget (the repo's
#: modules): every ``<layer>.self_s`` metric, the store's two halves
#: folded into one layer.
LAYERS = tuple(
    dict.fromkeys(
        "telemetry.store"
        if m.name.startswith("telemetry.store.")
        else m.name[: -len(".self_s")]
        for m in PER_LAYER
        if m.name.endswith("self_s")
    )
)
