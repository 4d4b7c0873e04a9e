"""One workload, one process: repetitions, noise guard, result assembly.

A repetition builds fresh state, freezes the collector, times the
workload's window with both the wall and the CPU clock between two
host-speed probes, and checks the outputs.  End-to-end numbers are
medians over the untraced repetitions after one discarded warm-up, in
reference-host seconds (see :mod:`bench.hostspeed`); the per-layer
numbers come from one extra repetition run under
:class:`bench.trace.Tracer` and are raw host seconds.
"""

from __future__ import annotations

import gc
import os
import resource
import statistics
import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .hostspeed import host_speed, probe, same_speed
from .metrics import END_TO_END, LAYERS, PER_LAYER
from .trace import Tracer, layer_of_span
from .workloads import Outcome, Workload, get_workload

__all__ = ["run_workload", "OUT_DIR"]

OUT_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")

#: A repetition whose wall clock ran this far ahead of its CPU clock was
#: descheduled, and one whose two host-speed probes disagree saw the
#: host change speed under it (shared host); either is measured again,
#: at most ``_MAX_RETRIES`` times in a row.
_NOISE_RATIO = 1.15
_MAX_RETRIES = 2
#: Set-up is sampled on its own until there are this many samples or
#: this much time has gone, so that a millisecond set-up has a median.
_SETUP_SAMPLES = 15
_SETUP_SAMPLING_S = 2.0
#: Untraced repetitions a full / traced-only run takes at least.
_MIN_REPS = 3
_TRACE_ONLY_REPS = 2
#: Controller tick percentiles need this many ticks to mean anything.
_MIN_TICKS_FOR_PERCENTILES = 1000


@dataclass
class _Rep:
    #: Raw host seconds.
    setup_s: float
    wall_s: float
    cpu_s: float
    #: Host-speed probes just before and just after the timed window.
    probe_before_s: float
    probe_after_s: float
    outcome: Outcome
    #: Always-on counters across the timed window (traced rep only).
    counters: Optional[dict[str, float]] = None
    window_start: float = 0.0

    @property
    def host_speed(self) -> float:
        return host_speed(self.probe_before_s, self.probe_after_s)

    @property
    def noisy(self) -> bool:
        return self.wall_s > _NOISE_RATIO * self.cpu_s or not same_speed(
            self.probe_before_s, self.probe_after_s
        )


def _one_rep(
    workload: Workload, plan: object, tracer: Optional[Tracer] = None
) -> _Rep:
    gc.collect()
    if tracer is not None:
        tracer.install()
    try:
        start = time.perf_counter()
        scenario = workload.setup(plan)
        setup_s = time.perf_counter() - start
        before = workload.counters(scenario) if tracer is not None else None
        gc.collect()
        gc.freeze()
        try:
            probe_before_s = probe()
            if tracer is not None:
                tracer.recording = True
            cpu0 = time.process_time()
            wall0 = time.perf_counter()
            workload.run(scenario)
            wall1 = time.perf_counter()
            cpu1 = time.process_time()
            probe_after_s = probe()
        finally:
            if tracer is not None:
                tracer.recording = False
            gc.unfreeze()
        counters = None
        if before is not None:
            after = workload.counters(scenario)
            counters = {key: after[key] - before[key] for key in after}
    finally:
        if tracer is not None:
            tracer.uninstall()
    return _Rep(
        setup_s=setup_s,
        wall_s=wall1 - wall0,
        cpu_s=cpu1 - cpu0,
        probe_before_s=probe_before_s,
        probe_after_s=probe_after_s,
        outcome=workload.finish(scenario),
        counters=counters,
        window_start=wall0,
    )


def _sample_setup(workload: Workload, plan: object, wanted: int) -> list[float]:
    """Up to ``wanted`` more set-up times, each between two probes."""
    samples: list[float] = []
    deadline = time.perf_counter() + _SETUP_SAMPLING_S
    before_s = probe()
    while len(samples) < wanted and time.perf_counter() < deadline:
        gc.collect()
        start = time.perf_counter()
        workload.setup(plan)
        setup_s = time.perf_counter() - start
        after_s = probe()
        if same_speed(before_s, after_s):
            samples.append(setup_s * host_speed(before_s, after_s))
        before_s = after_s
    return samples


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def _timing(values: list[float], unit: str) -> dict:
    q1, _q2, q3 = _quartiles(values)
    return {
        "value": statistics.median(values),
        "unit": unit,
        "q1": q1,
        "q3": q3,
        "samples": values,
    }


def run_workload(
    name: str,
    seed: int,
    seconds: float,
    *,
    end_to_end: bool,
    traced: bool,
    smoke: bool,
    import_s: float,
) -> dict:
    """Measure one workload in this process; returns its result record."""
    workload = get_workload(name)
    plan = workload.plan(seed, smoke)
    if smoke:
        min_reps = 1
    else:
        min_reps = _MIN_REPS if end_to_end else _TRACE_ONLY_REPS

    reference = _one_rep(workload, plan)  # warm-up: timings discarded
    reps: list[_Rep] = []
    retries = in_a_row = 0
    measuring_since = time.perf_counter()
    while len(reps) < min_reps or (
        end_to_end and time.perf_counter() - measuring_since < seconds
    ):
        rep = _one_rep(workload, plan)
        if rep.noisy and in_a_row < _MAX_RETRIES:
            retries += 1
            in_a_row += 1
            continue
        in_a_row = 0
        reps.append(rep)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    setups = [r.setup_s * host_speed(r.probe_before_s) for r in reps]
    if end_to_end and not smoke:
        setups += _sample_setup(workload, plan, _SETUP_SAMPLES - len(setups))

    tracer = traced_rep = None
    if traced:
        tracer = Tracer()
        traced_rep = _one_rep(workload, plan, tracer)

    # Output checks: every repetition's own, plus digest equality with
    # the first repetition of the run (traced repetition included, so a
    # tracer that perturbed behaviour would show).
    checked = [reference, *reps] + ([traced_rep] if traced_rep else [])
    failures = []
    attempted = 0
    for index, rep in enumerate(checked):
        attempted += 1 + len(rep.outcome.checks)
        if rep.outcome.digest != reference.outcome.digest:
            failures.append(f"rep {index}: digest differs from rep 0")
        failures += [
            f"rep {index}: {c.name}: {c.detail}"
            for c in rep.outcome.checks
            if not c.ok
        ]

    walls = [r.wall_s * r.host_speed for r in reps]
    result: dict = {
        "workload": name,
        "seed": seed,
        "smoke": smoke,
        "reps": len(reps),
        "retries": retries,
        "sim_digest": reference.outcome.digest,
        "checks": {
            "attempted": attempted,
            "failed": len(failures),
            "failures": failures,
        },
    }
    if end_to_end:
        outcome = reference.outcome
        exact = {
            "fail_share": len(failures) / attempted,
            "sim_detect_s": outcome.sim_detect_s,
            "sim_delivered_share": outcome.sim_delivered_share,
        }
        measured = {
            "setup_s": _timing(setups, "s"),
            "wall_s": dict(
                _timing(walls, "s"), raw_samples=[r.wall_s for r in reps]
            ),
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
        result["end_to_end"] = {
            m.name: measured.get(m.name)
            or {"value": exact[m.name], "unit": m.unit}
            for m in END_TO_END
        }
    if tracer is not None and traced_rep is not None:
        os.makedirs(OUT_DIR, exist_ok=True)
        tracer.dump(
            os.path.join(OUT_DIR, f"trace-{name}.json"),
            traced_rep.window_start,
            {
                "workload": name,
                "seed": seed,
                "smoke": smoke,
                "traced_wall_s": traced_rep.wall_s,
            },
        )
        values = _per_layer(tracer, traced_rep, reps, retries, import_s)
        values["sim_detect_s"] = traced_rep.outcome.sim_detect_s
        values["fail_share"] = len(failures) / attempted
        units = {m.name: m.unit for m in (*PER_LAYER, *END_TO_END)}
        result["per_layer"] = {
            key: {"value": value, "unit": units[key]}
            for key, value in values.items()
        }
        result["traced_wall_s"] = traced_rep.wall_s
    return result


def _per_layer(
    tracer: Tracer,
    traced: _Rep,
    reps: list[_Rep],
    retries: int,
    import_s: float,
) -> dict[str, float]:
    """Every per-layer metric, 0 where the workload leaves a layer idle."""
    spans = tracer.summary()
    layer_self = dict.fromkeys(LAYERS, 0.0)
    for span_name, stats in spans.items():
        layer = layer_of_span(span_name)
        if layer in layer_self:
            layer_self[layer] += stats["self_s"]

    def self_s(*names: str) -> float:
        return sum(spans[n]["self_s"] for n in names if n in spans)

    def outer(*names: str) -> int:
        return sum(spans[n]["outer"] for n in names if n in spans)

    def per(total_s: float, count: float) -> float:
        return total_s / count * 1e6 if count else 0.0

    values = dict.fromkeys((m.name for m in PER_LAYER), 0.0)
    reported = {**(traced.counters or {}), **traced.outcome.gauges}
    unknown = sorted(set(reported) - set(values))
    if unknown:
        raise KeyError(f"workload reports metrics BENCHMARK.json lacks: {unknown}")
    values.update(reported)
    for layer, seconds in layer_self.items():
        if f"{layer}.self_s" in values:
            values[f"{layer}.self_s"] = seconds
    values["telemetry.store.append_self_s"] = self_s("telemetry.store.append")
    values["telemetry.store.read_self_s"] = self_s("telemetry.store.read")

    values["netsim.events.scheduled"] = tracer.scheduled
    values["netsim.events.heap_peak"] = tracer.heap_peak
    values["netsim.delaymodels.draws"] = outer("netsim.delaymodels.draw")
    values["netsim.trace.packets_built"] = outer("netsim.trace.build")
    values["dataplane.sender_calls"] = outer("dataplane.sender")
    values["dataplane.receiver_calls"] = outer("dataplane.receiver")
    values["telemetry.store.append_calls"] = outer("telemetry.store.append")
    values["telemetry.store.reads"] = outer("telemetry.store.read")
    values["telemetry.loss.samples"] = outer("telemetry.loss.sample")
    values["core.policy.selects"] = sum(
        stats["outer"]
        for span_name, stats in spans.items()
        if span_name.endswith(".select")
    )
    values["core.session.syncs"] = outer("core.session.sync")
    values["core.discovery.discovers"] = outer("core.discovery.discover")

    values["netsim.events.us_per_event"] = per(
        layer_self["netsim.events"], values["netsim.events.processed"]
    )
    values["netsim.delaymodels.us_per_draw"] = per(
        layer_self["netsim.delaymodels"], values["netsim.delaymodels.draws"]
    )
    values["dataplane.us_per_packet"] = per(
        layer_self["dataplane"],
        values["dataplane.sender_calls"] + values["dataplane.receiver_calls"],
    )
    values["traffic.us_per_step"] = per(
        layer_self["traffic"], values["traffic.steps"]
    )
    # The real bucket rate at the untraced pace — never flows x steps.
    untraced_wall = statistics.median(r.wall_s for r in reps)
    values["traffic.bucket_updates_per_s"] = (
        values["traffic.bucket_updates"] / untraced_wall
    )

    ticks = tracer.durations("core.controller.periodic", "core.controller.tick")
    if len(ticks) >= _MIN_TICKS_FOR_PERCENTILES:
        values["core.controller.tick_us_p50"] = float(np.percentile(ticks, 50)) * 1e6
        values["core.controller.tick_us_p99"] = float(np.percentile(ticks, 99)) * 1e6

    values["bench.import_s"] = import_s
    values["bench.reps"] = len(reps)
    values["bench.retries"] = retries
    values["bench.host_speed"] = statistics.median(r.host_speed for r in reps)
    values["bench.cpu_wall_ratio"] = statistics.median(
        r.cpu_s / r.wall_s for r in reps
    )
    values["bench.trace_overhead_ratio"] = traced.wall_s / untraced_wall
    values["bench.unattributed_s"] = traced.wall_s - sum(layer_self.values())
    return values
