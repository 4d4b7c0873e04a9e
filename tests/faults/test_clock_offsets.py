"""Routing decisions depend on the edges' absolute clock offsets
(EXPERIMENTS.md "Known deviations").

The premise of one-way delay routing is that the offset between two
sites' clocks is constant, so *relative* comparisons are sound.  Shifting
both edges' clocks by the same amount leaves every relative comparison
unchanged, so nothing the controllers decide should move.  It does: the
telemetry mirror, sample ages and trailing windows compare the
simulator's true time with the far switch's local stamps, so mirror
lag, staleness and every window shift by the far clock's offset.  At
+0.1 s on both clocks the ``chaos_replay`` spine run detects the
``la:NTT`` blackhole outside its budget and its digest changes.  The
test is a strict xfail, so the fix that puts each comparison in one
clock domain must flip it to a plain pass.
"""

import pytest

from bench.workloads.chaos_replay import ChaosReplay
from repro.scenarios import vultr


def replay(monkeypatch, ny_s, la_s):
    """``chaos_replay``'s full plan at seed 42 with both edges' clocks
    at the given offsets: (digest, {check: ok})."""
    monkeypatch.setattr(vultr, "CLOCK_OFFSET_NY", ny_s)
    monkeypatch.setattr(vultr, "CLOCK_OFFSET_LA", la_s)
    workload = ChaosReplay()
    scenario = workload.setup(workload.plan(42, smoke=False))
    workload.run(scenario)
    outcome = workload.finish(scenario)
    return outcome.digest, {c.name: c.ok for c in outcome.checks}


@pytest.mark.xfail(
    strict=True,
    reason="mirror release, sample ages and windows compare true time "
    "with local clock stamps (ROADMAP §A8)",
)
def test_a_common_clock_shift_changes_no_decision(monkeypatch):
    base_digest, base_checks = replay(monkeypatch, 0.0, 0.0)
    shifted_digest, shifted_checks = replay(monkeypatch, 0.1, 0.1)
    assert all(base_checks.values()), base_checks
    assert all(shifted_checks.values()), shifted_checks
    assert shifted_digest == base_digest
