"""Golden replays: the data-plane selectors decide what the choosers did.

The sha256 digests under ``golden/`` were captured on the commit *before*
``PolicyReplay`` drove :mod:`repro.core.policy`, from the replay's own
copy of the four policies (the chooser family, since deleted).  Each case
replays reduced E3 / E4 windows and dumps one line per policy: switch
count, a digest of the per-probe choices, and the mean / p99 achieved
delay to the last bit.

Regenerate (only when a change is *meant* to alter decisions)::

    PYTHONPATH=src:. python tests/analysis/test_golden_replay.py
"""

import hashlib
from pathlib import Path

import pytest

from repro.analysis.replay import PolicyReplay, ReplayResult
from repro.baselines import MultihomingBaseline
from repro.core.policy import (
    HysteresisSelector,
    JitterAwareSelector,
    LowestDelaySelector,
    StaticSelector,
)
from repro.scenarios.vultr import (
    INSTABILITY_HOUR,
    ROUTE_CHANGE_HOUR,
    VultrDeployment,
)
from tests import golden

GOLDEN = Path(__file__).parent / "golden" / "replay.json"
GTT = 2
E3 = (ROUTE_CHANGE_HOUR * 3600.0 - 60.0, ROUTE_CHANGE_HOUR * 3600.0 + 180.0)
E4 = (INSTABILITY_HOUR * 3600.0 - 30.0, INSTABILITY_HOUR * 3600.0 + 90.0)


def line(result: ReplayResult) -> str:
    choices = hashlib.sha256(result.choices.tobytes()).hexdigest()
    return (
        f"{result.name} switches={result.switch_count} choices={choices} "
        f"mean={result.mean_delay!r} p99={result.p99_delay!r}\n"
    )


def four_policies(window, interval_s: float, decision_interval_s: float) -> str:
    deployment = VultrDeployment()
    deployment.establish()
    t0, t1 = window
    measured, true = deployment.run_fast_campaign("ny", t0, t1, interval_s)
    replay = PolicyReplay(true, decision_interval_s=decision_interval_s)
    policies = {
        "static": StaticSelector(GTT),
        "greedy": LowestDelaySelector(measured, fallback_index=GTT),
        "hysteresis": HysteresisSelector(
            measured, margin_s=0.0005, dwell_s=5.0, fallback_index=GTT
        ),
        "jitter-aware": JitterAwareSelector(
            measured, jitter_weight=3.0, fallback_index=GTT
        ),
    }
    return "".join(
        line(replay.run(selector, t0, t1, name=name))
        for name, selector in policies.items()
    )


def multihoming() -> str:
    """The ``restrict_paths`` case: greedy over providers {0, 1} only."""
    deployment = VultrDeployment()
    deployment.establish()
    t0, t1 = E4
    _, fwd_true = deployment.run_fast_campaign("ny", t0, t1, 0.01)
    baseline = MultihomingBaseline(fwd_true, fwd_true, accessible_paths=[0, 1])
    return line(baseline.run(t0, t1))


CASES = {
    "e3_route_change": lambda: four_policies(E3, 0.1, 1.0),
    "e4_instability": lambda: four_policies(E4, 0.01, 0.5),
    "e4_multihoming": multihoming,
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_replay_is_byte_identical_to_golden(name):
    text = CASES[name]()
    assert golden.digest(text) == golden.load(GOLDEN)[name], text


if __name__ == "__main__":
    golden.regenerate(
        GOLDEN, {name: golden.digest(run()) for name, run in sorted(CASES.items())}
    )
