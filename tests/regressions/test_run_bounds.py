"""Run lengths and probe intervals that used to run something else.

``Simulator.run(until=nan)`` stopped only when the queue emptied, since
no event time is after NaN, so with a periodic task scheduled it never
returned: ``tango-repro faults run --duration nan`` hung, and
``--duration -5`` ran nothing and printed a recovery log.

``interval_s or probe_interval_s`` turned a zero probe interval into
the 10 ms default (``campaign --interval 0`` printed a 360,000-sample
table), a negative one gave empty stores, and ``t1_s <= t0_s`` let a
NaN window through to ``np.arange``.  Each is now refused by name, and
the CLI exits 2 with one line.
"""

import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import main
from repro.netsim.events import Simulator
from repro.scenarios.vultr import VultrDeployment

SRC = str(Path(__file__).resolve().parents[2] / "src")


def test_run_until_nan_is_refused_before_any_event():
    sim = Simulator()
    ticks = []
    sim.call_every(0.1, lambda: ticks.append(sim.now))
    with pytest.raises(ValueError, match="nan"):
        sim.run(until=math.nan, max_events=1000)
    assert ticks == [] and sim.now == 0.0
    sim.run(until=0.35)
    assert len(ticks) == 4


@pytest.mark.parametrize("duration", ["nan", "inf", "0", "-5"])
def test_faults_run_refuses_a_duration_with_one_line(duration):
    # A child with a deadline: a duration that is not refused runs the
    # whole plan, or (NaN, inf) forever.
    child = subprocess.run(
        [sys.executable, "-m", "repro.cli", "faults", "run", "--duration", duration],
        capture_output=True,
        text=True,
        timeout=120,
        env={**os.environ, "PYTHONPATH": SRC},
    )
    assert child.returncode == 2
    assert child.stdout == ""
    (line,) = child.stderr.splitlines()
    assert line.startswith("tango-repro: --duration must be")


@pytest.mark.parametrize(
    "args, flag",
    [
        (["--interval", "0"], "--interval"),
        (["--interval", "nan"], "--interval"),
        (["--interval", "-1"], "--interval"),
        (["--hours", "nan"], "--hours"),
        (["--hours", "-1"], "--hours"),
        (["--hours", "0"], "--hours"),
        (["--start-hour", "nan"], "--start-hour"),
        (["--start-hour", "inf"], "--start-hour"),
    ],
)
def test_campaign_refuses_a_window_or_interval_with_one_line(args, flag, capsys):
    assert main(["campaign", *args]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    (line,) = err.splitlines()
    assert line.startswith(f"tango-repro: {flag} must be")


@pytest.fixture(scope="module")
def deployment():
    deployment = VultrDeployment(include_events=False)
    deployment.establish()
    return deployment


@pytest.mark.parametrize("interval", [0.0, -0.01, math.nan, math.inf])
def test_a_probe_interval_is_never_the_default_in_disguise(deployment, interval):
    with pytest.raises(ValueError, match="interval"):
        deployment.run_fast_campaign("ny", 0.0, 1.0, interval_s=interval)
    with pytest.raises(ValueError, match="interval"):
        deployment.start_path_probes("ny", interval_s=interval)


@pytest.mark.parametrize(
    "t0, t1", [(0.0, math.nan), (math.nan, 1.0), (-math.inf, 1.0), (1.0, 1.0)]
)
def test_a_campaign_window_is_finite_and_forward(deployment, t0, t1):
    with pytest.raises(ValueError, match="t1|t0"):
        deployment.run_fast_campaign("ny", t0, t1)


def test_an_omitted_interval_is_the_pairing_default(deployment):
    measured, _ = deployment.run_fast_campaign("ny", 0.0, 0.1)
    interval = deployment.pairing.probe_interval_s
    for path_id in measured.path_ids():
        assert len(measured.series(path_id)) == round(0.1 / interval)
