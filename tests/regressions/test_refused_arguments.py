"""Arguments that used to slip past a guard, refused by name.

``AsPath.prepend`` guarded only ``count < 1``: a float count failed
deep inside tuple repetition with a ``TypeError`` and ``True`` prepended
once.  ``fluid_wait_s`` guarded ``service_s < 0``, which a NaN passes,
and clamped ``rho`` with ``min``/``max``, which hand a NaN through, so
either NaN came back as a NaN wait.

A delay draw quantizes its time to a 0.1 ms grid index.  For a time
with no int64 index (NaN, ±inf, or beyond about ±9.2e14 s) numpy's cast
gave INT64_MIN with only a warning, so ``delays`` returned a finite
delay, while ``delay_at`` raised a bare conversion error (NaN, inf) or
returned a *different* delay (1e300): the scalar and vector evaluations
of one model disagreed.  Both now refuse such a time, naming it.

argparse takes a value that starts with ``-`` and is not a plain number
for an option, so ``faults run --duration -inf`` exited with a usage
block ("expected one argument") where ``--duration -5`` got one line;
``failover --fail-at`` was not checked at all (``-inf`` and NaN ended in
a traceback from the scheduler).  Every float flag now takes ``-inf``,
``-infinity`` and ``-nan`` as values, and each is refused in one line.
"""

import math
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.bgp.attributes import AsPath
from repro.cli import main
from repro.netsim.delaymodels import (
    GaussianJitterDelay,
    InstabilityEvent,
    RouteChangeEvent,
    SpikeProcess,
    deterministic_uniform,
    hash_seeds,
    normal_grid,
    uniform_at,
)
from repro.traffic.fluid import fluid_wait_s


@pytest.mark.parametrize("count", [1.5, 2.0, True, False, "2", None])
def test_prepend_refuses_a_count_that_is_not_an_int(count):
    with pytest.raises(ValueError, match="count must be an int >= 1"):
        AsPath((1,)).prepend(5, count=count)


@pytest.mark.parametrize("count", [0, -1])
def test_prepend_refuses_a_count_below_one(count):
    with pytest.raises(ValueError, match="count must be an int >= 1"):
        AsPath((1,)).prepend(5, count=count)


def test_prepend_repeats_an_int_count():
    assert AsPath((1,)).prepend(5, count=3) == AsPath((5, 5, 5, 1))


@pytest.mark.parametrize(
    "rho, service_s, name",
    [(0.5, math.nan, "service_s"), (0.5, -1e-6, "service_s"), (math.nan, 1e-6, "rho")],
)
def test_fluid_wait_refuses_nan_and_negative_inputs(rho, service_s, name):
    with pytest.raises(ValueError, match=f"^{name} must"):
        fluid_wait_s(rho, service_s)


def test_fluid_wait_still_clamps_a_finite_rho():
    assert fluid_wait_s(-1.0, 1e-6) == 0.0
    assert fluid_wait_s(0.5, 2e-6) == pytest.approx(1e-6)
    assert fluid_wait_s(math.inf, 1e-6) == fluid_wait_s(1e9, 1e-6)


#: 2**63 grid quanta of 1e-4 s; 9.2e14 s is still on the grid.
OFF_GRID = [math.nan, math.inf, -math.inf, 1e300, -1e300, 9.3e14, -9.3e14]


def refused(t):
    return pytest.raises(
        ValueError, match="^" + re.escape(f"time {t!r} s has no noise-grid index")
    )


@pytest.mark.parametrize("t", OFF_GRID)
def test_jitter_refuses_an_off_grid_time_in_both_evaluations(t):
    model = GaussianJitterDelay(0.03, 0.001, seed=5)
    with refused(t):
        model.delays(np.array([t]))
    with refused(t):
        model.delay_at(t)


@pytest.mark.parametrize("t", OFF_GRID)
def test_every_draw_refuses_an_off_grid_time(t):
    spike = SpikeProcess(3000.0, 0.001, 0.006, seed=4)
    for draw in (
        lambda xs: deterministic_uniform(4, xs),
        lambda xs: normal_grid(hash_seeds([4, 5]), xs),
        spike.delays,
    ):
        with refused(t):
            draw(np.array([0.5, t, 1.5]))
    for draw in (lambda x: uniform_at(4, x), spike.delay_at):
        with refused(t):
            draw(t)


@pytest.mark.parametrize("t", [1e300, -1e300, 9.3e14, -9.3e14])
def test_an_event_refuses_an_off_grid_time_inside_its_window(t):
    for event in (
        InstabilityEvent(start=-1e301, duration=1e302, seed=4),
        RouteChangeEvent(start=-1e301, duration=1e302, transition=1e302, seed=4),
    ):
        with refused(t):
            event.extra_delays(np.array([t]))
        with refused(t):
            event.extra_at(t)


@given(t=st.floats(allow_nan=True, allow_infinity=True))
def test_scalar_and_vector_agree_on_every_float(t):
    model = GaussianJitterDelay(0.03, 0.001, seed=5)
    try:
        scalar = model.delay_at(t)
    except ValueError as refusal:
        with pytest.raises(ValueError, match=re.escape(str(refusal))):
            model.delays(np.array([t]))
    else:
        assert scalar == model.delays(np.array([t]))[0]


FLOAT_FLAGS = [
    (["campaign"], "--start-hour"),
    (["campaign"], "--hours"),
    (["campaign"], "--interval"),
    (["failover"], "--fail-at"),
    (["faults", "run"], "--duration"),
]


@pytest.mark.parametrize("value", ["-inf", "-infinity", "-nan", "-Inf", "nan"])
@pytest.mark.parametrize("command, flag", FLOAT_FLAGS, ids=lambda x: str(x))
def test_a_float_flag_refuses_a_signed_word_in_one_line(command, flag, value, capsys):
    assert main([*command, flag, value]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    (line,) = err.splitlines()
    assert line.startswith(f"tango-repro: {flag} must be finite")
