"""Arguments that used to slip past a guard, refused by name.

``AsPath.prepend`` guarded only ``count < 1``: a float count failed
deep inside tuple repetition with a ``TypeError`` and ``True`` prepended
once.  ``fluid_wait_s`` guarded ``service_s < 0``, which a NaN passes,
and clamped ``rho`` with ``min``/``max``, which hand a NaN through, so
either NaN came back as a NaN wait.
"""

import math

import pytest

from repro.bgp.attributes import AsPath
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
