"""Host-speed probe: a fixed kernel timed around every measured window.

The 2-core hosts this benchmark runs on change speed in plateaus tens of
seconds long (a pure-Python loop was seen to take anywhere from 0.106 to
0.140 s), far more than any bound a timing metric may carry.  ROADMAP
wants wall-clock compared only as ratios, so every timed window is
bracketed by this probe and reported in *reference-host seconds*:
measured seconds times ``REFERENCE_PROBE_S / probe``.  A window whose two
probes disagree saw the host change speed under it and is measured again
(see ``runner``).

The kernel mixes interpreter work (integer arithmetic, dict stores) with
small-array numpy calls, the two things the simulator spends its time
on.  It is part of the unit: change it and every recorded time changes.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

__all__ = ["REFERENCE_PROBE_S", "probe", "host_speed", "same_speed"]

#: The probe's time on the host the workloads were sized on; times are
#: reported as they would read at this speed.
REFERENCE_PROBE_S = 0.0075

#: Two probes further apart than this did not see the same host speed.
_SAME_SPEED_RATIO = 1.06

_CHUNKS = 7


def _chunk() -> float:
    start = time.perf_counter()
    total = 0
    table: dict[int, int] = {}
    for i in range(60_000):
        total += i * i
        table[i & 255] = total
    grid = np.arange(16, dtype=np.float64)
    for _ in range(3_000):
        total += int(np.floor(grid / 1e-4).astype(np.int64)[0])
    return time.perf_counter() - start


def probe() -> float:
    """Median chunk time in seconds (about 60 ms in all)."""
    return statistics.median(_chunk() for _ in range(_CHUNKS))


def host_speed(*probes_s: float) -> float:
    """Speed the probes saw: 1.0 on the reference host, below 1 on a
    slower one.  Measured seconds times this are reference-host seconds."""
    return REFERENCE_PROBE_S * len(probes_s) / sum(probes_s)


def same_speed(before_s: float, after_s: float) -> bool:
    """Did the host keep its speed between two probes?"""
    low, high = sorted((before_s, after_s))
    return high <= _SAME_SPEED_RATIO * low
