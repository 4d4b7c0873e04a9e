"""RON-style end-host overlay routing.

Overlay networks (RON, Detour) pioneered measurement-driven path choice,
but from *end hosts*: packets detour through overlay nodes in software,
and probing is active and sparse (RON probed each virtual link on the
order of seconds to minutes).  The paper's Section 2.2 critique: extra
infrastructure, software forwarding overheads, and end-host measurement
noise.

This baseline models an overlay deployed on the two edges' own hosts:

* it can use every underlying path (the overlay's virtual links ride the
  same transit networks);
* every forwarded packet pays the software/stack overhead and crosses
  the noisy edge segments (no border switch shortcut);
* its estimates refresh at overlay-probing cadence and carry end-host
  noise.
"""

from __future__ import annotations

import numpy as np

from ..analysis.replay import PolicyReplay, ReplayResult
from ..core.policy import LowestDelaySelector
from ..netsim.delaymodels import deterministic_normal
from ..telemetry.store import MeasurementStore
from ..validate import non_negative, positive
from .rtt_probing import sample_at

__all__ = ["OverlayBaseline"]


class OverlayBaseline:
    """Greedy overlay routing with software overheads.

    Args:
        fwd_true: forward ground truth per path.
        forwarding_overhead_s: per-packet software path cost (user-space
            forwarding, kernel crossings); RON-era numbers are
            milliseconds, a tuned modern stack still pays ~1 ms.
        probe_interval_s: overlay link-state probing cadence.
        host_noise_sigma_s: end-host measurement noise per sample.
    """

    name = "overlay"

    def __init__(
        self,
        fwd_true: MeasurementStore,
        forwarding_overhead_s: float = 1.0e-3,
        probe_interval_s: float = 10.0,
        host_noise_sigma_s: float = 0.5e-3,
        seed: int = 1300,
    ) -> None:
        non_negative("forwarding_overhead_s", forwarding_overhead_s)
        positive("probe_interval_s", probe_interval_s)
        self.fwd_true = fwd_true
        self.forwarding_overhead_s = forwarding_overhead_s
        self.probe_interval_s = probe_interval_s
        self.host_noise_sigma_s = host_noise_sigma_s
        self.seed = seed

    def build_estimates(self, t0: float, t1: float) -> MeasurementStore:
        """Sparse, noisy one-way estimates (overlay nodes can timestamp
        in software, but through their own jittery stacks)."""
        probe_times = np.arange(t0, t1, self.probe_interval_s)
        estimates = MeasurementStore()
        for index, path_id in enumerate(self.fwd_true.path_ids()):
            truth = sample_at(self.fwd_true, path_id, probe_times)
            noise = np.abs(
                deterministic_normal(self.seed + index, probe_times)
                * self.host_noise_sigma_s
            )
            estimates.extend(
                path_id, probe_times, truth + self.forwarding_overhead_s + noise
            )
        return estimates

    def run(
        self,
        t0: float,
        t1: float,
        decision_interval_s: float = 1.0,
        window_s: float = 30.0,
    ) -> ReplayResult:
        """Replay greedy overlay choice; achieved delays include the
        software forwarding overhead on every packet."""
        replay = PolicyReplay(
            self.fwd_true,
            decision_interval_s=decision_interval_s,
            visibility_latency_s=self.probe_interval_s,
        )
        selector = LowestDelaySelector(self.build_estimates(t0, t1), window_s)
        result = replay.run(selector, t0, t1, name=self.name)
        result.achieved = result.achieved + self.forwarding_overhead_s
        return result
