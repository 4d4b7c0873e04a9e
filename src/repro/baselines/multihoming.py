"""Multi-homed route control: one side, few paths, round-trip visibility.

The best-studied alternative (paper Section 2.2): a multi-homed stub
picks its egress among its own providers.  Its structural limits, which
this baseline models explicitly:

* **One direction.**  The stub controls which provider its *outbound*
  packets use; the reverse direction follows whatever the remote's BGP
  picked — optimizing it is out of reach.
* **Few paths.**  The choice set is the stub's own provider count
  (``accessible_paths``), not the full cooperative path set.
* **Round-trip visibility.**  Its border device can count volumes and
  time request/response pairs, but cannot see one-way delays; estimates
  are RTT-based with the reverse leg fixed to the remote's default.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..analysis.replay import PolicyReplay, ReplayResult
from ..core.policy import LowestDelaySelector
from ..netsim.delaymodels import deterministic_normal
from ..telemetry.store import MeasurementStore
from .rtt_probing import sample_at

__all__ = ["MultihomingBaseline"]


class MultihomingBaseline:
    """Greedy egress choice among the stub's own providers.

    Args:
        fwd_true: forward ground truth per path.
        rev_true: reverse ground truth per path; the *remote-default*
            reverse path (lowest id) is the fixed return leg.
        accessible_paths: forward path ids the stub can actually reach
            via its own providers (a strict subset in the scenarios).
        measurement_noise_sigma_s: RTT timing noise at the border device.
        probe_interval_s: estimate refresh cadence.
    """

    name = "multihoming"

    def __init__(
        self,
        fwd_true: MeasurementStore,
        rev_true: MeasurementStore,
        accessible_paths: Sequence[int],
        measurement_noise_sigma_s: float = 0.2e-3,
        probe_interval_s: float = 1.0,
        seed: int = 1100,
    ) -> None:
        if not accessible_paths:
            raise ValueError("a multihomed stub needs at least one provider")
        self.fwd_true = fwd_true
        self.rev_true = rev_true
        self.accessible_paths = sorted(accessible_paths)
        self.measurement_noise_sigma_s = measurement_noise_sigma_s
        self.probe_interval_s = probe_interval_s
        self.seed = seed

    def build_estimates(self, t0: float, t1: float) -> MeasurementStore:
        """RTT/2 estimates over the accessible forward paths only."""
        rev_ids = self.rev_true.path_ids()
        if not rev_ids:
            raise ValueError("reverse ground truth is empty")
        rev_default = rev_ids[0]
        probe_times = np.arange(t0, t1, self.probe_interval_s)
        estimates = MeasurementStore()
        rev = sample_at(self.rev_true, rev_default, probe_times)
        for index, path_id in enumerate(self.accessible_paths):
            fwd = sample_at(self.fwd_true, path_id, probe_times)
            noise = (
                deterministic_normal(self.seed + index, probe_times)
                * self.measurement_noise_sigma_s
            )
            estimates.extend(path_id, probe_times, (fwd + rev) / 2.0 + np.abs(noise))
        return estimates

    def run(
        self,
        t0: float,
        t1: float,
        decision_interval_s: float = 1.0,
        window_s: float = 5.0,
    ) -> ReplayResult:
        """Replay over the accessible subset, scored on forward truth."""
        replay = PolicyReplay(
            self.fwd_true,
            decision_interval_s=decision_interval_s,
            visibility_latency_s=self.probe_interval_s,
        )
        selector = LowestDelaySelector(self.build_estimates(t0, t1), window_s)
        return replay.run(
            selector, t0, t1, name=self.name, restrict_paths=self.accessible_paths
        )
