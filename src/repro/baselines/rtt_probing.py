"""End-to-end round-trip probing (the measurement status quo).

The paper's Section 2.1 lists why RTT probing from end hosts falls short:

1. end-to-end measurements are dominated by edge/host noise (wireless
   retransmissions, hypervisor scheduling) — four edge crossings and two
   host stacks per RTT sample;
2. a round-trip cannot be decomposed into its two one-way components, so
   a purely directional event is averaged down by the quiet reverse path;
3. probing is sparse (probes are extra traffic, so they run at seconds
   cadence, not per-packet).

This baseline grants RTT probing Tango's *path diversity* (it may choose
any of the discovered paths) and handicaps it only with its own
measurement model — isolating measurement quality as the variable, which
is exactly the one-way-vs-RTT ablation (DESIGN.md E7).
"""

from __future__ import annotations

import numpy as np

from ..analysis.replay import PolicyReplay, ReplayResult
from ..core.policy import LowestDelaySelector
from ..netsim.delaymodels import deterministic_normal
from ..telemetry.store import MeasurementStore
from ..validate import positive

__all__ = ["RttProbingBaseline", "sample_at"]


class RttProbingBaseline:
    """Greedy path choice over noisy RTT/2 estimates.

    Args:
        fwd_true: ground-truth forward one-way delays per path.
        rev_true: ground-truth reverse one-way delays per path; paired
            with forward paths by sorted index order.
        probe_interval_s: probing cadence (1 s is a generous pinger).
        edge_noise_sigma_s: stddev of *each* edge-network crossing's
            noise contribution; an RTT crosses four edges.
        host_noise_sigma_s: stddev of end-host processing noise (two
            hosts per RTT).
        seed: noise stream.
    """

    name = "rtt-probing"

    def __init__(
        self,
        fwd_true: MeasurementStore,
        rev_true: MeasurementStore,
        probe_interval_s: float = 1.0,
        edge_noise_sigma_s: float = 0.35e-3,
        host_noise_sigma_s: float = 0.5e-3,
        seed: int = 900,
    ) -> None:
        positive("probe_interval_s", probe_interval_s)
        self.fwd_true = fwd_true
        self.rev_true = rev_true
        self.probe_interval_s = probe_interval_s
        self.edge_noise_sigma_s = edge_noise_sigma_s
        self.host_noise_sigma_s = host_noise_sigma_s
        self.seed = seed

    def build_estimates(self, t0: float, t1: float) -> MeasurementStore:
        """Per-path RTT/2 estimate series — what the prober believes.

        Forward path ``i`` is paired with reverse path ``i`` (index
        order), the pairing a real prober gets implicitly by sending the
        probe and its reply over each direction's selected route.
        """
        fwd_ids = self.fwd_true.path_ids()
        rev_ids = self.rev_true.path_ids()
        if len(fwd_ids) != len(rev_ids):
            raise ValueError(
                f"directions expose different path counts: "
                f"{len(fwd_ids)} vs {len(rev_ids)}"
            )
        estimates = MeasurementStore()
        probe_times = np.arange(t0, t1, self.probe_interval_s)
        if probe_times.size == 0:
            raise ValueError(f"no probe instants in [{t0}, {t1})")
        for index, (fwd_id, rev_id) in enumerate(zip(fwd_ids, rev_ids)):
            fwd = sample_at(self.fwd_true, fwd_id, probe_times)
            rev = sample_at(self.rev_true, rev_id, probe_times)
            noise_seed = self.seed + 7 * index
            edge = sum(
                deterministic_normal(noise_seed + k, probe_times)
                * self.edge_noise_sigma_s
                for k in range(4)
            )
            host = sum(
                deterministic_normal(noise_seed + 10 + k, probe_times)
                * self.host_noise_sigma_s
                for k in range(2)
            )
            rtt = fwd + rev + np.abs(edge) + np.abs(host)
            estimates.extend(fwd_id, probe_times, rtt / 2.0)
        return estimates

    def run(
        self,
        t0: float,
        t1: float,
        decision_interval_s: float = 1.0,
        window_s: float = 5.0,
    ) -> ReplayResult:
        """Replay greedy selection over the RTT/2 estimates.

        Achieved delay is scored against the *forward* truth — the
        direction the prober thinks it is optimizing.
        """
        replay = PolicyReplay(
            self.fwd_true,
            decision_interval_s=decision_interval_s,
            visibility_latency_s=self.probe_interval_s,
        )
        selector = LowestDelaySelector(self.build_estimates(t0, t1), window_s)
        return replay.run(selector, t0, t1, name=self.name)


def sample_at(store: MeasurementStore, path_id: int, at: np.ndarray) -> np.ndarray:
    """Nearest-earlier sample of a path's true series at each instant."""
    series = store.series(path_id)
    times, values = series.times, series.values
    if times.size == 0:
        raise ValueError(f"path {path_id} has no ground-truth samples")
    idx = np.clip(np.searchsorted(times, at, side="right") - 1, 0, None)
    return values[idx]
