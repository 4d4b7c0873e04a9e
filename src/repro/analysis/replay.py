"""Campaign-scale policy replay.

Packet-level simulation is exact but too slow for multi-hour traces; the
replay runs the data-plane selectors against a sampled campaign instead:

* at each *decision epoch* the selector is asked, as the sender program
  asks it per packet, to ``select`` among one candidate tunnel per path
  — at time ``epoch - visibility_latency_s``, so its store reads stop at
  what the mirror had delivered by then (report interval plus
  reverse-path delay);
* between epochs the selected path is fixed, and the *achieved* delay at
  each probe instant is the **true** delay of the selected path.

Any :class:`~repro.dataplane.programs.PathSelector` replays: the
:mod:`repro.core.policy` classes, :class:`~repro.core.policy.GuardedSelector`
and :class:`~repro.srlg.diversity.FateAwareSelector` wrappers.  What the
policy may see, its trailing window and its no-data fallback are the
selector's own ``store``, ``window_s`` and ``fallback_index``.  A 540 s
window at a 0.1 s decision cadence replays in 0.2-0.5 s.
"""

from __future__ import annotations

import ipaddress
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from ..bgp.messages import as_ipv6_prefix
from ..core.tunnels import TangoTunnel
from ..dataplane.programs import PathSelector
from ..netsim.packet import Packet
from ..telemetry.store import MeasurementStore
from ..validate import non_negative, positive

__all__ = ["ReplayResult", "PolicyReplay"]


@dataclass
class ReplayResult:
    """Outcome of replaying one policy over a campaign window."""

    name: str
    times: np.ndarray
    achieved: np.ndarray
    choices: np.ndarray  # chosen path id per probe sample
    switch_count: int

    @property
    def mean_delay(self) -> float:
        return float(np.mean(self.achieved))

    @property
    def p99_delay(self) -> float:
        return float(np.percentile(self.achieved, 99))

    @property
    def max_delay(self) -> float:
        return float(np.max(self.achieved))

    def fraction_on_path(self, path_id: int) -> float:
        return float(np.mean(self.choices == path_id))

    def as_row(self) -> dict:
        return {
            "policy": self.name,
            "mean_ms": self.mean_delay * 1e3,
            "p99_ms": self.p99_delay * 1e3,
            "max_ms": self.max_delay * 1e3,
            "switches": self.switch_count,
        }


class PolicyReplay:
    """Replays data-plane selectors against a campaign's ground truth.

    Args:
        true: ground-truth per-path delays used to score decisions.
        decision_interval_s: how often the policy re-decides (the
            controller cadence).
        visibility_latency_s: freshness of mirrored measurements.
    """

    def __init__(
        self,
        true: MeasurementStore,
        decision_interval_s: float = 0.1,
        visibility_latency_s: float = 0.1,
    ) -> None:
        positive("decision_interval_s", decision_interval_s)
        non_negative("visibility_latency_s", visibility_latency_s)
        self.true = true
        self.decision_interval_s = decision_interval_s
        self.visibility_latency_s = visibility_latency_s

    def run(
        self,
        selector: PathSelector,
        t0: float,
        t1: float,
        name: str = "policy",
        restrict_paths: Optional[Sequence[int]] = None,
    ) -> ReplayResult:
        """Replay ``selector`` over [t0, t1).

        Args:
            selector: the policy; it reads its own measured store —
                clock-offset distorted and mirror-delayed, unlike
                ``true``.  Indices it holds (``StaticSelector.index``,
                ``fallback_index``) count into the sorted path ids.
            restrict_paths: limit the choice set (multihoming baseline).
        """
        path_ids = sorted(
            self.true.path_ids() if restrict_paths is None else restrict_paths
        )
        if not path_ids:
            raise ValueError("no paths to replay over")
        fallback = getattr(selector, "fallback_index", 0)
        if not 0 <= fallback < len(path_ids):
            raise ValueError(
                f"selector fallback_index {fallback} is outside the "
                f"{len(path_ids)} replayed paths"
            )
        # Probe timeline comes from the true store of the first path.
        probe_times, _ = self.true.series(path_ids[0]).window(t0, t1)
        if probe_times.size == 0:
            raise ValueError(f"true store has no samples in [{t0}, {t1})")
        true_values = {
            p: self.true.series(p).window(t0, t1)[1] for p in path_ids
        }
        for p, v in true_values.items():
            if v.size != probe_times.size:
                raise ValueError(
                    f"path {p} probe grid mismatch: {v.size} vs {probe_times.size}"
                )
        candidates = [_candidate(p) for p in path_ids]
        # A decision per epoch, not per packet: the default flow class.
        packet = Packet(headers=[])
        epochs = np.arange(t0, t1, self.decision_interval_s)
        # Each epoch's choice governs probes in [epoch_i, epoch_{i+1});
        # slicing by consecutive boundaries (not epoch + interval) keeps
        # coverage gap-free under floating-point drift.
        boundaries = np.searchsorted(probe_times, epochs, side="left")
        boundaries = np.append(boundaries, probe_times.size)
        choices = np.empty(probe_times.size, dtype=np.int64)
        current: Optional[int] = None
        switch_count = 0
        for i, epoch in enumerate(epochs):
            # An epoch governing zero probes (past the last sample, or
            # several decisions between two probes) can neither observe
            # nor affect anything — skip it, so switch_count always
            # equals the number of transitions visible in ``choices``.
            if boundaries[i] == boundaries[i + 1]:
                continue
            chosen = selector.select(
                candidates, packet, float(epoch) - self.visibility_latency_s
            ).path_id
            if chosen not in true_values:
                raise ValueError(f"selector picked unknown path {chosen}")
            if current is not None and chosen != current:
                switch_count += 1
            current = chosen
            choices[boundaries[i] : boundaries[i + 1]] = current
        achieved = np.empty(probe_times.size, dtype=np.float64)
        for p in path_ids:
            mask = choices == p
            achieved[mask] = true_values[p][mask]
        return ReplayResult(
            name=name,
            times=probe_times.copy(),
            achieved=achieved,
            choices=choices,
            switch_count=switch_count,
        )


_NO_ADDRESS = ipaddress.IPv6Address("::")


def _candidate(path_id: int) -> TangoTunnel:
    """The tunnel a selector is offered for a campaign path: the id is
    all a sampled campaign knows, so the addresses are unspecified."""
    return TangoTunnel(
        path_id=path_id,
        label=f"path-{path_id}",
        local_endpoint=_NO_ADDRESS,
        remote_endpoint=_NO_ADDRESS,
        remote_prefix=as_ipv6_prefix("::/128"),
    )
