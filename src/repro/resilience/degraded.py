"""Degraded-mode estimation: keep routing when the peer goes quiet.

Tango's one-way-delay selection needs the *peer's* measurements, mirrored
over the WAN.  When that feed goes stale past a configurable horizon the
controller must not freeze (nor quarantine every tunnel — a feed outage
is not a path outage): it downgrades to the measurement status quo the
paper argues Tango improves on — local RTT probing — and upgrades back
the moment the mirror heals.  This module provides the two pieces:

* :class:`RttFallbackEstimator` — a live, probe-cadence RTT/2 estimate
  stream per path, reusing the measurement model of
  :class:`~repro.baselines.rtt_probing.RttProbingBaseline` (same
  four-edge-crossing and two-host noise terms, same deterministic noise
  streams), feeding a local :class:`MeasurementStore` that the selector
  can be pointed at;
* :class:`DegradedModeConfig` — the controller-side knobs: which estimate
  store to fall back to, the staleness horizon that triggers the
  downgrade, the healthy-tick hysteresis for the upgrade, and the
  optional peer-trust monitor whose distrust forces the downgrade.

Mode transitions are recorded as :class:`ModeTransition` entries in the
controller's ``mode_log`` (and its write-ahead log when journaling).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

from ..netsim.delaymodels import normal_at
from ..netsim.events import PeriodicTask, Simulator
from ..telemetry.store import MeasurementStore
from ..validate import check_fields, int_in, positive

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..scenarios.deployment import PacketLevelDeployment
    from ..trust.policy import PeerTrustMonitor

__all__ = [
    "ModeTransition",
    "DegradedModeConfig",
    "RttFallbackEstimator",
]

#: Controller operating modes.
MODE_COOPERATIVE = "cooperative"
MODE_DEGRADED = "degraded"


@dataclass(frozen=True)
class ModeTransition:
    """One downgrade/upgrade of the estimation source.

    Attributes:
        t: simulation time of the transition.
        mode: the mode *entered* (``cooperative`` | ``degraded``).
        staleness_s: peer-feed staleness that triggered it (None when no
            path had ever been measured).
    """

    t: float
    mode: str
    staleness_s: Optional[float] = None


@dataclass(frozen=True)
class DegradedModeConfig:
    """Controller knobs for the cooperative -> RTT-probing downgrade.

    Attributes:
        estimates: local RTT/2 estimate store (usually an
            :class:`RttFallbackEstimator`'s ``estimates``) the data
            selector is re-pointed at while degraded.
        horizon_s: peer-feed staleness (age of the *freshest* mirrored
            sample across paths) beyond which the controller downgrades.
        heal_ticks: consecutive fresh control ticks required before
            upgrading back — hysteresis against a flapping mirror.
        trust: peer-trust monitor polled every control tick; while it
            distrusts the peer the controller routes on :attr:`estimates`
            whatever the feed's staleness, and does not heal.
    """

    estimates: MeasurementStore
    horizon_s: float = field(default=1.0, metadata={"check": positive})
    heal_ticks: int = field(default=2, metadata={"check": int_in(1)})
    trust: Optional["PeerTrustMonitor"] = None

    def __post_init__(self) -> None:
        check_fields(self)


class RttFallbackEstimator:
    """Live per-path RTT/2 estimates from local round-trip probing.

    The measurement model matches
    :class:`~repro.baselines.rtt_probing.RttProbingBaseline` (E7): each
    probe's RTT is forward + reverse true delay plus the absolute values
    of four edge-crossing and two host-stack noise draws, halved.  The
    noise is a pure function of (seed, time), so campaigns replay
    bit-exactly.  Unlike the offline baseline, this estimator runs *in*
    the simulation as a periodic task, appending to :attr:`estimates` —
    the store a degraded controller re-points its selector at.

    Args:
        sim: the deployment simulator.
        forward: fwd path_id -> that path's true delay model.
        reverse: rev path_id -> delay model; paired with forward paths by
            sorted-id order (the pairing a real prober gets implicitly).
        probe_interval_s: probing cadence (1 s is a generous pinger).
        edge_noise_sigma_s: per-edge-crossing noise stddev (x4 per RTT).
        host_noise_sigma_s: per-host noise stddev (x2 per RTT).
        seed: deterministic noise stream.
    """

    name = "rtt-fallback"

    def __init__(
        self,
        sim: Simulator,
        forward: dict[int, object],
        reverse: dict[int, object],
        probe_interval_s: float = 0.5,
        edge_noise_sigma_s: float = 0.35e-3,
        host_noise_sigma_s: float = 0.5e-3,
        seed: int = 900,
    ) -> None:
        positive("probe_interval_s", probe_interval_s)
        if len(forward) != len(reverse):
            raise ValueError(
                f"directions expose different path counts: "
                f"{len(forward)} vs {len(reverse)}"
            )
        if not forward:
            raise ValueError("need at least one path to probe")
        self.sim = sim
        self.probe_interval_s = probe_interval_s
        self.edge_noise_sigma_s = edge_noise_sigma_s
        self.host_noise_sigma_s = host_noise_sigma_s
        self.seed = seed
        self.estimates = MeasurementStore()
        self.probes = 0
        self._pairs = [
            (fwd_id, forward[fwd_id], reverse[rev_id])
            for fwd_id, rev_id in zip(sorted(forward), sorted(reverse))
        ]
        self._task: Optional[PeriodicTask] = None

    @classmethod
    def for_deployment(
        cls, deployment: PacketLevelDeployment, src: str, **kwargs
    ) -> "RttFallbackEstimator":
        """Build an estimator for traffic sent from ``src``.

        Forward models come from ``src``'s calibration table, reverse
        models from the peer's — the same tables
        :meth:`~repro.scenarios.deployment.PacketLevelDeployment.run_fast_campaign`
        samples.
        """
        dst = deployment.peer_of(src)
        forward = {
            t.path_id: deployment.calibrations[src][t.short_label].build(
                deployment.include_events
            )
            for t in deployment.tunnels(src)
        }
        reverse = {
            t.path_id: deployment.calibrations[dst][t.short_label].build(
                deployment.include_events
            )
            for t in deployment.tunnels(dst)
        }
        return cls(deployment.sim, forward, reverse, **kwargs)

    def start(self) -> PeriodicTask:
        """Begin probing; one RTT/2 estimate per path per interval."""
        if self._task is not None:
            raise RuntimeError("estimator already started")
        self._task = self.sim.call_every(self.probe_interval_s, self._probe)
        return self._task

    def stop(self) -> None:
        if self._task is not None:
            self._task.stop()
            self._task = None

    def _probe(self) -> None:
        now = self.sim.now
        self.probes += 1
        for index, (path_id, fwd_model, rev_model) in enumerate(self._pairs):
            noise_seed = self.seed + 7 * index
            edge = sum(normal_at(noise_seed + k, now) for k in range(4))
            host = sum(normal_at(noise_seed + 10 + k, now) for k in range(2))
            rtt = (
                fwd_model.delay_at(now)
                + rev_model.delay_at(now)
                + abs(edge) * self.edge_noise_sigma_s
                + abs(host) * self.host_noise_sigma_s
            )
            self.estimates.record(path_id, now, rtt / 2.0)
