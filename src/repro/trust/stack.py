"""One-call assembly of the Byzantine-peer defense for a deployment edge.

The full stack for an edge ``E`` defending its outbound direction:

* the data plane authenticates piggybacked telemetry end-to-end (enabled
  by the deployment's ``auth_key``); the *peer's* receiver gateway is
  where tampered packets fail their MACs, and its forgery counters are
  the cooperatively-shared evidence ``E``'s trust monitor polls;
* the reliable telemetry channel feeding ``E`` tags and verifies its
  report records, and gates every delivered sample through a
  :class:`~repro.trust.plausibility.PlausibilityFilter` backed by ``E``'s
  own :class:`~repro.resilience.degraded.RttFallbackEstimator` envelope
  and (optionally) a :class:`~repro.trust.clock.ClockIntegrityMonitor`;
* a :class:`~repro.trust.policy.PeerTrustMonitor` accumulates the
  evidence and, carried into ``E``'s controller by the degraded config,
  demotes selection to local-RTT mode while distrusted.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from ..resilience.channel import ReliableTelemetryChannel
from ..resilience.degraded import DegradedModeConfig, RttFallbackEstimator
from ..telemetry.auth import TelemetryAuthenticator
from .clock import ClockIntegrityMonitor
from .plausibility import PlausibilityFilter
from .policy import PeerTrustMonitor, PeerTrustPolicy

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..scenarios.deployment import PacketLevelDeployment

__all__ = ["DefenseStack", "install_defense"]

#: Local RTT fallback probing cadence under the defense stack (the
#: estimator's own default is 0.5 s).
PROBE_INTERVAL_S = 0.25


@dataclass
class DefenseStack:
    """Everything :func:`install_defense` built for one edge."""

    edge: str
    estimator: RttFallbackEstimator
    monitor: ClockIntegrityMonitor
    gate: PlausibilityFilter
    trust: PeerTrustMonitor
    degraded: DegradedModeConfig
    channel: ReliableTelemetryChannel


def install_defense(
    deployment: "PacketLevelDeployment",
    edge: str,
    key: bytes,
    horizon_s: float = 1.0,
) -> DefenseStack:
    """Arm the full defense stack for ``edge``'s outbound direction.

    Requires an established deployment running the reliable telemetry
    channel (the gate and record MACs live in its delivery path).  The
    returned stack's :attr:`DefenseStack.degraded` is the ``degraded``
    argument of the edge's :class:`~repro.core.controller.TangoController`.

    Args:
        deployment: established :class:`PacketLevelDeployment`.
        edge: the defended (victim) edge name.
        key: shared MAC key for the channel's record tags (the data-plane
            tags use the deployment's ``auth_key``; passing the same key
            models one per-pairing secret).
        horizon_s: degraded-mode staleness horizon.
    """
    if deployment.state is None:
        raise RuntimeError("deployment must be established before arming defense")
    peer = deployment.peer_of(edge)
    estimator = RttFallbackEstimator.for_deployment(
        deployment, edge, probe_interval_s=PROBE_INTERVAL_S
    )
    estimator.start()
    monitor = ClockIntegrityMonitor()
    gate = PlausibilityFilter(envelope=estimator.estimates, monitor=monitor)
    channel = deployment.session.channel_to(edge)
    channel.authenticator = TelemetryAuthenticator(key)
    channel.gate = gate

    sources = {
        "channel-auth": lambda: channel.stats.records_forged,
        "plausibility": lambda: gate.rejected,
    }
    peer_auth = deployment.gateways[peer].authenticator
    if peer_auth is not None:
        # Forgery evidence accumulates where our outbound packets are
        # *received* — at the peer.  The edges cooperate by configuration,
        # so the peer shares its counters (in deployment: over the report
        # channel; here: read directly).
        sources["dataplane-auth"] = lambda: (
            peer_auth.stats.rejected + peer_auth.stats.replayed
        )
    trust = PeerTrustMonitor(PeerTrustPolicy(), sources, name=f"{edge}<-{peer}")
    degraded = DegradedModeConfig(
        estimates=estimator.estimates, horizon_s=horizon_s, trust=trust
    )
    stack = DefenseStack(
        edge=edge,
        estimator=estimator,
        monitor=monitor,
        gate=gate,
        trust=trust,
        degraded=degraded,
        channel=channel,
    )
    deployment.defenses[edge] = stack
    return stack
