"""Integration: the assembled defense stack against a live tamper attack.

One defended victim deployment, one telemetry_tamper plan making a truly
worse path appear best.  The module-scoped fixture runs the simulation
once; the tests assert the separate layers of the defense narrative on
its artifacts.
"""

import pytest

from repro.core.controller import (
    MODE_COOPERATIVE,
    MODE_DEGRADED,
    QuarantinePolicy,
)
from repro.core.policy import LowestDelaySelector
from repro.faults import FaultEvent, FaultInjector, FaultPlan
from repro.netsim.trace import PacketFactory
from repro.resilience.channel import ChannelConfig
from repro.scenarios.vultr import VultrDeployment
from repro.trust import TRUST_TRUSTED, install_defense
from repro.trust.policy import PeerTrustMonitor, PeerTrustPolicy

KEY = b"stack-test-key-16b"
ATTACK_AT, ATTACK_FOR = 4.0, 6.0
HORIZON = 20.0


@pytest.fixture(scope="module")
def campaign():
    d = VultrDeployment(
        include_events=False, auth_key=KEY, telemetry_channel=ChannelConfig()
    )
    d.establish()
    d.start_path_probes("ny", interval_s=0.05)
    stack = install_defense(d, "ny", KEY)
    controller = d.start_controller(
        "ny",
        LowestDelaySelector(d.gateway("ny").outbound, window_s=1.0),
        interval_s=0.1,
        staleness_s=0.5,
        quarantine=QuarantinePolicy(),
        degraded=stack.degraded,
    )
    plan = FaultPlan(
        name="tamper-ntt",
        seed=7,
        events=(
            FaultEvent(
                "telemetry_tamper",
                at=ATTACK_AT,
                duration=ATTACK_FOR,
                params={"src": "ny", "path": "NTT", "bias_ms": 12.0},
            ),
        ),
    )
    FaultInjector(d, plan).arm()
    factory = PacketFactory(
        src=str(d.pairing.a.host_address(4)),
        dst=str(d.pairing.b.host_address(4)),
        flow_label=9,
    )
    send = d.sender_for("ny")
    d.sim.call_every(0.02, lambda: send(factory.build()))
    d.net.run(until=HORIZON)
    return d, controller, stack


class TestInstallation:
    def test_requires_established_deployment(self):
        d = VultrDeployment(
            include_events=False, auth_key=KEY, telemetry_channel=ChannelConfig()
        )
        with pytest.raises(RuntimeError, match="establish"):
            install_defense(d, "ny", KEY)

    def test_stack_registered_on_deployment(self, campaign):
        d, _, stack = campaign
        assert d.defenses["ny"] is stack
        assert stack.degraded.trust is stack.trust

    def test_sources_cover_all_evidence_layers(self, campaign):
        _, _, stack = campaign
        assert set(stack.trust.sources) == {
            "channel-auth",
            "plausibility",
            "dataplane-auth",
        }


class TestDefenseNarrative:
    def test_tampered_packets_rejected_at_peer_receiver(self, campaign):
        d, _, _ = campaign
        stats = d.gateways["la"].authenticator.stats
        assert stats.rejected > 50  # bias kept the stale MAC: forged
        assert stats.verified > 1000  # honest traffic still flows

    def test_never_steered_onto_tampered_path(self, campaign):
        d, controller, _ = campaign
        ntt = next(
            t.path_id for t in d.tunnels("ny") if t.short_label == "NTT"
        )
        during = [
            int(v)
            for t, v in zip(
                controller.choice_trace.times, controller.choice_trace.values
            )
            if ATTACK_AT <= t <= ATTACK_AT + ATTACK_FOR + 1.0
        ]
        assert during, "no choices recorded during the attack window"
        assert ntt not in during

    def test_tampered_path_quarantined(self, campaign):
        _, controller, _ = campaign
        quarantined = [
            e for e in controller.quarantine_log if e.label == "NTT"
        ]
        assert any(e.action == "quarantine" for e in quarantined)

    def test_trust_distrusts_then_heals(self, campaign):
        _, _, stack = campaign
        states = [e.state for e in stack.trust.events]
        assert "distrusted" in states
        assert stack.trust.state == TRUST_TRUSTED  # healed post-attack
        assert stack.trust.sources["dataplane-auth"]() > 50

    def test_distrust_forced_degraded_mode_then_recovered(self, campaign):
        _, controller, stack = campaign
        modes = [m.mode for m in controller.mode_log]
        assert MODE_DEGRADED in modes
        assert controller.mode == MODE_COOPERATIVE
        distrust_t = next(
            e.t for e in stack.trust.events if e.state == "distrusted"
        )
        degraded_t = next(
            m.t for m in controller.mode_log if m.mode == MODE_DEGRADED
        )
        # Demotion lands within a tick of the distrust verdict.
        assert degraded_t == pytest.approx(distrust_t, abs=0.2)

    def test_journal_free_poll_returns_state_changes(self):
        """PeerTrustMonitor.poll reports transitions for journaling."""
        count = [0]
        monitor = PeerTrustMonitor(
            PeerTrustPolicy(suspect_anomalies=1), {"c": lambda: count[0]}
        )
        assert not monitor.poll(0.0)
        count[0] = 5
        assert monitor.poll(1.0)
