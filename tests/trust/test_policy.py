"""Unit tests: the peer-trust state machine."""

import pytest

from repro.trust.policy import (
    TRUST_DISTRUSTED,
    TRUST_PROBATION,
    TRUST_SUSPECT,
    TRUST_TRUSTED,
    PeerTrustMonitor,
    PeerTrustPolicy,
)


class Counter:
    """A cumulative anomaly source the tests can bump."""

    def __init__(self):
        self.count = 0

    def __call__(self):
        return self.count


def make(policy=None, **kwargs):
    source = Counter()
    monitor = PeerTrustMonitor(
        policy or PeerTrustPolicy(**kwargs), {"test": source}
    )
    return monitor, source


class TestPolicyValidation:
    def test_rejects_bad_params(self):
        with pytest.raises(ValueError):
            PeerTrustPolicy(suspect_anomalies=0)
        with pytest.raises(ValueError):
            PeerTrustPolicy(suspect_anomalies=5, distrust_anomalies=3)
        with pytest.raises(ValueError):
            PeerTrustPolicy(clean_polls=0)
        with pytest.raises(ValueError):
            PeerTrustPolicy(probation_delay_s=0.0)
        with pytest.raises(ValueError):
            PeerTrustPolicy(backoff_factor=0.5)
        with pytest.raises(ValueError):
            PeerTrustPolicy(probation_delay_s=5.0, max_probation_delay_s=1.0)
        with pytest.raises(ValueError):
            PeerTrustPolicy(probation_polls=0)

    def test_needs_a_source(self):
        with pytest.raises(ValueError):
            PeerTrustMonitor(PeerTrustPolicy(), {})


class TestTrustedToSuspect:
    def test_lone_anomaly_stays_trusted(self):
        monitor, source = make(suspect_anomalies=3)
        source.count = 2
        assert not monitor.poll(1.0)
        assert monitor.state == TRUST_TRUSTED

    def test_burst_demotes_to_suspect(self):
        monitor, source = make(suspect_anomalies=3)
        source.count = 3
        assert monitor.poll(1.0)
        assert monitor.state == TRUST_SUSPECT

    def test_counter_deltas_not_absolutes(self):
        """Sources are cumulative; only the delta since the last poll is
        evidence — an old high-water mark must not re-demote forever."""
        monitor, source = make(suspect_anomalies=3, clean_polls=2)
        source.count = 5
        monitor.poll(1.0)
        assert monitor.state == TRUST_SUSPECT
        # Counter stays at 5 (no new anomalies): clean polls heal.
        monitor.poll(2.0)
        monitor.poll(3.0)
        assert monitor.state == TRUST_TRUSTED


class TestSuspect:
    def test_sustained_evidence_distrusts(self):
        monitor, source = make(suspect_anomalies=3, distrust_anomalies=10)
        source.count = 5
        monitor.poll(1.0)
        source.count = 11
        monitor.poll(2.0)
        assert monitor.state == TRUST_DISTRUSTED
        assert monitor.distrusted

    def test_clean_streak_resets_on_new_anomaly(self):
        monitor, source = make(
            suspect_anomalies=3, distrust_anomalies=100, clean_polls=3
        )
        source.count = 3
        monitor.poll(1.0)
        monitor.poll(2.0)
        monitor.poll(3.0)
        source.count = 4  # one more anomaly: streak resets
        monitor.poll(4.0)
        monitor.poll(5.0)
        monitor.poll(6.0)
        assert monitor.state == TRUST_SUSPECT
        monitor.poll(7.0)
        assert monitor.state == TRUST_TRUSTED


class TestProbationAndBackoff:
    def test_probation_after_delay_then_heal(self):
        monitor, source = make(
            suspect_anomalies=2,
            distrust_anomalies=4,
            probation_delay_s=3.0,
            probation_polls=2,
        )
        source.count = 6
        monitor.poll(1.0)
        assert monitor.state == TRUST_DISTRUSTED
        monitor.poll(2.0)
        assert monitor.state == TRUST_DISTRUSTED  # still serving time
        monitor.poll(4.1)
        assert monitor.state == TRUST_PROBATION
        monitor.poll(4.2)
        monitor.poll(4.3)
        assert monitor.state == TRUST_TRUSTED

    def test_probation_relapse_doubles_backoff(self):
        monitor, source = make(
            suspect_anomalies=2,
            distrust_anomalies=4,
            probation_delay_s=2.0,
            backoff_factor=2.0,
            max_probation_delay_s=60.0,
        )
        source.count = 6
        monitor.poll(0.0)
        assert monitor.state == TRUST_DISTRUSTED
        monitor.poll(2.1)
        assert monitor.state == TRUST_PROBATION
        source.count = 7  # anomaly during probation: relapse
        monitor.poll(2.2)
        assert monitor.state == TRUST_DISTRUSTED
        # Backoff doubled: probation not before 2.2 + 4.0.
        monitor.poll(5.0)
        assert monitor.state == TRUST_DISTRUSTED
        monitor.poll(6.3)
        assert monitor.state == TRUST_PROBATION

    def test_backoff_caps_and_resets_after_heal(self):
        policy = PeerTrustPolicy(
            suspect_anomalies=2,
            distrust_anomalies=4,
            probation_delay_s=2.0,
            backoff_factor=10.0,
            max_probation_delay_s=5.0,
            probation_polls=1,
        )
        monitor, source = make(policy=policy)
        now = 0.0
        source.count = 6
        monitor.poll(now)
        # Relapse once: backoff would be 20 s but caps at 5 s.
        monitor.poll(2.1)
        source.count = 7
        monitor.poll(2.2)
        assert monitor.state == TRUST_DISTRUSTED
        monitor.poll(7.3)
        assert monitor.state == TRUST_PROBATION
        monitor.poll(7.4)  # clean probation poll: healed, backoff reset
        assert monitor.state == TRUST_TRUSTED
        # Fresh demotion starts from the base delay again.
        source.count = 20
        monitor.poll(8.0)
        assert monitor.state == TRUST_DISTRUSTED
        monitor.poll(10.1)
        assert monitor.state == TRUST_PROBATION


class TestBookkeeping:
    def test_events_and_breakdown(self):
        monitor, source = make(suspect_anomalies=2, distrust_anomalies=4)
        source.count = 6
        monitor.poll(1.5)
        states = [e.state for e in monitor.events]
        assert states == [TRUST_SUSPECT, TRUST_DISTRUSTED]
        assert monitor.anomalies_total == 6

    def test_multiple_sources_sum(self):
        a, b = Counter(), Counter()
        monitor = PeerTrustMonitor(
            PeerTrustPolicy(suspect_anomalies=4), {"a": a, "b": b}
        )
        a.count, b.count = 2, 2
        monitor.poll(1.0)
        assert monitor.state == TRUST_SUSPECT

    def test_negative_counter_delta_ignored(self):
        """A source that resets (restarted process) must not underflow."""
        monitor, source = make(suspect_anomalies=3)
        source.count = 2
        monitor.poll(1.0)
        source.count = 0
        monitor.poll(2.0)
        assert monitor.state == TRUST_TRUSTED
        assert monitor.anomalies_total == 2
