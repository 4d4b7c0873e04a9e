"""The controller's loop and machines, against the standalone oracle.

``tests/core/oracle.py`` keeps the controller as it was before its
quarantine and mode machines: every transition applied live and again
in its WAL replay, the runtime reset by hand-kept lists, and the
per-tunnel loop — one ``TunnelHealth`` per tunnel per tick, every
tunnel through the quarantine machine, degraded mode and the fallback
flag each scanning the list again.  Hypothesis builds two identical
edges — one controlled by the product, one by the oracle (with the
oracle's ``LossMonitor``) — drives both with the same calls (crash and
restore, cold restart, trust, FRR and SRLG among them; the product
restores the supervisor's way, from its own journal, the oracle cold
when it keeps none), and after every step requires the same quarantine
log, quarantined set, mode log, checkpoint, journal dump, tick count,
choice trace, FRR log and loss series.

``OBSERVE_EXAMPLES`` sets the number of examples (default 80).
"""

import ipaddress
import os

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

from repro.core.config import EdgeConfig
from repro.core.controller import QuarantinePolicy, TangoController
from repro.core.gateway import TangoGateway
from repro.core.policy import StaticSelector
from repro.core.tunnels import TangoTunnel
from repro.netsim.topology import Network
from repro.resilience.degraded import DegradedModeConfig
from repro.resilience.journal import ControllerJournal
from repro.srlg import FastReroute, FateAwareSelector, SrlgRegistry
from repro.telemetry.loss import LossMonitor
from repro.telemetry.store import MeasurementStore
from repro.trust.policy import PeerTrustMonitor, PeerTrustPolicy
from tests.core import oracle

#: Installed at start; the rest may arrive mid-run, one below the others.
INITIAL_IDS = [2, 64, 65]
LATE_IDS = [0, 3, 66]
GROUPS = ["conduit-a", "conduit-b"]
#: Binary fractions, so ages land exactly on the horizons.
INTERVAL_S = 0.125


def _tunnel(path_id: int) -> TangoTunnel:
    return TangoTunnel(
        path_id=path_id,
        label=f"path-{path_id}",
        local_endpoint=ipaddress.IPv6Address("2001:db8:b0::1"),
        remote_endpoint=ipaddress.IPv6Address(f"2001:db8:c0::{path_id + 1:x}"),
        remote_prefix=ipaddress.IPv6Network("2001:db8:c0::/48"),
        srlgs=frozenset({GROUPS[path_id % 2]}),
    )


class _Edge:
    """One gateway, its controller and every collaborator it may have."""

    def __init__(self, controller_cls, monitor_cls, flags, ids=INITIAL_IDS) -> None:
        self.net = Network()
        config = EdgeConfig(
            name="ny",
            tenant_router="tango-ny",
            tenant_asn=64512,
            provider_router="vultr-ny",
            provider_asn=20473,
            host_prefix=ipaddress.IPv6Network("2001:db8:20::/48"),
            route_prefixes=(ipaddress.IPv6Network("2001:db8:b0::/48"),),
        )
        self.gateway = TangoGateway(self.net.add_switch("gw"), config)
        self.gateway.loss_monitor = monitor_cls(self.gateway.tracker)
        self.install(ids)
        self.registry = SrlgRegistry() if flags["srlg"] else None
        frr = None
        if flags["frr"]:
            self.registry = self.registry or SrlgRegistry()
            selector = FateAwareSelector(StaticSelector(0), self.registry)
            self.gateway.set_selector(selector)
            frr = FastReroute(self.gateway, self.registry, selector)
        self.frr = frr
        self.anomalies = 0
        degraded = trust = None
        if flags["trust"]:
            trust = PeerTrustMonitor(
                PeerTrustPolicy(
                    suspect_anomalies=1,
                    distrust_anomalies=2,
                    clean_polls=2,
                    probation_delay_s=0.625,
                    probation_polls=2,
                ),
                {"feed": lambda: self.anomalies},
            )
        if flags["degraded"]:
            degraded = DegradedModeConfig(
                estimates=MeasurementStore(), horizon_s=0.5, heal_ticks=2, trust=trust
            )
        # The product reads trust from the degraded config; the oracle
        # takes it as its own argument.
        extra = {} if controller_cls is TangoController else {"trust": trust}
        self.journal = (
            ControllerJournal(checkpoint_every_ticks=4) if flags["journal"] else None
        )
        quarantine = None
        if flags["quarantine"]:
            quarantine = QuarantinePolicy(
                loss_threshold=0.25,
                unhealthy_ticks=2,
                probation_delay_s=0.375,
                max_probation_delay_s=1.5,
                probation_ticks=2,
            )
        self.controller = controller_cls(
            self.gateway,
            self.net.sim,
            interval_s=INTERVAL_S,
            staleness_s=0.25,
            quarantine=quarantine,
            degraded=degraded,
            journal=self.journal,
            frr=frr,
            srlg_registry=self.registry,
            **extra,
        )
        self.controller.start()

    def install(self, ids) -> None:
        self.gateway.install_tunnels(
            ipaddress.IPv6Network("2001:db8:30::/48"), [_tunnel(i) for i in ids]
        )


class ObserveMachine(RuleBasedStateMachine):
    """The product and the oracle controller, fed the same events."""

    @initialize(
        quarantine=st.booleans(),
        degraded=st.booleans(),
        trust=st.booleans(),
        journal=st.booleans(),
        frr=st.booleans(),
        srlg=st.booleans(),
    )
    def build(self, **flags):
        flags["trust"] = flags["trust"] and flags["degraded"]
        self.late = list(LATE_IDS)
        self.down: list[str] = []
        self.edges = (
            _Edge(TangoController, LossMonitor, flags),
            _Edge(oracle.TangoController, oracle.LossMonitor, flags),
        )

    def _both(self, action):
        return [action(edge) for edge in self.edges]

    @rule(ticks=st.integers(1, 6))
    def run(self, ticks):
        now = self.edges[0].net.sim.now
        self._both(lambda e: e.net.run(until=now + ticks * INTERVAL_S + 1e-9))

    @rule(ids=st.lists(st.sampled_from(INITIAL_IDS + LATE_IDS), max_size=4))
    def measure(self, ids):
        # A fresh mirrored sample; an id not (yet) installed is a sample
        # for nobody, as a peer's report for an unknown tunnel would be.
        def record(edge):
            now = edge.net.sim.now
            for path_id in ids:
                edge.gateway.outbound.record(path_id, now, 0.03125)

        self._both(record)

    @rule(
        path_id=st.sampled_from(INITIAL_IDS + LATE_IDS),
        delivered=st.sampled_from([0, 1, 3, 10]),
        lost=st.sampled_from([0, 0, 1, 8]),
    )
    def traffic(self, path_id, delivered, lost):
        self._both(
            lambda e: e.gateway.tracker.record_aggregate(path_id, delivered, lost)
        )

    @rule(path_id=st.sampled_from(INITIAL_IDS), ahead=st.integers(-2, 4))
    def packet(self, path_id, ahead):
        def observe(edge):
            tracker = edge.gateway.tracker
            seq = tracker.stats_for(path_id).highest_seen + ahead
            return tracker.observe(path_id, max(seq, 0))

        outcome, expected = self._both(observe)
        assert outcome == expected

    @rule()
    def install_late(self):
        if self.late:
            path_id = self.late.pop(0)
            self._both(lambda e: e.install([path_id]))

    @rule(group=st.sampled_from(GROUPS))
    def group_down(self, group):
        if self.edges[0].registry is not None:
            self.down.append(group)
            self._both(lambda e: e.registry.mark_down(group))

    @rule()
    def group_up(self):
        if self.down:
            group = self.down.pop(0)
            self._both(lambda e: e.registry.clear_down(group))

    @rule(burst=st.integers(1, 3))
    def anomaly(self, burst):
        def bump(edge):
            edge.anomalies += burst

        self._both(bump)

    @rule()
    def crash_and_recover(self):
        # The product restarts the supervisor's way, from its own journal
        # (a NullJournal's is empty); the oracle keeps its cold branch.
        ours, theirs = (edge.controller for edge in self.edges)
        ours.crash()
        ours.restore_state(*ours.journal.recover())
        ours.start(warm=True)
        theirs.crash()
        if self.edges[1].journal is not None:
            theirs.restore_state(*self.edges[1].journal.recover())
            theirs.start(warm=True)
        else:
            theirs.start()

    @rule()
    def restart_cold(self):
        def restart(edge):
            edge.controller.stop()
            edge.controller.start()

        self._both(restart)

    @rule()
    def health(self):
        ours, theirs = self._both(lambda e: e.controller.health())
        assert ours == theirs

    @invariant()
    def same_decisions(self):
        ours, theirs = (edge.controller for edge in self.edges)
        assert ours.quarantine_log == theirs.quarantine_log
        assert ours.quarantined == theirs.quarantined
        assert ours.mode_log == theirs.mode_log
        assert ours.snapshot_state() == theirs.snapshot_state()
        assert ours.ticks == theirs.ticks
        for column in ("times", "values"):
            mine = getattr(ours.choice_trace, column)
            assert mine.tobytes() == getattr(theirs.choice_trace, column).tobytes()
        if self.edges[0].frr is not None:
            assert self.edges[0].frr.log == self.edges[1].frr.log
        if self.edges[0].journal is not None:
            assert self.edges[0].journal.dump() == self.edges[1].journal.dump()

    @invariant()
    def same_loss_series(self):
        ours, theirs = (edge.gateway.loss_monitor for edge in self.edges)
        assert sorted(ours.series) == sorted(theirs.series)
        for path_id, series in theirs.series.items():
            mine = ours.series[path_id]
            assert mine.times.tobytes() == series.times.tobytes()
            assert mine.values.tobytes() == series.values.tobytes()
            for bins in range(1, 6):
                assert ours.recent_loss(path_id, bins) == theirs.recent_loss(
                    path_id, bins
                )


ALL_ON = dict(
    quarantine=True, degraded=True, trust=False, journal=True, frr=False, srlg=True
)


def _scripted(ids=INITIAL_IDS):
    return (
        _Edge(TangoController, LossMonitor, ALL_ON, ids),
        _Edge(oracle.TangoController, oracle.LossMonitor, ALL_ON, ids),
    )


def _assert_same(edges):
    ours, theirs = (edge.controller for edge in edges)
    assert ours.quarantine_log == theirs.quarantine_log
    assert ours.mode_log == theirs.mode_log
    assert ours.snapshot_state() == theirs.snapshot_state()


class TestBoundaries:
    """Ties the random machine rarely lands on exactly."""

    def test_freshest_age_on_the_horizon_is_no_feed_outage(self):
        # Path 2 measured one tick before path 64: at t=0.5 the freshest
        # age (path 64's) is exactly the staleness horizon, so it is no
        # feed outage, path 2's staleness counts and its streak starts.
        edges = _scripted()
        for edge in edges:
            edge.gateway.outbound.record(2, 0.125, 0.03125)
            edge.gateway.outbound.record(64, 0.25, 0.03125)
            edge.net.run(until=0.501)
        assert edges[1].controller.snapshot_state()["qstate"]["2"][
            "unhealthy_streak"
        ] == 1
        _assert_same(edges)

    def test_loss_on_the_threshold_is_healthy(self):
        edges = _scripted()
        for edge in edges:
            edge.gateway.tracker.record_aggregate(2, 3, 1)  # 1/4 lost
            edge.net.run(until=0.001)
        assert edges[1].controller.health()[0].recent_loss == 0.25
        _assert_same(edges)
        assert edges[0].controller.snapshot_state()["qstate"]["2"][
            "unhealthy_streak"
        ] == 0

    def test_warm_restore_revisits_a_quiet_quarantined_tunnel(self):
        # Path 2 is quarantined for loss, then its bins turn clean: after
        # a crash and warm restore nothing but its restored state says
        # the machine must still walk it through probation.
        edges = _scripted()
        for edge in edges:
            edge.gateway.tracker.record_aggregate(2, 1, 9)
            edge.net.run(until=0.001)
            edge.gateway.tracker.record_aggregate(2, 1, 9)
            edge.net.run(until=0.2)
            controller = edge.controller
            controller.crash()
            controller.restore_state(*edge.journal.recover())
            controller.start(warm=True)
            edge.net.run(until=2.0)
        actions = [e.action for e in edges[1].controller.quarantine_log]
        assert actions == ["quarantine", "probation", "restore"]
        _assert_same(edges)

    def test_no_tunnels_is_no_fallback(self):
        edges = _scripted(ids=())
        for edge in edges:
            edge.net.run(until=0.3)
        _assert_same(edges)
        assert edges[0].controller.quarantine_log == []


TestObserveMatchesOracle = ObserveMachine.TestCase
TestObserveMatchesOracle.settings = settings(
    max_examples=int(os.environ.get("OBSERVE_EXAMPLES", "80")),
    stateful_step_count=40,
    deadline=None,
)
