"""Tests for pairing establishment and telemetry mirroring.

Uses the Vultr deployment as the canonical pairing (it is the paper's own
setup and exercises every establishment step).
"""

import numpy as np
import pytest

from repro.core.session import TelemetryMirror
from repro.netsim.ticks import TickScheduler
from repro.scenarios.vultr import VultrDeployment
from repro.telemetry.store import MeasurementStore


@pytest.fixture(scope="module")
def deployment():
    d = VultrDeployment(include_events=False)
    d.establish()
    return d


class TestEstablishment:
    def test_four_tunnels_per_direction(self, deployment):
        state = deployment.state
        assert state.path_counts == (4, 4)

    def test_route_prefixes_pinned_after_establishment(self, deployment):
        """Each remote route prefix is reachable over its own path."""
        bgp = deployment.bgp
        la = deployment.pairing.b
        observed = []
        for prefix in la.route_prefixes:
            path = bgp.best_path("tango-ny", prefix)
            assert path is not None
            observed.append(path.without(20473).strip_private().asns)
        assert len(set(observed)) == 4  # four distinct transit views

    def test_host_prefixes_reachable_via_default(self, deployment):
        bgp = deployment.bgp
        assert bgp.reachable("tango-ny", deployment.pairing.b.host_prefix)
        assert bgp.reachable("tango-la", deployment.pairing.a.host_prefix)

    def test_tunnels_installed_in_gateways(self, deployment):
        assert len(deployment.gateway_ny.tunnel_table) == 4
        assert len(deployment.gateway_la.tunnel_table) == 4

    def test_direction_bases_disjoint(self, deployment):
        ids_ab = {t.path_id for t in deployment.state.tunnels_a_to_b}
        ids_ba = {t.path_id for t in deployment.state.tunnels_b_to_a}
        assert ids_ab.isdisjoint(ids_ba)

    def test_gateway_mismatch_rejected(self, deployment):
        from repro.core.session import TangoSession

        with pytest.raises(ValueError, match="gateway_a"):
            TangoSession(
                deployment.pairing,
                deployment.bgp,
                deployment.gateway_la,  # swapped
                deployment.gateway_ny,
                deployment.sim,
            )


class TestTelemetryMirror:
    def test_copies_new_samples(self):
        source, sink = MeasurementStore(), MeasurementStore()
        source.extend(1, np.asarray([0.0, 1.0]), np.asarray([0.03, 0.031]))
        mirror = TelemetryMirror(source, sink, latency_s=0.0)
        assert mirror.sync(now=2.0) == 2
        np.testing.assert_array_equal(sink.series(1).values, [0.03, 0.031])

    def test_incremental_no_duplicates(self):
        source, sink = MeasurementStore(), MeasurementStore()
        source.record(1, 0.0, 0.03)
        mirror = TelemetryMirror(source, sink)
        mirror.sync(1.0)
        source.record(1, 1.5, 0.031)
        mirror.sync(2.0)
        assert len(sink.series(1)) == 2
        assert mirror.samples_mirrored == 2

    def test_latency_horizon_respected(self):
        source, sink = MeasurementStore(), MeasurementStore()
        source.record(1, 0.0, 0.03)
        source.record(1, 0.95, 0.031)
        mirror = TelemetryMirror(source, sink, latency_s=0.1)
        mirror.sync(now=1.0)  # horizon = 0.9: second sample too fresh
        assert len(sink.series(1)) == 1
        mirror.sync(now=1.1)
        assert len(sink.series(1)) == 2

    def test_negative_latency_rejected(self):
        with pytest.raises(ValueError):
            TelemetryMirror(MeasurementStore(), MeasurementStore(), latency_s=-1.0)

    @pytest.mark.parametrize("latency", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_latency_rejected(self, latency):
        # At the parent a NaN latency constructed, and its horizon let a
        # sync at t=0 copy a row stamped t=5.
        with pytest.raises(ValueError, match=str(latency)):
            TelemetryMirror(MeasurementStore(), MeasurementStore(), latency_s=latency)

    def test_nan_sync_time_copies_nothing(self):
        source, sink = MeasurementStore(), MeasurementStore()
        source.record(1, 5.0, 0.03)
        mirror = TelemetryMirror(source, sink)
        with pytest.raises(ValueError, match="nan"):
            mirror.sync(float("nan"))
        with pytest.raises(ValueError, match="nan"):
            mirror.discard_before(float("nan"))
        assert sink.path_ids() == [] and mirror.samples_discarded == 0
        assert mirror.sync(5.0) == 1

    def test_multiple_paths_mirrored(self):
        source, sink = MeasurementStore(), MeasurementStore()
        source.record(1, 0.0, 0.03)
        source.record(2, 0.0, 0.04)
        TelemetryMirror(source, sink).sync(1.0)
        assert sink.path_ids() == [1, 2]


class TestMirrorScope:
    def stores(self):
        source, sink = MeasurementStore(), MeasurementStore()
        for path_id in (1, 2, 3):
            source.record(path_id, 0.0, 0.03)
        return source, sink

    def test_scoped_mirror_copies_only_its_ids(self):
        source, sink = self.stores()
        mirror = TelemetryMirror(source, sink, path_ids={1, 3})
        assert mirror.sync(1.0) == 2
        assert sink.path_ids() == [1, 3]
        assert mirror.path_ids == {1, 3}

    def test_extend_scope_backfills_the_new_id(self):
        source, sink = self.stores()
        mirror = TelemetryMirror(source, sink, path_ids={3})
        mirror.sync(1.0)
        mirror.extend_scope(2)
        assert mirror.path_ids == {2, 3}
        assert mirror.sync(1.0) == 1
        assert sink.path_ids() == [2, 3]

    def test_scope_is_read_only_from_outside(self):
        mirror = TelemetryMirror(*self.stores(), path_ids={1})
        with pytest.raises(AttributeError):
            mirror.path_ids.add(2)

    def test_unscoped_mirror_has_no_scope_to_extend(self):
        source, sink = self.stores()
        mirror = TelemetryMirror(source, sink)
        mirror.extend_scope(9)
        assert mirror.path_ids is None
        assert mirror.sync(1.0) == 3

    def test_scoped_sync_never_lists_the_shared_store(self, monkeypatch):
        source, sink = self.stores()
        mirror = TelemetryMirror(source, sink, path_ids={1})
        monkeypatch.setattr(
            MeasurementStore, "path_ids", lambda self: pytest.fail("listed")
        )
        assert mirror.sync(1.0) == 1
        assert mirror.discard_before(5.0) == 0


class TestLiveMirroring:
    def test_outbound_stores_fed_from_peer(self):
        deployment = VultrDeployment(include_events=False)
        deployment.establish()
        deployment.start_path_probes("ny", interval_s=0.02)
        deployment.net.run(until=1.0)
        outbound = deployment.gateway_ny.outbound
        assert len(outbound.path_ids()) == 4
        # Mirrored values equal what LA measured.
        inbound = deployment.gateway_la.inbound
        for path_id in outbound.path_ids():
            mirrored = outbound.series(path_id).values
            measured = inbound.series(path_id).values[: mirrored.size]
            np.testing.assert_array_equal(mirrored, measured)


class TestDiscardBefore:
    def test_pending_samples_dropped(self):
        source, sink = MeasurementStore(), MeasurementStore()
        source.extend(1, np.asarray([0.0, 1.0, 2.0]), np.full(3, 0.03))
        mirror = TelemetryMirror(source, sink, latency_s=0.0)
        assert mirror.discard_before(1.5) == 2
        assert mirror.samples_discarded == 2
        mirror.sync(now=3.0)
        np.testing.assert_array_equal(sink.series(1).times, [2.0])

    def test_already_copied_samples_unaffected(self):
        source, sink = MeasurementStore(), MeasurementStore()
        source.record(1, 0.0, 0.03)
        mirror = TelemetryMirror(source, sink, latency_s=0.0)
        mirror.sync(now=1.0)
        assert mirror.discard_before(0.5) == 0
        assert len(sink.series(1)) == 1

    def test_never_rewinds(self):
        source, sink = MeasurementStore(), MeasurementStore()
        source.extend(1, np.asarray([0.0, 1.0]), np.full(2, 0.03))
        mirror = TelemetryMirror(source, sink, latency_s=0.0)
        mirror.discard_before(5.0)
        assert mirror.discard_before(0.1) == 0  # cursor stays put
        mirror.sync(now=10.0)
        assert len(sink.series(1)) == 0

    def test_empty_mirror_discards_nothing(self):
        mirror = TelemetryMirror(MeasurementStore(), MeasurementStore())
        assert mirror.discard_before(100.0) == 0
        assert mirror.samples_discarded == 0

    def test_discard_all_pending(self):
        source, sink = MeasurementStore(), MeasurementStore()
        source.extend(1, np.asarray([0.0, 1.0, 2.0]), np.full(3, 0.03))
        source.extend(2, np.asarray([0.5, 1.5]), np.full(2, 0.04))
        mirror = TelemetryMirror(source, sink, latency_s=0.0)
        assert mirror.discard_before(10.0) == 5
        mirror.sync(now=20.0)
        assert sink.path_ids() == []

    def test_exact_boundary_timestamp_survives(self):
        """discard_before(t) is half-open: a sample at exactly t stays."""
        source, sink = MeasurementStore(), MeasurementStore()
        source.extend(1, np.asarray([0.0, 1.0, 2.0]), np.full(3, 0.03))
        mirror = TelemetryMirror(source, sink, latency_s=0.0)
        assert mirror.discard_before(1.0) == 1  # only the t=0 sample
        mirror.sync(now=3.0)
        np.testing.assert_array_equal(sink.series(1).times, [1.0, 2.0])


class TestMirrorRegistry:
    def test_mirror_to_returns_feeding_mirror(self, deployment):
        mirror, _ = deployment.session.mirror_to("ny")
        assert mirror.sink is deployment.gateway("ny").outbound

    def test_unknown_edge_raises(self, deployment):
        with pytest.raises(KeyError, match="no mirror"):
            deployment.session.mirror_to("chicago")

    def test_stop_clears_registry(self):
        d = VultrDeployment(include_events=False)
        d.establish()
        d.session.stop()
        with pytest.raises(KeyError):
            d.session.mirror_to("ny")

    def test_stop_is_idempotent(self):
        """Registry teardown stops sessions defensively: repeat stops
        (and stops on a never-started session) must be no-ops."""
        d = VultrDeployment(include_events=False)
        d.establish()
        d.session.start_telemetry_mirrors()
        d.session.stop()
        d.session.stop()  # second stop: nothing left, must not raise
        fresh = VultrDeployment(include_events=False)
        fresh.establish()
        fresh.session.stop()  # never started mirrors: also a no-op


class TestMirrorsOnASharedWheel:
    """``scheduler=`` swaps the two dedicated tasks for two registrations
    on one tick wheel; nothing else about the mirrors changes."""

    @staticmethod
    def run(on_wheel):
        d = VultrDeployment(include_events=False)
        d.establish()
        d.session.stop()  # the deployment's own unscoped pair
        sim = d.sim
        interval = d.pairing.report_interval_s
        wheel = TickScheduler(sim, interval) if on_wheel else None
        d.session.start_telemetry_mirrors(scoped=True, scheduler=wheel)
        mirror, handle = d.session.mirror_to("ny")
        # What LA received on NY's tunnels, sampled off the report grid.
        ids = sorted(mirror.path_ids)
        source = d.gateway("la").inbound
        sim.call_every(
            0.03,
            lambda: [source.record(pid, sim.now, 0.03 + pid * 1e-4) for pid in ids],
            start=sim.now + 0.004,
        )
        trace = []
        sim.call_every(
            0.01,
            lambda: trace.append((round(sim.now, 6), mirror.samples_mirrored)),
            start=sim.now + 0.005,
        )
        t0 = sim.now
        sim.schedule_at(t0 + 1.0, handle.pause)
        sim.schedule_at(t0 + 2.0, handle.resume)
        sim.schedule_at(t0 + 3.0, handle.stop)
        sim.run(until=t0 + 4.0)
        sink = d.gateway("ny").outbound
        return (
            handle,
            trace,
            [(pid, s.times.tobytes(), s.values.tobytes()) for pid, s in sink.items()],
        )

    def test_same_instants_same_samples_through_pause_resume_stop(self):
        task, trace_task, sink_task = self.run(on_wheel=False)
        handle, trace_wheel, sink_wheel = self.run(on_wheel=True)
        assert type(task) is not type(handle)
        assert trace_task == trace_wheel
        assert sink_task == sink_wheel
        counts = [count for _, count in trace_task]
        # Mirrored, then silent while paused, then mirrored again (the
        # paused second's backlog arrives with the first sync after it),
        # then silent for good.
        assert counts[95] > 0
        assert counts[100] == counts[205] and counts[215] > counts[205] + 100
        assert counts[305] == counts[-1] > counts[215]

    @pytest.mark.parametrize("on_wheel", [False, True])
    def test_mirror_to_hands_back_the_same_control_surface(self, on_wheel):
        d = VultrDeployment(include_events=False)
        d.establish()
        d.session.stop()
        wheel = TickScheduler(d.sim, 0.1) if on_wheel else None
        d.session.start_telemetry_mirrors(scoped=True, scheduler=wheel)
        _, handle = d.session.mirror_to("la")
        handle.pause()
        handle.resume()
        handle.stop()
        d.session.stop()  # stopping a stopped handle: still a no-op
