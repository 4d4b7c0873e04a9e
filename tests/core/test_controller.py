"""Tests for the slow-path controller."""

import ipaddress

import pytest

from repro.core.config import EdgeConfig
from repro.core.controller import QuarantinePolicy, TangoController
from repro.core.gateway import TangoGateway
from repro.core.policy import StaticSelector
from repro.core.tunnels import TangoTunnel
from repro.netsim.ticks import TickScheduler
from repro.netsim.topology import Network


def make_setup():
    net = Network()
    switch = net.add_switch("gw")
    config = EdgeConfig(
        name="ny",
        tenant_router="tango-ny",
        tenant_asn=64512,
        provider_router="vultr-ny",
        provider_asn=20473,
        host_prefix=ipaddress.IPv6Network("2001:db8:20::/48"),
        route_prefixes=(ipaddress.IPv6Network("2001:db8:b0::/48"),),
    )
    gateway = TangoGateway(switch, config)
    gateway.install_tunnels(
        ipaddress.IPv6Network("2001:db8:30::/48"),
        [
            TangoTunnel(
                path_id=0,
                label="NTT",
                local_endpoint=ipaddress.IPv6Address("2001:db8:b0::1"),
                remote_endpoint=ipaddress.IPv6Address("2001:db8:c0::1"),
                remote_prefix=ipaddress.IPv6Network("2001:db8:c0::/48"),
            )
        ],
    )
    return net, gateway


class TestControlLoop:
    def test_ticks_at_interval(self):
        net, gateway = make_setup()
        controller = TangoController(gateway, net.sim, interval_s=0.1)
        controller.start()
        net.run(until=1.0)
        assert controller.ticks == 11

    def test_stop_halts_loop(self):
        net, gateway = make_setup()
        controller = TangoController(gateway, net.sim, interval_s=0.1)
        controller.start()
        net.run(until=0.5)
        controller.stop()
        net.run(until=2.0)
        assert controller.ticks == 6

    def test_double_start_rejected(self):
        net, gateway = make_setup()
        controller = TangoController(gateway, net.sim)
        controller.start()
        with pytest.raises(RuntimeError):
            controller.start()

    def test_choice_trace_records_static_selector(self):
        net, gateway = make_setup()
        gateway.set_selector(StaticSelector(0))
        controller = TangoController(gateway, net.sim, interval_s=0.1)
        controller.start()
        net.run(until=0.5)
        assert len(controller.choice_trace) == 6
        assert set(controller.choice_trace.values.tolist()) == {0.0}

    def test_loss_monitor_sampled_each_tick(self):
        net, gateway = make_setup()
        gateway.tracker.observe(0, 0)
        controller = TangoController(gateway, net.sim, interval_s=0.1)
        controller.start()
        net.run(until=0.35)
        assert len(gateway.loss_monitor.series[0]) == 4

    def test_invalid_interval(self):
        net, gateway = make_setup()
        with pytest.raises(ValueError):
            TangoController(gateway, net.sim, interval_s=0.0)

    def test_interval_off_the_wheel_fails_before_anything_is_installed(self):
        net, gateway = make_setup()
        selector = gateway.data_selector
        with pytest.raises(ValueError, match="integer multiple"):
            TangoController(
                gateway,
                net.sim,
                interval_s=0.15,
                quarantine=QuarantinePolicy(),
                scheduler=TickScheduler(net.sim, 0.1),
            )
        assert gateway.data_selector is selector


class TestHealth:
    def test_tunnel_without_measurements_is_stale(self):
        net, gateway = make_setup()
        controller = TangoController(gateway, net.sim, staleness_s=1.0)
        health = controller.health()
        assert len(health) == 1
        assert not health[0].fresh
        assert health[0].last_measurement_age_s is None

    def test_fresh_measurement_marks_healthy(self):
        net, gateway = make_setup()
        gateway.outbound.record(0, 0.0, 0.030)
        controller = TangoController(gateway, net.sim, staleness_s=1.0)
        health = controller.health()
        assert health[0].fresh

    def test_measurement_goes_stale_with_time(self):
        net, gateway = make_setup()
        gateway.outbound.record(0, 0.0, 0.030)
        controller = TangoController(gateway, net.sim, staleness_s=1.0)
        net.sim.advance_to(5.0)
        assert not controller.health()[0].fresh
        assert controller.health()[0].last_measurement_age_s == pytest.approx(5.0)


class TestRestartContract:
    def test_restart_after_stop_resumes_ticking(self):
        net, gateway = make_setup()
        controller = TangoController(gateway, net.sim, interval_s=0.1)
        controller.start()
        net.run(until=0.5)
        controller.stop()
        controller.start()
        net.run(until=1.0)
        # 6 ticks before the stop, then the restarted loop ticks
        # immediately at t=0.5 and every 0.1 s after: 6 more.
        assert controller.ticks == 12

    def test_restart_clears_quarantine_runtime_but_keeps_log(self):
        net, gateway = make_setup()
        controller = TangoController(
            gateway,
            net.sim,
            interval_s=0.1,
            staleness_s=0.5,
            quarantine=QuarantinePolicy(),
        )
        gateway.outbound.record(0, 0.0, 0.030)
        controller.start()
        net.run(until=2.0)
        assert 0 in controller.quarantined
        events_before = len(controller.quarantine_log)
        assert events_before > 0
        controller.stop()
        controller.start()
        assert controller.quarantined == set()
        assert len(controller.quarantine_log) == events_before  # cumulative


class TestQuarantinePolicy:
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    @pytest.mark.parametrize(
        "field", ["probation_delay_s", "backoff_factor", "max_probation_delay_s"]
    )
    def test_non_finite_parameter_refused_naming_the_field(self, field, value):
        # At the parent a NaN passed every comparison: ``probation_at``
        # became NaN and a quarantined tunnel was never re-admitted.
        with pytest.raises(ValueError, match=f"^{field} must be finite"):
            QuarantinePolicy(**{field: value})

    def test_defaults_valid(self):
        policy = QuarantinePolicy()
        assert policy.unhealthy_ticks == 2
        assert policy.backoff_factor == 2.0

    def test_invalid_params_rejected(self):
        with pytest.raises(ValueError):
            QuarantinePolicy(unhealthy_ticks=0)
        with pytest.raises(ValueError):
            QuarantinePolicy(probation_delay_s=0.0)
        with pytest.raises(ValueError):
            QuarantinePolicy(backoff_factor=0.5)
        with pytest.raises(ValueError):
            QuarantinePolicy(loss_threshold=1.5)


class TestQuarantineMachine:
    def make_controller(self, net, gateway, **overrides):
        return TangoController(
            gateway,
            net.sim,
            interval_s=0.1,
            staleness_s=0.5,
            quarantine=QuarantinePolicy(**overrides),
        )

    def test_stale_path_quarantined_after_hysteresis(self):
        net, gateway = make_setup()
        controller = self.make_controller(net, gateway)
        gateway.outbound.record(0, 0.0, 0.030)
        controller.start()
        net.run(until=1.0)
        assert controller.quarantined == {0}
        first = controller.quarantine_log[0]
        assert first.action == "quarantine"
        assert first.cause == "stale"
        # Stale from t=0.6; second consecutive unhealthy tick at t=0.7.
        assert first.t == pytest.approx(0.7)

    def test_never_measured_tunnel_not_quarantined(self):
        net, gateway = make_setup()
        controller = self.make_controller(net, gateway)
        controller.start()
        net.run(until=3.0)
        assert controller.quarantined == set()
        assert controller.quarantine_log == []

    def test_single_path_quarantine_engages_fallback(self):
        net, gateway = make_setup()
        controller = self.make_controller(net, gateway)
        gateway.outbound.record(0, 0.0, 0.030)
        controller.start()
        net.run(until=1.0)
        assert [
            q.action for q in controller.quarantine_log if q.path_id == -1
        ] == ["fallback-on"]

    def test_probation_after_backoff_then_requarantine_while_still_bad(self):
        net, gateway = make_setup()
        controller = self.make_controller(net, gateway)
        gateway.outbound.record(0, 0.0, 0.030)
        controller.start()
        net.run(until=4.0)
        actions = [q.action for q in controller.quarantine_log if q.path_id == 0]
        assert actions[:3] == ["quarantine", "probation", "quarantine"]
        backoffs = [
            q.backoff_s
            for q in controller.quarantine_log
            if q.action == "quarantine" and q.path_id == 0
        ]
        assert backoffs[0] == pytest.approx(1.0)
        assert backoffs[1] == pytest.approx(2.0)

    def test_recovered_path_restored_after_probation(self):
        net, gateway = make_setup()
        controller = self.make_controller(net, gateway)
        gateway.outbound.record(0, 0.0, 0.030)
        # Measurements resume at t=2 and keep flowing.
        net.sim.call_every(
            0.05, lambda: gateway.outbound.record(0, net.sim.now, 0.030), start=2.0
        )
        controller.start()
        net.run(until=5.0)
        assert 0 not in controller.quarantined
        actions = [q.action for q in controller.quarantine_log if q.path_id == 0]
        assert actions[-1] == "restore"
        fallback = [q.action for q in controller.quarantine_log if q.path_id == -1]
        assert fallback[-1] == "fallback-off"

    def test_probation_begins_exactly_at_backoff_expiry(self):
        """now >= probation_at is inclusive: the tick that lands exactly
        on the expiry releases the tunnel, not the one after."""
        net, gateway = make_setup()
        controller = self.make_controller(net, gateway)
        gateway.outbound.record(0, 0.0, 0.030)
        controller.start()
        net.run(until=2.5)
        events = {}
        for q in controller.quarantine_log:
            if q.path_id == 0:
                events.setdefault(q.action, q.t)
        # Quarantined at 0.7 with 1.0 s backoff; ticks land on multiples
        # of 0.1, so the expiry at 1.7 coincides with a tick exactly.
        assert events["quarantine"] == pytest.approx(0.7)
        assert events["probation"] == pytest.approx(1.7)

    def test_restore_on_exactly_probation_ticks_healthy_ticks(self):
        net, gateway = make_setup()
        controller = self.make_controller(net, gateway, probation_ticks=3)
        gateway.outbound.record(0, 0.0, 0.030)
        # Feed heals at t=1.0, well before probation starts at 1.7.
        net.sim.call_every(
            0.05, lambda: gateway.outbound.record(0, net.sim.now, 0.030), start=1.0
        )
        controller.start()
        net.run(until=3.0)
        events = {
            q.action: q.t for q in controller.quarantine_log if q.path_id == 0
        }
        # Probation at 1.7; healthy ticks at 1.8, 1.9, 2.0 -> restored on
        # the third, not one tick earlier or later.
        assert events["probation"] == pytest.approx(1.7)
        assert events["restore"] == pytest.approx(2.0)

    def test_restore_resets_backoff_to_base(self):
        net, gateway = make_setup()
        controller = self.make_controller(net, gateway)
        gateway.outbound.record(0, 0.0, 0.030)
        # Heal before probation, then go silent again after the restore.
        healing = net.sim.call_every(
            0.05, lambda: gateway.outbound.record(0, net.sim.now, 0.030), start=1.0
        )
        net.sim.schedule_at(2.1, healing.stop)
        controller.start()
        net.run(until=5.0)
        backoffs = [
            q.backoff_s
            for q in controller.quarantine_log
            if q.action == "quarantine" and q.path_id == 0
        ]
        # The post-restore quarantine starts from the base delay again,
        # not from the doubled value the first quarantine advanced to.
        assert len(backoffs) >= 2
        assert backoffs[0] == pytest.approx(1.0)
        assert backoffs[1] == pytest.approx(1.0)

    def test_backoff_capped(self):
        net, gateway = make_setup()
        controller = self.make_controller(
            net, gateway, probation_delay_s=1.0, max_probation_delay_s=2.0
        )
        gateway.outbound.record(0, 0.0, 0.030)
        controller.start()
        net.run(until=12.0)
        backoffs = [
            q.backoff_s
            for q in controller.quarantine_log
            if q.action == "quarantine" and q.path_id == 0
        ]
        assert len(backoffs) >= 3
        assert max(backoffs) == pytest.approx(2.0)


class TestChoiceTraceLastChoice:
    def test_unexercised_selector_traces_minus_one(self):
        from repro.core.policy import LowestDelaySelector

        net, gateway = make_setup()
        gateway.set_selector(LowestDelaySelector(gateway.outbound, window_s=1.0))
        controller = TangoController(gateway, net.sim, interval_s=0.1)
        controller.start()
        net.run(until=0.5)
        # The selector has made no selection yet: nothing to record.
        assert set(controller.choice_trace.values.tolist()) == {-1.0}
