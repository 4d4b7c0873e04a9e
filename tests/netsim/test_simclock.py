"""Tests for simulation time (``Simulator.now``) and node wall clocks."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.netsim.events import Simulator
from repro.netsim.simclock import NodeClock


class TestSimClock:
    """The simulator is its own clock: ``now`` is a plain attribute that
    only its event loop writes, and it never decreases."""

    def test_starts_at_zero_by_default(self):
        assert Simulator().now == 0.0

    def test_starts_at_given_time(self):
        assert Simulator(12.5).now == 12.5

    def test_advance_moves_forward(self):
        sim = Simulator()
        sim.advance_to(3.25)
        assert sim.now == 3.25

    def test_advance_to_same_time_is_allowed(self):
        sim = Simulator(1.0)
        sim.advance_to(1.0)
        assert sim.now == 1.0

    def test_advance_backwards_raises(self):
        sim = Simulator(5.0)
        with pytest.raises(ValueError, match="from 5.0 to 4.999"):
            sim.advance_to(4.999)
        with pytest.raises(ValueError, match="to nan"):
            sim.advance_to(float("nan"))
        assert sim.now == 5.0


class TestNodeClock:
    def test_zero_offset_matches_sim_time(self):
        sim = Simulator(10.0)
        assert NodeClock(sim).now() == 10.0

    def test_constant_offset_applied(self):
        sim = Simulator(10.0)
        clock = NodeClock(sim, offset=0.5)
        assert clock.now() == pytest.approx(10.5)

    def test_offset_is_constant_over_time(self):
        """The paper's key assumption: the distortion never changes."""
        sim = Simulator()
        clock = NodeClock(sim, offset=0.125)
        first = clock.now() - sim.now
        sim.advance_to(86400.0)
        second = clock.now() - sim.now
        assert first == pytest.approx(second)

    def test_drift_accumulates(self):
        sim = Simulator()
        clock = NodeClock(sim, offset=0.0, drift_ppm=50.0)
        sim.advance_to(1_000_000.0)  # 50 ppm over 1e6 s = 50 s drift
        assert clock.now() == pytest.approx(1_000_050.0)
        # ``now`` is ``at`` of the simulator's time, bit for bit.
        clock.set_drift(-20.0, at=sim.now)
        clock.step(0.003)
        sim.advance_to(1_234_567.891)
        assert clock.now() == clock.at(sim.now)

    def test_at_evaluates_arbitrary_times(self):
        sim = Simulator()
        clock = NodeClock(sim, offset=1.0)
        assert clock.at(5.0) == pytest.approx(6.0)

    def test_now_ns_quantizes_to_nanoseconds(self):
        sim = Simulator(1.0000000009)
        clock = NodeClock(sim)
        assert clock.now_ns() == 1_000_000_001

    def test_two_clocks_relative_offset(self):
        """Measured OWD distortion equals offset difference, always."""
        sim = Simulator()
        sender = NodeClock(sim, offset=0.0032)
        receiver = NodeClock(sim, offset=-0.0013)
        for t in (0.0, 3.7, 9999.0):
            sim.advance_to(t)
            assert receiver.now() - sender.now() == pytest.approx(-0.0045)


_delays = st.floats(min_value=0.0, max_value=100.0)
_operations = st.lists(
    st.one_of(
        st.tuples(st.just("schedule"), _delays),
        st.tuples(st.just("cancel"), st.integers(min_value=0, max_value=50)),
        st.tuples(st.just("step"), st.just(0.0)),
        st.tuples(st.just("run_until"), _delays),
        st.tuples(st.just("advance_to"), st.floats(min_value=0.0, max_value=300.0)),
    ),
    max_size=40,
)


@settings(max_examples=200, deadline=None)
@given(start=_delays, operations=_operations)
def test_simulation_time_never_decreases(start, operations):
    """Random schedule / cancel / step / run(until) / advance_to against
    a list of what is queued: ``now`` never decreases, equals ``until``
    after ``run(until)``, every event runs at its own time and in
    (time, schedule) order, and a clock jumped past a queued event
    refuses to run it, leaving the clock where it was."""
    sim = Simulator(start)
    queued = []  # (time, schedule order, event) not yet run or cancelled
    ran = []  # (sim.now at the callback, (time, schedule order))
    orders = itertools.count()

    for name, value in operations:
        before = sim.now
        queued.sort(key=lambda entry: entry[:2])
        stale = [entry for entry in queued if entry[0] < before]
        if name == "schedule":
            at = before + value
            entry = (at, next(orders))

            def fire(entry=entry):
                ran.append((sim.now, entry))

            queued.append((*entry, sim.schedule_at(at, fire)))
        elif name == "cancel":
            if queued:
                entry = queued.pop(int(value) % len(queued))
                entry[2].cancel()
        elif name == "advance_to":
            if value < before:
                with pytest.raises(ValueError, match="cannot move simulation time"):
                    sim.advance_to(value)
            else:
                sim.advance_to(value)
                assert sim.now == value
        elif stale:
            # The queue's earliest event is in the past: refused.
            with pytest.raises(ValueError, match="cannot move simulation time"):
                if name == "step":
                    sim.step()
                else:
                    sim.run(until=before + value)
            assert sim.now == before
            for entry in stale:
                queued.remove(entry)
                entry[2].cancel()
        elif name == "step":
            assert sim.step() == bool(queued)
            if queued:
                at, order, _ = queued.pop(0)
                assert ran[-1] == (at, (at, order))
        else:
            until = before + value
            due = [entry for entry in queued if entry[0] <= until]
            count = len(ran)
            sim.run(until=until)
            assert ran[count:] == [(at, (at, order)) for at, order, _ in due]
            del queued[: len(due)]
            assert sim.now == until
        assert sim.now >= before
